"""Seeded generators for the three benchmark workloads.

A workload is a stream of cycles; cycle ``c`` of seed ``s`` is a fixed
list of ops drawn from ``random.Random(f"{s}/{workload}/{c}")``, so the
same seed always gives the same configs. Each cycle has the same mix of
op kinds and the same grid sizes whatever the seed; the seed varies the
material, cutoffs, volumes, fields, formats and op order. That keeps
the work per cycle constant, which is what makes latency percentiles
comparable between seeds and between commits.

An ``Op`` is one ``vacmom`` CLI invocation: a subcommand, a JSON config
written to a fresh file, extra flags, the exit code it must give, and
the parameters the oracles need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("vacuum-velocity", "cutoff-sweep", "classical-batch")

# vacuum-velocity: every timed op sums the same dimensionless grid.
VELOCITY_GRID = 32
VELOCITY_WARMUP_GRID = 12

# cutoff-sweep: one cycle uses 18 grid_n values from 4 to 26, none
# twice. Cutoff chains scale the grid with the cutoff; their bases avoid
# 5 and 6, whose coarse first point pulls the fitted slope of
# abs_b_dot_chiT_e below the 3.8 the oracle accepts. The cycle has an
# odd number of ops (7) and its middle-sized op, the (10, 20) chain, is
# 27-33 % away from its neighbours in size, so the median latency of
# whole cycles falls on one kind of op instead of between two. The
# median is then taken over one op per cycle; grid_n 12, 21, 23, 24
# and 25 are left out so that a run holds about 11 cycles, not 6-7.
SWEEP_CHAINS = ((4, 8, 16), (7, 14), (9, 18), (10, 20), (11, 22), (13, 26))
SWEEP_GRID_LISTS = ((5, 6, 15, 17, 19),)
SWEEP_WARMUP_GRIDS = (2, 3)

# classical-batch: 40 ops per cycle, 2 of them (5 %) invalid.
CLASSICAL_MIX = (
    ("transform",) * 13
    + ("expand-check",) * 12
    + ("velocity",) * 13
    + ("reject-config", "degenerate-boost")
)
BETA_SWEEP_LEN = 6

# Sizes for the benchmark's self-test.
TINY = {
    "velocity_grid": 8,
    "velocity_warmup_grid": 6,
    "sweep_chains": ((7, 14),),
    "sweep_grid_lists": ((4, 5, 6),),
}


@dataclass(frozen=True)
class Op:
    kind: str
    command: str
    config: dict
    flags: tuple = ()
    expect: int = 0
    # vacuum-sweep: grid_n behind each output row, in row order
    grids: tuple = ()

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.flags]


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _material(rng: random.Random) -> dict:
    # n in [1.6, 3.0]: near n = sqrt(2) the beta^2 term of the exact
    # interaction density vanishes for crossed fields, the truncation
    # residual turns O(beta^3), and expand-check's slope window of
    # [1.9, 2.1] would reject a correct program.
    n = rng.uniform(1.6, 3.0)
    mu = rng.uniform(0.8, 1.25)
    return {
        "epsilon": n * n / mu,
        "mu": mu,
        "chi": [rng.uniform(-1e-3, 1e-3) for _ in range(9)],
        "rho0": _log_uniform(rng, -1.0, 1.0),
    }


def _format(rng: random.Random) -> tuple[str, str]:
    return ("--format", rng.choice(("csv", "json")))


def _vacuum(rng: random.Random, grid_n: int) -> dict:
    return {
        "grid_n": grid_n,
        "cutoff": _log_uniform(rng, 4.0, 6.0),
        "volume": _log_uniform(rng, -1.0, 1.0),
    }


def _velocity_op(rng: random.Random, grid_n: int) -> Op:
    cfg = {"material": _material(rng), "vacuum": _vacuum(rng, grid_n)}
    flags = _format(rng)
    if rng.random() < 0.5:
        flags += ("--cutoff", repr(_log_uniform(rng, 4.0, 6.0)))
    return Op("vacuum-velocity", "velocity", cfg, flags)


def _chain_op(rng: random.Random, grids: tuple) -> Op:
    cfg = {"material": _material(rng), "vacuum": _vacuum(rng, grids[0])}
    base = cfg["vacuum"]["cutoff"]
    values = [base * g / grids[0] for g in grids]
    cfg["sweep"] = {"parameter": "cutoff", "values": values}
    return Op("cutoff-chain", "vacuum-sweep", cfg, _format(rng), grids=grids)


def _grid_list_op(rng: random.Random, grids: tuple) -> Op:
    cfg = {"material": _material(rng), "vacuum": _vacuum(rng, grids[0])}
    cfg["sweep"] = {"parameter": "grid_n", "values": list(grids)}
    return Op("grid-sweep", "vacuum-sweep", cfg, _format(rng), grids=grids)


def _crossed_fields(rng: random.Random) -> dict:
    # transverse E perpendicular to B, |B|/|E| in [0.5, 2]
    e = rng.uniform(0.5, 2.0)
    b = e * rng.uniform(0.5, 2.0)
    c, s = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    norm = (c * c + s * s) ** 0.5 or 1.0
    c, s = c / norm, s / norm
    return {"E": [e * c, e * s, 0.0], "B": [-b * s, b * c, 0.0]}


def _any_fields(rng: random.Random) -> dict:
    scale = _log_uniform(rng, -1.0, 1.0)
    return {
        "E": [scale * rng.uniform(-1.0, 1.0) for _ in range(3)],
        "B": [scale * rng.uniform(-1.0, 1.0) for _ in range(3)],
    }


def _invalid_config(rng: random.Random) -> dict:
    cfg = {
        "material": _material(rng),
        "fields": _crossed_fields(rng),
        "boost": {"beta": rng.uniform(0.0, 0.5)},
    }
    variant = rng.randrange(6)
    if variant == 0:
        cfg["boots"] = {"beta": 0.1}
    elif variant == 1:
        cfg["material"]["epsilom"] = cfg["material"].pop("epsilon")
    elif variant == 2:
        cfg["material"]["mu"] = -cfg["material"]["mu"]
    elif variant == 3:
        cfg["material"]["rho0"] = 0.0
    elif variant == 4:
        cfg["material"]["chi"] = cfg["material"]["chi"][:8]
    else:
        cfg["boost"]["beta"] = 1.0 + rng.random()
    return cfg


def _classical_op(rng: random.Random, kind: str) -> Op:
    material = _material(rng)
    if kind == "transform":
        betas = [rng.uniform(-0.3, 0.95) for _ in range(BETA_SWEEP_LEN)]
        cfg = {"material": material, "sweep": {"parameter": "beta", "values": betas}}
        return Op(kind, "transform", cfg, _format(rng))
    if kind == "expand-check":
        cfg = {"material": material, "fields": _crossed_fields(rng)}
        return Op(kind, "expand-check", cfg, _format(rng))
    if kind == "velocity":
        cfg = {"material": material, "fields": _any_fields(rng)}
        return Op(kind, "velocity", cfg, _format(rng))
    if kind == "reject-config":
        command = rng.choice(("transform", "expand-check", "velocity"))
        return Op(kind, command, _invalid_config(rng), _format(rng), expect=2)
    if kind == "degenerate-boost":
        # n >= 1.6, so any beta <= -0.7 makes 1 + n beta negative
        cfg = {"material": material, "boost": {"beta": 0.1}}
        flags = _format(rng) + ("--beta", repr(rng.uniform(-0.95, -0.7)))
        return Op(kind, "transform", cfg, flags, expect=3)
    raise ValueError(f"unknown classical op kind {kind!r}")


class Generator:
    """Warm-up op and timed cycles of one workload for one seed."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.velocity_grid = TINY["velocity_grid"] if tiny else VELOCITY_GRID
        self.velocity_warmup_grid = (
            TINY["velocity_warmup_grid"] if tiny else VELOCITY_WARMUP_GRID
        )
        self.sweep_chains = TINY["sweep_chains"] if tiny else SWEEP_CHAINS
        self.sweep_grid_lists = TINY["sweep_grid_lists"] if tiny else SWEEP_GRID_LISTS

    def _rng(self, label) -> random.Random:
        return random.Random(f"{self.seed}/{self.workload}/{label}")

    def warmup(self) -> Op:
        """One op outside every timed cycle, on a grid no timed op uses."""
        rng = self._rng("warmup")
        if self.workload == "vacuum-velocity":
            return _velocity_op(rng, self.velocity_warmup_grid)
        if self.workload == "cutoff-sweep":
            return _grid_list_op(rng, SWEEP_WARMUP_GRIDS)
        return _classical_op(rng, "transform")

    def cycle(self, index: int) -> list[Op]:
        rng = self._rng(index)
        if self.workload == "vacuum-velocity":
            return [_velocity_op(rng, self.velocity_grid)]
        if self.workload == "cutoff-sweep":
            ops = [_chain_op(rng, g) for g in self.sweep_chains]
            ops += [_grid_list_op(rng, g) for g in self.sweep_grid_lists]
        else:
            ops = [_classical_op(rng, kind) for kind in CLASSICAL_MIX]
        rng.shuffle(ops)
        return ops
