"""Run one corpus through cli.main at a git revision and in this tree.

    python tests/parent_diff.py <rev> [--seed N] [--count N]

The revision is checked out in a temporary ``git worktree``, which is
removed afterwards. Each tree runs the whole corpus in a process of its
own, one in-process ``cli.main`` call per argv with stdout and stderr
captured, at COLUMNS=80. The corpus:

- the ops of all three benchmark workloads, from
  ``bench/workloads.Generator`` at its tiny sizes;
- seeded random configs of every subcommand, in both output formats and
  with overrides in both spellings, whose numbers include +-0.0,
  subnormals, 1e+-300 and the largest floats;
- file faults: a missing file, a directory, an empty or truncated file,
  a BOM, and the malformed-file table of ``portable_checks``;
- the argv corpus of ``portable_checks``, its config paths pointing at
  real configs.

It prints every argv whose exit code, stdout or stderr differ, then a
count, and exits 1 if any differ. It needs only the standard library
and git.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import portable_checks  # noqa: E402
from workloads import WORKLOADS, Generator  # noqa: E402

# the cycles of each workload taken, after its warm-up op
CYCLES = {"vacuum-velocity": 4, "cutoff-sweep": 2, "classical-batch": 2}

# run in each tree: argv[1] is its src/, argv[2] the corpus, argv[3] the results
_RUNNER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from vacmom import cli
with open(sys.argv[2], encoding="utf-8") as fh:
    corpus = json.load(fh)
results = []
for argv in corpus:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""

_NUMBERS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1e308, 1.7976931348623157e308, 1e-05, -1e-05, 0.5, 1.0, 2.25,
)
_GOLDEN_MATERIAL = {
    "epsilon": 2.25,
    "mu": 1.0,
    "chi": [0.0, 1e-4, 0.0, -1e-4, 0.0, 0.0, 0.0, 0.0, 0.0],
    "rho0": 1.0,
}
_CROSSED_FIELDS = {"E": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0]}


class _Corpus:
    """Argvs and the config files they name, written under one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.argvs: list[list[str]] = []
        self.parts: dict[str, int] = {}
        self._files = 0

    def file(self, content) -> str:
        """A new file holding content: bytes as they are, else as JSON."""
        self._files += 1
        path = os.path.join(self.directory, f"config-{self._files}.json")
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else json.dumps(content).encode())
        return path

    def add(self, part: str, argv: list[str]) -> None:
        self.argvs.append(argv)
        self.parts[part] = self.parts.get(part, 0) + 1


def _bench_ops(corpus: _Corpus, seed: int) -> None:
    for workload in WORKLOADS:
        generator = Generator(workload, seed, tiny=True)
        ops = [generator.warmup()]
        for cycle in range(CYCLES[workload]):
            ops += generator.cycle(cycle)
        for op in ops:
            corpus.add("bench ops", op.argv(corpus.file(op.config)))


def _number(rng: random.Random, positive: bool = False) -> float:
    if rng.random() < 0.4:
        x = rng.choice(_NUMBERS)
    else:
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 12.0)
    # now and then a value the schema must reject
    return abs(x) if positive and rng.random() < 0.9 else x


def _vector(rng: random.Random) -> list[float]:
    return [_number(rng) for _ in range(3)]


def _spelled(rng: random.Random, option: str, value: str) -> list[str]:
    return [f"{option}={value}"] if rng.random() < 0.5 else [option, value]


def _random_run(rng: random.Random) -> tuple[str, dict, list[str]]:
    cfg = {
        "material": {
            "epsilon": _number(rng, positive=True),
            "mu": _number(rng, positive=True),
            "chi": [_number(rng) * 1e-3 for _ in range(9)],
            "rho0": _number(rng, positive=True),
        }
    }
    command = rng.choice(portable_checks.SUBCOMMANDS)
    options = []
    if command == "transform":
        if rng.random() < 0.7:
            cfg["boost"] = {"beta": rng.uniform(-0.99, 0.99)}
        else:
            betas = [rng.uniform(-0.99, 0.99) for _ in range(3)]
            cfg["sweep"] = {"parameter": "beta", "values": betas}
        if rng.random() < 0.3:
            beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 0.0)
            options.append(_spelled(rng, "--beta", repr(beta)))
    elif command == "expand-check" or (command == "velocity" and rng.random() < 0.5):
        cfg["fields"] = {"E": _vector(rng), "B": _vector(rng)}
        if command == "expand-check" and rng.random() < 0.3:
            grid = sorted(10.0 ** rng.uniform(-6.0, -1.0) for _ in range(4))
            cfg["sweep"] = {"parameter": "beta", "values": grid}
    else:
        cfg["vacuum"] = {
            "grid_n": rng.randint(2, 6),
            "cutoff": _number(rng, positive=True),
            "volume": _number(rng, positive=True),
        }
        if command == "vacuum-sweep":
            if rng.random() < 0.5:
                factors = sorted(rng.sample((1.0, 1.5, 2.0, 3.0), rng.randint(1, 3)))
                values = [cfg["vacuum"]["cutoff"] * f for f in factors]
                cfg["sweep"] = {"parameter": "cutoff", "values": values}
            else:
                grids = [rng.randint(2, 6) for _ in range(2)]
                cfg["sweep"] = {"parameter": "grid_n", "values": grids}
        if rng.random() < 0.3:
            options.append(_spelled(rng, "--cutoff", repr(_number(rng, positive=True))))
    options.append(_spelled(rng, "--format", rng.choice(("csv", "json"))))
    rng.shuffle(options)
    return command, cfg, [token for option in options for token in option]


def _random_configs(corpus: _Corpus, rng: random.Random, count: int) -> None:
    for _ in range(count):
        command, cfg, flags = _random_run(rng)
        corpus.add("random configs", [command, corpus.file(cfg), *flags])


def _file_faults(corpus: _Corpus) -> None:
    valid = {"material": _GOLDEN_MATERIAL, "boost": {"beta": 0.1}, "fields": _CROSSED_FIELDS}
    text = json.dumps(valid).encode()
    faults = {
        "missing": os.path.join(corpus.directory, "missing.json"),
        "directory": corpus.directory,
        "empty": corpus.file(b""),
        "truncated": corpus.file(text[: len(text) // 2]),
        "bom": corpus.file(b"\xef\xbb\xbf" + text),
        "null": corpus.file(b"null"),
        "list": corpus.file(b"[]"),
        "nan": corpus.file(text.replace(b"2.25", b"NaN", 1)),
        **{
            case: corpus.file(content)
            for case, (content, _) in portable_checks.MALFORMED_FILES.items()
        },
    }
    for path in faults.values():
        for command in ("transform", "expand-check"):
            corpus.add("file faults", [command, path])


def _argv_corpus(corpus: _Corpus, seed: int, count: int) -> None:
    vacuum = {"grid_n": 4, "cutoff": 1e5, "volume": 1.0}
    real = {
        "config.json": corpus.file(
            {
                "material": _GOLDEN_MATERIAL,
                "boost": {"beta": 0.1},
                "fields": _CROSSED_FIELDS,
                "vacuum": vacuum,
            }
        ),
        "other.json": corpus.file(
            {
                "material": _GOLDEN_MATERIAL,
                "fields": _CROSSED_FIELDS,
                "vacuum": vacuum,
                "sweep": {"parameter": "cutoff", "values": [1e5, 2e5]},
            }
        ),
    }
    for argv in portable_checks.argv_corpus(seed, count):
        corpus.add("argvs", [real.get(token, token) for token in argv])


def _run(tree_src: str, corpus_path: str, results_path: str) -> list:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["COLUMNS"] = "80"
    subprocess.run(
        [sys.executable, "-c", _RUNNER, tree_src, corpus_path, results_path],
        check=True,
        env=env,
        cwd=os.path.dirname(tree_src),
    )
    with open(results_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="the git revision to compare against, e.g. HEAD~1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--count", type=int, default=2000, help="argvs; a quarter as many random configs"
    )
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = _Corpus(os.path.join(tmp, "corpus"))
        os.makedirs(corpus.directory)
        _bench_ops(corpus, args.seed)
        _random_configs(corpus, random.Random(f"configs/{args.seed}"), args.count // 4)
        _file_faults(corpus)
        _argv_corpus(corpus, args.seed, args.count)
        corpus_path = os.path.join(tmp, "corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as fh:
            json.dump(corpus.argvs, fh)

        worktree = os.path.join(tmp, "rev")
        subprocess.run(
            ["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", worktree, args.rev],
            check=True,
        )
        try:
            theirs = _run(
                os.path.join(worktree, "src"), corpus_path, os.path.join(tmp, "rev.json")
            )
        finally:
            subprocess.run(
                ["git", "-C", ROOT, "worktree", "remove", "--force", worktree], check=True
            )
        ours = _run(os.path.join(ROOT, "src"), corpus_path, os.path.join(tmp, "tree.json"))

    differences = 0
    for argv, a, b in zip(corpus.argvs, theirs, ours):
        fields = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        if fields:
            differences += 1
            print(f"{argv!r}: {', '.join(fields)} differ: {args.rev} {a!r}, this tree {b!r}")
    parts = ", ".join(f"{n} {part}" for part, n in corpus.parts.items())
    print(f"{len(corpus.argvs)} argvs ({parts}): {differences} differ from {args.rev}")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
