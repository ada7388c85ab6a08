"""Planted faults in the library, and a runner that checks the tests fail on each.

    python tests/mutants.py

Each row of ``MUTANTS`` names a file of the repository, a piece of its
text that occurs there exactly once, the text that replaces it, and the
test files that should fail on the result. For each row the runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies the one replacement there, and runs
``python -m pytest -x -q`` on the named files in that copy.
pyproject.toml's ``pythonpath = ["src"]`` puts the copy's own ``src``
first, so the patched library is the one imported.
A run with a failing test (pytest exit 1) kills the mutant; a passing
run lets it survive. Any other exit, such as a collection error, is an
error of the run and kills nothing: the copy holds no README.md and no
``bench/``, so the tests that read those cannot be named.

A row marked equivalent gives the reason no test can kill it: the
change leaves every result the same. Such a row still runs, and its
line says whether it survived.

It prints one line per row and exits 1 if a row's text does not occur
exactly once, if a run ends in an error, or if a mutant not marked
equivalent survives. It needs the standard library, plus pytest and
the test extras in the runs it starts. ``tests/test_mutants.py``
checks the table against today's source without running it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    equivalent: str | None = None


VACUUM = "src/vacmom/vacuum.py"

MUTANTS = (
    # the sweep's magnitude pass
    Mutant(
        "sweep |B x chi B| of pair 3 takes pair 4's z",
        VACUUM,
        "hypot(b3x, b3y, b3z)",
        "hypot(b3x, b3y, b4z)",
        ("tests/test_vacuum.py",),
    ),
    Mutant(
        "sweep |E x B| left out of pair 2",
        VACUUM,
        "e2z, b2z, ex2, bx2, bce2, exb, zpe,",
        "e2z, b2z, ex2, bx2, bce2, 0.0, zpe,",
        ("tests/test_vacuum.py",),
    ),
    Mutant(
        "sweep energy doubled in pair 4",
        VACUUM,
        "e4z, b4z, ex4, bx4, bce4, exb, zpe,",
        "e4z, b4z, ex4, bx4, bce4, exb, 2.0 * zpe,",
        ("tests/test_vacuum.py",),
    ),
    Mutant(
        "sweep odd channel e_cross_b_z is -0.0",
        VACUUM,
        "SweepSums(4 * pairs, zpe, 0.0, ez, bz, 0.0,",
        "SweepSums(4 * pairs, zpe, -0.0, ez, bz, 0.0,",
        ("tests/test_vacuum.py",),
    ),
    # the velocity equation, the first-order density and the boost
    Mutant(
        "mu_term_z with its sign flipped",
        "src/vacmom/momentum.py",
        "mu_term_z = -pref * (n - 1.0 / n)",
        "mu_term_z = pref * (n - 1.0 / n)",
        ("tests/test_momentum.py",),
    ),
    Mutant(
        "mu_term_z with n + 1/n",
        "src/vacmom/momentum.py",
        "-pref * (n - 1.0 / n)",
        "-pref * (n + 1.0 / n)",
        ("tests/test_momentum.py",),
    ),
    Mutant(
        "first-order stretch n + 1/n",
        "src/vacmom/lagrangian.py",
        "return zeroth, bce, bracket, n - 1.0 / n",
        "return zeroth, bce, bracket, n + 1.0 / n",
        ("tests/test_lagrangian.py",),
    ),
    Mutant(
        "velocity addition with n - beta",
        "src/vacmom/relativity.py",
        "factor = (n + beta) / denom",
        "factor = (n - beta) / denom",
        ("tests/test_relativity.py",),
    ),
    # the grid
    Mutant(
        "strict cutoff filter in the lattice",
        VACUUM,
        "if 0.0 < math.hypot(x * s, y * s, z * s) <= cutoff",
        "if 0.0 < math.hypot(x * s, y * s, z * s) < cutoff",
        ("tests/test_vacuum.py",),
    ),
    Mutant(
        "zero-point energy per mode doubled",
        VACUUM,
        "zpe_per_k = HBAR * C_LIGHT / n",
        "zpe_per_k = 2.0 * HBAR * C_LIGHT / n",
        ("tests/test_vacuum.py",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the row's old text occurs in its file today."""
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        return fh.read().count(mutant.old)


def run(mutant: Mutant) -> int:
    """pytest's exit code on a copy with the mutant applied: 1 if a test
    failed, 0 if all passed, and otherwise an error of the run itself."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="vacmom-mutant-") as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"), ignore=ignore)
        shutil.copytree(os.path.join(ROOT, "tests"), os.path.join(tmp, "tests"), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        target = os.path.join(tmp, mutant.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    return result.returncode


def main() -> int:
    failed = False
    for mutant in MUTANTS:
        count = occurrences(mutant)
        if count != 1:
            print(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
            failed = True
            continue
        start = time.perf_counter()
        code = run(mutant)
        status = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        line = f"{mutant.name}: {status} in {time.perf_counter() - start:.1f} s"
        if mutant.equivalent:
            line += f" (equivalent: {mutant.equivalent})"
        if code > 1 or (code == 0 and not mutant.equivalent):
            failed = True
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
