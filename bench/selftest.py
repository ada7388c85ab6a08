"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

Checks that
  * every workload prints every metric of BENCHMARK.json with its unit,
    untraced and traced, and passes its oracles on the current code;
  * the stdout digest repeats for one seed, traced or not, so the
    tracing wrappers change no output;
  * a vacuum_bilinears perturbed by one ulp is rejected by the oracles;
  * an invalid config that exits 0 is counted in fail_ratio;
  * the traced counts match what the generator made;
  * without the library sources the benchmark fails without a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SECONDS = {"vacuum-velocity": "1", "cutoff-sweep": "3", "classical-batch": "1"}
SEED = "7"

_failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        _failures.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: str = REPO):
    command = [
        sys.executable, os.path.join(cwd, "bench", "run.py"),
        "--workload", workload, "--seed", SEED,
        "--seconds", SECONDS[workload], "--trace", str(trace), "--tiny", *extra,
    ]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(
        [w["name"] for w in spec["workloads"]]
        == ["vacuum-velocity", "cutoff-sweep", "classical-batch"],
        "BENCHMARK.json names the three workloads",
    )

    digests = {}
    for workload in SECONDS:
        for trace in (0, 1):
            code, report, result = bench(workload, trace)
            label = f"{workload} trace={trace}"
            expect(code == 0 and result is not None, f"{label}: exit 0 with a result")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0, f"{label}: all oracles pass")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == wanted[trace], f"{label}: every metric printed with its unit")
            expect(
                all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                f"{label}: every value is a finite number",
            )
            digests[workload, trace] = report["digest"]
            if trace == 1:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                if workload == "classical-batch":
                    expect(values["vacuum.calls"] == 0.0, f"{label}: vacuum layer never runs")
                    # one exit-2 config per 40-op cycle, all rejected by load_config
                    expect(values["config.rejects"] == 1 / 40, f"{label}: config.rejects = generated invalid configs")
                else:
                    expect(values["vacuum.modes"] > 0, f"{label}: vacuum modes counted")
        code, report, _ = bench(workload, 0)
        expect(
            report is not None
            and report["digest"] == digests.get((workload, 0)) == digests.get((workload, 1)),
            f"{workload}: digest repeats across runs and with tracing",
        )

    code, _, result = bench("cutoff-sweep", 0, "--inject", "ulp")
    expect(
        result is not None and not result["correct"] and result["failed"] > 0,
        "vacuum_bilinears off by one ulp is rejected by the oracles",
    )
    # The velocity row hides the perturbation from the oracles: pref * 5e-324
    # underflows to 0 in the am and mu terms, and 1 ulp in chi_E is far inside
    # the closed-form tolerance. The printed bytes still change.
    code, report, _ = bench("vacuum-velocity", 0, "--inject", "ulp")
    expect(
        report is not None and report["digest"] != digests.get(("vacuum-velocity", 0)),
        "vacuum_bilinears off by one ulp changes the vacuum-velocity digest",
    )
    code, _, result = bench("classical-batch", 1, "--inject", "exit0")
    expect(
        result is not None and result["metrics"]["fail_ratio"]["value"] > 0,
        "an invalid config that exits 0 raises fail_ratio",
    )

    bare = os.path.join(HERE, ".work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    code, _, result = bench("classical-batch", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "without src/vacmom: non-zero exit, no result")

    print(f"{len(_failures)} check(s) failed" if _failures else "all checks passed")
    return 1 if _failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
