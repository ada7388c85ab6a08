"""One workload process: set up, run timed ops in a closed loop, report.

Started by ``run.py``; not meant to be run by hand. The process pays
what a CLI user pays once per invocation (interpreter start, ``import
vacmom.cli``), writes its warm-up config and runs one warm-up op, then
reports its set-up time measured from ``--t0``, a CLOCK_MONOTONIC
reading the parent took just before starting it.

Each timed op is one in-process ``vacmom.cli.main(argv)`` call on a
freshly written config, stdout and stderr captured. Only that call is
timed; writing the config and the oracle checks happen outside it.
Between ops, at least every ``CHECK_EVERY_NS`` of op wall time, the
reference kernel of ``speed.py`` is timed; ``run.py`` scales each op's
time to the reference speed with the kernel runs just before and just
after it. Ops run in whole cycles, at least ``--min-cycles`` of them,
until ``--seconds`` have passed or ``--max-cycles`` are done. With ``--trace
1`` the even cycles run with the tracer installed and the odd ones
without, so one run gives both the spans and the tracing overhead.

The last line on stdout is one JSON object with the samples and counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

from oracles import check
from spans import ROOT, Tracer
from speed import kernel_ns, scale
from workloads import WORKLOADS, Generator


CHECK_EVERY_NS = 100_000_000  # longest op wall between two kernel runs


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--first-cycle", type=int, default=0)
    p.add_argument("--min-cycles", type=int, default=1)
    p.add_argument("--max-cycles", type=int, default=1 << 30)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--inject", choices=("ulp", "exit0"), default=None)
    return p.parse_args(argv)


def _inject(cli, fault: str) -> None:
    """Plant a known defect so the self-test can see the oracles catch it."""
    if fault == "ulp":
        import dataclasses

        from vacmom import Vec3, vacuum

        original = vacuum.vacuum_bilinears

        def up(x):
            if isinstance(x, Vec3):
                return Vec3(*(math.nextafter(c, math.inf) for c in x.as_tuple()))
            return math.nextafter(x, math.inf) if isinstance(x, float) else x

        def perturbed(ms, m):
            sums = original(ms, m)
            return dataclasses.replace(
                sums, **{f.name: up(getattr(sums, f.name)) for f in dataclasses.fields(sums)}
            )

        vacuum.vacuum_bilinears = cli.vacuum_bilinears = perturbed
    elif fault == "exit0":
        original_main = cli.main

        def lenient(argv=None):
            code = original_main(argv)
            return 0 if code == 2 else code

        cli.main = lenient


class _Loop:
    def __init__(self, args, cli):
        self.args = args
        self.cli = cli
        self.gen = Generator(args.workload, args.seed, tiny=args.tiny)
        self.tracer = Tracer() if args.trace else None
        self.traced_main = self.tracer.wrap(ROOT, cli.main) if self.tracer else None
        self.configs = os.path.join(args.workdir, f"configs-{os.getpid()}")
        os.makedirs(self.configs, exist_ok=True)
        self.latency_ns: list[int] = []
        self.kernel_ns: list[int] = []  # reference kernel runs, in order
        self.checkpoint_of: list[int] = []  # per op: kernel run just before it
        self.checked_at = 0
        self.traced: list[bool] = []
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.first: tuple | None = None
        self.cycles = 0

    def execute(self, op, name: str, traced: bool = False):
        """Write the op's config, run it once, return (exit code, stdout, ns)."""
        path = os.path.join(self.configs, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)
        main = self.traced_main if traced else self.cli.main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = main(op.argv(path))
            except Exception as exc:  # a traceback is a failed op, not a crash
                code = f"uncaught {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
        os.remove(path)
        return code, out.getvalue(), elapsed

    def record(self, op, code, stdout: str, label: str) -> None:
        problems = check(op, code, stdout)
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label} {op.command} {' '.join(op.flags)}: {problems[0]}")

    def checkpoint(self) -> None:
        self.kernel_ns.append(kernel_ns())
        self.checked_at = time.perf_counter_ns()

    def scales(self) -> list[float]:
        """Per op, the factor to the reference speed (see ``speed.py``)."""
        k = self.kernel_ns
        return [scale(k[c], k[c + 1]) for c in self.checkpoint_of]

    def warmup(self) -> None:
        op = self.gen.warmup()
        code, stdout, _ = self.execute(op, "warmup.json")
        problems = check(op, code, stdout)
        if problems:
            self.errors.append(f"warm-up op: {problems[0]}")

    def run(self) -> None:
        args = self.args
        cycle = args.first_cycle
        start = time.perf_counter_ns()
        op_id = 0
        while True:
            traced = self.tracer is not None and cycle % 2 == 0
            gc.collect()
            if traced:
                self.tracer.install()
            for i, op in enumerate(self.gen.cycle(cycle)):
                if traced:
                    self.tracer.op = op_id
                if time.perf_counter_ns() - self.checked_at >= CHECK_EVERY_NS:
                    self.checkpoint()
                self.checkpoint_of.append(len(self.kernel_ns) - 1)
                code, stdout, elapsed = self.execute(op, f"c{cycle}-{i}.json", traced)
                self.latency_ns.append(elapsed)
                self.traced.append(traced)
                self.record(op, code, stdout, f"cycle {cycle} op {i}")
                if cycle < args.first_cycle + args.min_cycles:
                    self.digest.update(f"{code}\n".encode())
                    self.digest.update(stdout.encode())
                if self.first is None:
                    self.first = (op, code, stdout)
                op_id += 1
            if traced:
                self.tracer.uninstall()
            cycle += 1
            done = self.cycles = cycle - args.first_cycle
            if done >= args.max_cycles:
                break
            if done >= args.min_cycles and time.perf_counter_ns() - start >= args.seconds * 1e9:
                break
        self.checkpoint()

    def replay_first(self) -> None:
        """Run the first timed op again, untraced: its output must not change."""
        op, code, stdout = self.first
        again = self.execute(op, "replay.json")
        if again[:2] != (code, stdout):
            self.errors.append("replay of the first op gave different output")


def main(argv=None) -> int:
    args = _parse_args(argv)
    import vacmom.cli as cli

    if args.inject:
        _inject(cli, args.inject)
    loop = _Loop(args, cli)
    loop.warmup()
    setup_s = (_now_ns() - args.t0) / 1e9
    result = {"setup_s": setup_s, "errors": loop.errors}
    if not args.setup_only:
        loop.run()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.first_cycle == 0:
            loop.replay_first()
        result.update(
            latency_ns=loop.latency_ns,
            scale=loop.scales(),
            kernel_ns=loop.kernel_ns,
            traced=loop.traced,
            failed=loop.failed,
            digest=loop.digest.hexdigest(),
            peak_rss_kb=rss_kb,
            cycles=loop.cycles,
        )
        if loop.tracer is not None:
            result["trace"] = loop.tracer.summary()
            loop.tracer.write_csv(
                os.path.join(args.workdir, f"spans-{args.first_cycle}.csv")
            )
    os.rmdir(loop.configs)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
