"""Machine speed, measured with a fixed reference kernel next to the ops.

The benchmark was built on 2 vCPUs shared with other tenants. There the
speed of plain Python code drifts by ±20 % within seconds and by more
over minutes, on both vCPUs at once, and process CPU time drifts with
it (the slowdown is not time spent waiting for a CPU). Medians of whole
60-second runs still spread by about 20 % between runs. The drift is
common to all code: a fixed pure-Python kernel timed next to each op
slows down by nearly the same factor as the op.

So the timed end-to-end figures are reported at a fixed reference
speed: each raw time is multiplied by ``REFERENCE_NS / kernel``, where
``kernel`` is the mean of the kernel runs just before and just after
it (``scale``). ``REFERENCE_NS`` is about the fastest the kernel ran on
the machine above, so the figures read as times on its idle vCPUs. Raw
wall-clock figures are printed in the report beside them.

The kernel has two parts, object-and-float work like vacmom's per-mode
loops and text work like its CLI (formatting, regex, dicts); together
they track both the vacuum and the millisecond workloads. It does not
touch vacmom, so no change to the library can move it. It runs with the
garbage collector off and keeps nothing, so that neither the size of
the program's heap nor its allocation history can change its time.
"""

from __future__ import annotations

import gc
import math
import re
import time

REFERENCE_NS = 9_000_000  # kernel time at the reference speed
OBJECT_STEPS = 4000
TEXT_STEPS = 3000

_OPTION = re.compile(r"--([a-z_]+)(\d)=(.*)")


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x = x
        self.y = y
        self.z = z

    def dot(self, o: "_Point") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o: "_Point") -> "_Point":
        return _Point(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )


def _objects(steps: int) -> float:
    # object creation, attribute access, method calls and float math:
    # what vacmom's per-mode loops are made of
    acc = 0.0
    a = _Point(0.1, 0.2, 0.3)
    for i in range(steps):
        b = _Point(i * 0.5, 1.0 - i, math.sqrt(i + 1.0))
        c = a.cross(b)
        acc += c.dot(b) + abs(c.x)
    return acc


def _text(steps: int) -> dict:
    # formatting, regex matching, parsing and dicts: what the CLI's
    # argument parsing, config loading and output are made of
    table: dict[str, float] = {}
    for i in range(steps):
        line = f"--key_{'abcdefg'[i % 7]}{i % 3}={i * 0.37:.6g}"
        m = _OPTION.match(line)
        key = m.group(1) + m.group(2)
        table[key] = table.get(key, 0.0) + float(m.group(3))
        if i % 50 == 0:
            ",".join(f"{k}:{v!r}" for k, v in sorted(table.items()))
    return table


def kernel_ns() -> int:
    """Time one run of the reference kernel, in nanoseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _objects(OBJECT_STEPS)
        _text(TEXT_STEPS)
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(before_ns: int, after_ns: int) -> float:
    """Factor that brings a time measured between two kernel runs to the
    reference speed."""
    return 2.0 * REFERENCE_NS / (before_ns + after_ns)
