"""Spans around the calls into each vacmom layer, recorded from outside.

``Tracer.install`` replaces public functions in the globals of the
vacmom modules that call them (``cli.load_config``, ``cli.build_mode_set``,
``vacuum.build_mode_set``, ``lagrangian.transform_constants``, ...) with
wrappers that record a span: name, start, end, parent span and op id.
``uninstall`` puts the originals back, so untraced ops run the library
exactly as shipped. A span's name is ``<layer>.<function>``, the layer
being the module that defines the function. ``algebra`` gets no span:
its cost lands in the self time of its callers.

Spans stay in memory until ``write_csv``; ``summary`` reduces them to
per-name call counts, total and self time (span minus the child spans
it covers), plus the counts the per-layer metrics need.
"""

from __future__ import annotations

import csv
import importlib
import time

LAYERS = ("cli", "config", "relativity", "lagrangian", "momentum", "vacuum")

# module -> public names it calls that belong to another layer
TARGETS = {
    "vacmom.cli": (
        "load_config",
        "transform_constants",
        "index_of",
        "verify_expansion",
        "medium_velocity",
        "velocity_from_bilinears",
        "build_mode_set",
        "vacuum_bilinears",
        "cutoff_sweep",
        "scaling_slopes",
    ),
    "vacmom.vacuum": ("build_mode_set", "vacuum_bilinears"),
    "vacmom.lagrangian": ("transform_constants", "transform_fields"),
    "vacmom.momentum": ("velocity_from_bilinears",),
}

ROOT = "cli.main"
_clock = time.perf_counter_ns


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index, op id, note]
        # note is the mode_count a vacuum sum returned, or the name of
        # the exception the call raised
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = _clock()
                stack.pop()
            span[5] = getattr(result, "mode_count", None)
            return result

        return traced

    def install(self) -> None:
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name(fn), fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict:
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names: dict[str, list[int]] = {}
        modes = rejects = 0
        for i, (name, start, end, _, _, note) in enumerate(self.spans):
            calls_total_self = names.setdefault(name, [0, 0, 0])
            calls_total_self[0] += 1
            calls_total_self[1] += end - start
            calls_total_self[2] += end - start - child_ns[i]
            if name == "vacuum.vacuum_bilinears" and isinstance(note, int):
                modes += note
            if name == "config.load_config" and note == "ConfigError":
                rejects += 1
        return {"names": names, "modes": modes, "rejects": rejects}

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_ns", "end_ns", "parent", "op", "note"))
            for i, span in enumerate(self.spans):
                writer.writerow((i, *span))
