"""Spans and counters recorded from outside the program.

`Tracer.installed()` wraps every public function of the program's modules in
every module namespace that holds it (a function imported into another
module is wrapped there too), and restores the originals on exit. Spans are
kept in memory as (name, start, end, parent, op) and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "lie_algebra", "dynamics", "optimal_control", "scenarios",
          "csvio", "cli")


def _arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Counters read at a span's boundary: (counters, fn, args, kwargs, result).
def _count_shoot(c, fn, a, k, result):
    c["optimal_control.shoot.rk4_steps"] += _arg(fn, "prob", a, k).steps


def _count_solve_bvp(c, fn, a, k, sol):
    c["optimal_control.newton_iters"] += sol.iterations
    c["optimal_control.restarts_used"] += sol.restart_used


def _count_scenario(c, fn, a, k, report):
    c["scenarios.segments"] += len(report.solution.segments())


def _count_propagate(c, fn, a, k, result):
    c["dynamics.propagate_state.steps"] += _arg(fn, "steps", a, k)


def _count_csv_write(c, fn, a, k, result):
    c["csvio.bytes_written"] += os.path.getsize(_arg(fn, "path", a, k))


HOOKS = {
    "optimal_control.shoot": _count_shoot,
    "optimal_control.solve_bvp": _count_solve_bvp,
    "scenarios.run_densify": _count_scenario,
    "scenarios.run_swap": _count_scenario,
    "dynamics.propagate_state": _count_propagate,
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op index]
        self.counters = Counter()
        self.op = -1         # index of the CLI operation being run
        self._stack = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if hook is None and name.startswith("csvio.write_"):
            hook = _count_csv_write

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self.counters, fn, args, kwargs, result)
                except (TypeError, KeyError, AttributeError, OSError):
                    # the program changed the signature or result a counter reads
                    self.counters["spans.hook_errors"] += 1
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap the public functions of every layer while the block runs."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for fname, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not fname.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        patched = []
        for ns in [package] + modules:
            for attr, val in list(vars(ns).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    patched.append((ns, attr, val))
                    setattr(ns, attr, wrappers[id(val)][1])
        try:
            yield self
        finally:
            for ns, attr, val in patched:
                setattr(ns, attr, val)

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[idx]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)
