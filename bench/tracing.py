"""Per-layer spans and counters taken from outside the program.

:func:`installed` swaps public functions of peridyn's modules for wrappers
that record one span per call, and puts every original back on exit, so an
untraced run calls exactly the function objects the program defines.
Nothing inside the program is edited.

What is wrapped:

* every public function defined in ``quadrature``, ``operators``,
  ``analysis``, ``cli`` and ``solver``, in every peridyn namespace that
  holds it (``from .operators import corrected_operator`` in ``analysis``
  binds its own name, which is swapped too);
* ``PiecewiseField.value`` and ``PiecewiseField.value_on``, the two field
  evaluations every operator goes through.

Spans nest on one stack, which holds because the benchmark runs every study
with one worker thread; a traced call from another thread raises.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from peridyn import analysis, cli, fields, operators, quadrature, solver

MODULES = {
    "quadrature": quadrature,
    "operators": operators,
    "analysis": analysis,
    "cli": cli,
    "solver": solver,
}
FIELD_METHODS = ("value", "value_on")
# layers whose outermost spans also take kernel time and minor page faults
RUSAGE_LAYERS = ("operators", "solver")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("quadrature.build_s", "s", "lower"),
    ("quadrature.rules", "count", "lower"),
    ("fields.eval_s", "s", "lower"),
    ("fields.points", "count", "lower"),
    ("fields.mpts_per_s", "Mpts/s", "higher"),
    ("operators.self_s", "s", "lower"),
    ("operators.evals", "count", "lower"),
    ("operators.sys_s", "s", "lower"),
    ("operators.minflt", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("solver.build_grid_s", "s", "lower"),
    ("solver.assemble_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.residual_s", "s", "lower"),
    ("solver.free_dofs", "count", "lower"),
    ("solver.minflt", "count", "lower"),
)


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def is_point_evaluator(fn) -> bool:
    """Operator evaluators take the OperatorConfig first; builders and closed
    forms do not."""
    params = inspect.signature(fn).parameters
    return next(iter(params), None) == "config"


class _Frame:
    __slots__ = ("layer", "name", "outer", "usage", "span", "child", "start")

    def __init__(self, layer, name, outer, usage, span, start):
        self.layer = layer
        self.name = name
        self.outer = outer
        self.usage = usage
        self.span = span
        self.child = 0.0
        self.start = start


class Tracer:
    """Spans of one run, and counters that :meth:`reset` clears per round."""

    def __init__(self):
        self.spans = []  # [name, parent span index or -1, start, end]
        self._stack = []
        self._depth = defaultdict(int)
        self._thread = threading.get_ident()
        self._evaluators = set()
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)  # by layer: span time minus children
        self.total_s = defaultdict(float)  # by span name, every call
        self.outer_s = defaultdict(float)  # by span name, layer-outermost calls
        self.outer_calls = defaultdict(int)
        self.sys_s = defaultdict(float)  # by layer, outermost spans
        self.minflt = defaultdict(int)
        self.points = 0
        self.evals = 0

    def _enter(self, layer, name):
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"traced call to {name} off the tracing thread")
        outer = self._depth[layer] == 0
        usage = (resource.getrusage(resource.RUSAGE_SELF)
                 if outer and layer in RUSAGE_LAYERS else None)
        parent = self._stack[-1].span if self._stack else -1
        span = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, parent, start, None])
        frame = _Frame(layer, name, outer, usage, span, start)
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        dur = end - frame.start
        self.spans[frame.span][3] = end
        self._stack.pop()
        self._depth[frame.layer] -= 1
        self.self_s[frame.layer] += dur - frame.child
        self.total_s[frame.name] += dur
        if frame.outer:
            self.outer_s[frame.name] += dur
            self.outer_calls[frame.name] += 1
            if frame.name in self._evaluators:
                self.evals += 1
        if frame.usage is not None:
            now = resource.getrusage(resource.RUSAGE_SELF)
            self.sys_s[frame.layer] += now.ru_stime - frame.usage.ru_stime
            self.minflt[frame.layer] += now.ru_minflt - frame.usage.ru_minflt
        if self._stack:
            self._stack[-1].child += dur

    def wrap(self, layer, name, fn):
        if layer == "operators" and is_point_evaluator(fn):
            self._evaluators.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def wrap_field_method(self, name, fn):
        @functools.wraps(fn)
        def wrapper(field, x, *args, **kwargs):
            self.points += _point_count(x)
            frame = self._enter("fields", name)
            try:
                return fn(field, x, *args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def metrics(self, free_dofs: int = 0) -> dict:
        """This round's per-layer metrics, named as in :data:`PER_LAYER`."""
        builds = [n for n in self.outer_s if n.startswith("quadrature.build_")]
        eval_s = self.self_s["fields"]
        residual_s = self.total_s["solver.residual_check"]
        values = {
            "quadrature.build_s": sum(self.outer_s[n] for n in builds),
            "quadrature.rules": sum(self.outer_calls[n] for n in builds),
            "fields.eval_s": eval_s,
            "fields.points": self.points,
            "fields.mpts_per_s": self.points / eval_s / 1e6 if eval_s > 0 else 0.0,
            "operators.self_s": self.self_s["operators"],
            "operators.evals": self.evals,
            "operators.sys_s": self.sys_s["operators"],
            "operators.minflt": self.minflt["operators"],
            "analysis.self_s": self.self_s["analysis"],
            "cli.self_s": self.self_s["cli"],
            "solver.build_grid_s": self.total_s["solver.build_grid"],
            "solver.assemble_s": self.total_s["solver.assemble"],
            "solver.solve_s": self.total_s["solver.solve_equilibrium"] - residual_s,
            "solver.residual_s": residual_s,
            "solver.free_dofs": free_dofs,
            "solver.minflt": self.minflt["solver"],
        }
        return {name: values[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, f)
            f.write("\n")


def _point_count(x) -> int:
    # fields take points of shape (..., 3)
    return int(np.size(x)) // 3


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "peridyn" or name.startswith("peridyn."))]


@contextmanager
def installed(tracer: Tracer):
    """Run the block with every traced function wrapped; restore on exit."""
    swaps = []  # (owner, attribute, original)
    try:
        namespaces = _namespaces()
        for layer, module in MODULES.items():
            for name, fn in public_functions(module).items():
                wrapped = tracer.wrap(layer, f"{layer}.{name}", fn)
                for owner in namespaces:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            swaps.append((owner, attr, fn))
                            setattr(owner, attr, wrapped)
        for name in FIELD_METHODS:
            original = vars(fields.PiecewiseField)[name]
            swaps.append((fields.PiecewiseField, name, original))
            setattr(fields.PiecewiseField, name,
                    tracer.wrap_field_method(f"fields.{name}", original))
        yield tracer
    finally:
        for owner, attr, original in reversed(swaps):
            setattr(owner, attr, original)
