"""Outside-in tracing of the oscimax layers.

`install` wraps every public function, and every public method and property
of every public class, defined in the seven library modules.  It rebinds each
alias that another layer or the package imported under its own name, and it
wraps the CLI's experiment runners.  Each call records one span (name,
start, end, parent).  Work counts are computed from call arguments while the
span clock is paused, so no span pays for them.

Nothing here edits the library on disk; the wrapping lives only in the
traced child process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

import numpy as np

LAYERS = ("torus", "symbols", "quadrature", "operators", "hardy", "extrapolation", "cli")


# name -> function(bound arguments) -> {counter: increment}.  A "key" entry
# (the whole argument tuple) goes into a per-function set of distinct calls.
def _elements(b):
    return {"elements": int(np.size(b["lam"]))}


def _mu_symbol(b):
    lam = np.asarray(b["lam"], dtype=float)
    return {"elements": int(lam.size), "distinct": int(np.unique(np.abs(lam)).size)}


def _points(b):
    grid = b["F"].grid
    return {"points": int(grid.spatial_points_per_axis**grid.dimension)}


def _kernel_sum(b):
    return {"terms": int(b["M_cap"]), "key": tuple(b.values())}


def _distinct_calls(b):
    return {"key": tuple(b.values())}


COUNTERS = {
    "symbols.phi_cutoff": _elements,
    "symbols.mu_symbol": _mu_symbol,
    "torus.inverse_transform": _points,
    "operators.kernel_lattice_sum": _kernel_sum,
    "quadrature.fourier_cosine_mu_derivative": _distinct_calls,
    "quadrature.fourier_cosine_mu_dyadic": _distinct_calls,
}


class Tracer:
    """In-memory span recorder with a clock that excludes counting time."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self._stack: list[int] = []
        self._paused = 0.0
        self.counts: dict[str, dict[str, int]] = {}
        self.distinct: dict[str, set] = {}

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _count(self, name, counter, signature, args, kwargs):
        t0 = time.perf_counter()
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        totals = self.counts.setdefault(name, {})
        for counter_name, value in counter(bound.arguments).items():
            if counter_name == "key":
                self.distinct.setdefault(name, set()).add(value)
            else:
                totals[counter_name] = totals.get(counter_name, 0) + value
        self._paused += time.perf_counter() - t0

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self._count(name, counter, signature, args, kwargs)
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()

        return traced

    def dump(self, op_id: str) -> dict:
        counts = {name: dict(c) for name, c in self.counts.items()}
        for name, keys in self.distinct.items():
            counts.setdefault(name, {})["distinct_calls"] = len(keys)
        return {"op": op_id, "names": self.names, "spans": self.spans, "counts": counts}


def _public(name: str) -> bool:
    return not name.startswith("_")


def install(tracer: Tracer) -> None:
    """Wrap the seven layers in place, recording into `tracer`."""
    package = importlib.import_module("oscimax")
    modules = {layer: importlib.import_module(f"oscimax.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}

    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if not _public(attr) or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, types.FunctionType):
                wrapped = tracer.wrap(f"{layer}.{attr}", value)
                replaced[id(value)] = wrapped
                setattr(module, attr, wrapped)
            elif isinstance(value, type):
                _wrap_class(tracer, f"{layer}.{attr}", value)

    # aliases: `from .x import y` names in every layer and in the package
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)

    cli = modules["cli"]
    for experiment, runner in list(cli.RUNNERS.items()):
        cli.RUNNERS[experiment] = tracer.wrap(f"cli.run.{experiment}", runner)


def _wrap_class(tracer: Tracer, prefix: str, cls: type) -> None:
    for attr, value in list(vars(cls).items()):
        if not _public(attr):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(value, types.FunctionType):
            setattr(cls, attr, tracer.wrap(name, value))
        elif isinstance(value, property):
            setattr(cls, attr, property(tracer.wrap(name, value.fget), value.fset, value.fdel, value.__doc__))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(names: list[str], spans: list[list]) -> tuple[dict, dict, dict]:
    """Per-function self time (duration minus direct child spans), inclusive
    time (outermost spans of each name) and call count."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        dur = end - start
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            incl_s[name] = incl_s.get(name, 0.0) + dur
    return self_s, incl_s, calls
