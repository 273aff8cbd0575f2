"""Span tracing for the benchmark, applied from outside the package.

``Tracer.install`` replaces every public module-level function of the
traced ``nwaybs`` modules with a wrapper that records one span per call.
The replacement is made in every module namespace that holds a reference
to the function (``quantum`` imports ``ideal_transfer`` by name, the
package ``__init__`` re-exports everything), so calls between modules are
seen as well.  ``uninstall`` restores the originals, so untraced passes run
the package exactly as shipped.

Spans are kept in memory in flat arrays (name, start, end, parent, task)
and can be written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from array import array

# Modules whose public functions are wrapped, in package order.  The ``cli``
# layer runs in child processes; its span is recorded around the subprocess.
TRACED_MODULES = ("dispersion", "transfer", "propagation", "quantum", "oracle", "fitting")
LAYERS = TRACED_MODULES + ("cli",)


def _rk4_steps(args, kwargs):
    # same step count as propagation.rk4_integrate(rhs, y0, z_end, step)
    z_end = kwargs.get("z_end", args[2] if len(args) > 2 else None)
    step = kwargs.get("step", args[3] if len(args) > 3 else None)
    return max(1, int(math.ceil(z_end / step - 1e-12)))


def _phi_points(args, kwargs):
    phis = kwargs.get("phis", args[1] if len(args) > 1 else ())
    return len(phis)


# Work counted at the call boundary, from the arguments: span name -> counter.
ARG_COUNTERS = {
    "propagation.rk4_integrate": ("propagation.rk4_steps", _rk4_steps),
    "quantum.correlation_curve": ("quantum.points", _phi_points),
}

# Fit outcomes read from the returned FitResult.
FIT_FUNCTIONS = ("fitting.fit_phase_scale", "fitting.fit_zeta")


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.fits = 0
        self.fits_converged = 0
        self.task_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = ARG_COUNTERS.get(name)
        is_fit = name in FIT_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if is_fit:
                self.fits += 1
                self.fits_converged += bool(result.converged)
                self.counts["fitting.nfev_total"] = (
                    self.counts.get("fitting.nfev_total", 0) + int(result.iterations))
            return result

        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced module, everywhere referenced."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("nwaybs")
        modules = [importlib.import_module(f"nwaybs.{m}") for m in TRACED_MODULES]
        targets = {}
        for short, mod in zip(TRACED_MODULES, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    if id(obj) not in self._wrapped:
                        self._wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                    targets[id(obj)] = obj
        for ns in [package] + modules:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in targets and targets[id(obj)] is obj:
                    self._originals.append((ns, attr, obj))
                    setattr(ns, attr, self._wrapped[id(obj)])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._originals):
            setattr(ns, attr, obj)
        self._originals = []

    # -- analysis -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per-layer call count and self time (span time minus child spans)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            layer = out.get(layer_of[self.name[i]])
            if layer is None:
                continue
            layer["calls"] += 1
            layer["self_s"] += (self.end[i] - self.start[i]) - child[i]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i], "task": self.task[i],
                }) + "\n")
