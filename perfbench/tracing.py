"""In-memory span tracing around navlim's module boundaries.

`Tracer.install` replaces every public function of the traced navlim modules
with a recording wrapper, at every import site: a function defined in
`models` and imported into `navinfo` and the `navlim` package gets the same
wrapper under each name, so a call through any of them is seen. numpy's
`linalg.eigh`, the kernel the bounds spend their time in, is wrapped the same
way. `uninstall` puts every original object back.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one started, or -1. The process is single-threaded, so the
open spans form a stack. Spans stay in memory until `write_jsonl`.
"""

import functools
import inspect
import json
import math
import time

import numpy as np

# Layers, in the order their metrics are reported.
LAYERS = ("cli", "simkit", "models", "geom2d", "navinfo", "blockfim")

# Private functions that are a layer boundary of their own, with the span
# name they are reported under.
EXTRA_BOUNDARIES = {("simkit", "_audit_recursion"): "simkit.audit"}

# Functions whose return values are SPEBs; `bounds.inf_share` counts them.
BOUND_PRODUCERS = ("navinfo.block_spebs", "navinfo.speb")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.eigh_n3_sum = 0
        self.eigh_max_n = 0
        self.bounds_total = 0
        self.bounds_inf = 0
        self.wrapped: set[str] = set()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Return `fn` wrapped so that every call records a span `name`."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_eigh(self, args, kwargs):
        shape = np.shape(args[0] if args else kwargs["a"])
        n = shape[-1]
        self.eigh_n3_sum += math.prod(shape[:-2]) * n**3
        self.eigh_max_n = max(self.eigh_max_n, n)

    def _count_bounds(self, result):
        values = np.atleast_1d(np.asarray(result, dtype=float))
        self.bounds_total += values.size
        self.bounds_inf += int(np.isposinf(values).sum())

    def install(self, package) -> None:
        """Wrap the public functions of `package`'s layer modules wherever
        the package's modules (and the package itself) hold them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = EXTRA_BOUNDARIES.get((layer, attr))
                if name is None:
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{attr}"
                on_result = self._count_bounds if name in BOUND_PRODUCERS else None
                wrappers[id(obj)] = self.wrap(name, obj, on_result=on_result)
                self.wrapped.add(name)
        sites = [package, *modules.values()]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(site, attr, wrapper)
        self._patch(
            np.linalg, "eigh", self.wrap("linalg.eigh", np.linalg.eigh, on_call=self._count_eigh)
        )
        self.wrapped.add("linalg.eigh")

    def _patch(self, site, attr, wrapper):
        self._patches.append((site, attr, getattr(site, attr)))
        setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)

    def unrestored(self) -> list[str]:
        """Names still bound to something other than their original object.
        Empty after a clean `uninstall`."""
        return [
            f"{getattr(site, '__name__', site)}.{attr}"
            for site, attr, original in self._patches
            if getattr(site, attr) is not original
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        return summarize(self.names, self.starts, self.ends, self.parents)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def summarize(names, starts, ends, parents) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration, and self time (duration
    minus the part of it covered by child spans)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        own = duration - covered(starts[i], ends[i], children.get(i, ()))
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += own
    return out
