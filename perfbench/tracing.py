"""Spans around the package's public functions, installed from outside ``src/``.

Every public function of the traced modules is wrapped, and the wrapper is
put in place of the original at every site of the package that holds it: the
defining module and each module that imported it by name.  Calls between
the package's own modules therefore go through the wrappers.  ``uninstall``
puts every original back and checks that it did.

Spans live in flat arrays (name id, start, end, parent span, operation id)
and are written once, by ``dump``, when the benchmark ends.  The workloads
are single-threaded, so one stack gives each span its parent.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter
from typing import Callable

TRACED_MODULES = ("basis", "gprior", "selector", "transform", "binary", "simulation")

# Public methods are not module attributes; these are wrapped on their class.
TRACED_METHODS = {"selector": {"FitResult": ("predict",)}}

ROOT_SPAN = "op"


class Tracer:
    """Records one span per call of a wrapped function.

    ``observers`` maps a span name to a callback that receives the wrapped
    function's return value, so counts such as design bytes or Monte Carlo
    draws are taken at the layer boundary where the work happens.
    """

    def __init__(self, package: str, observers: dict[str, Callable] | None = None):
        self.package = package
        self.observers = observers or {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        observe = self.observers.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(idx)
        return idx

    def _build_patches(self) -> None:
        loaded = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        }
        for short in TRACED_MODULES:
            mod = loaded.get(f"{self.package}.{short}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                # Every module attribute bound to this function object is a
                # call site that must see the wrapper.
                for site in loaded.values():
                    for site_attr, value in vars(site).items():
                        if value is fn:
                            self._patches.append((site, site_attr, fn, wrapper))
            for cls_name, methods in TRACED_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for method in methods:
                    fn = vars(cls).get(method) if cls is not None else None
                    if inspect.isfunction(fn):
                        wrapper = self._wrap(f"{short}.{method}", fn)
                        self._patches.append((cls, method, fn, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, _ in self._patches
            if getattr(owner, attr) is not original
        ]
        if leftover:
            raise RuntimeError(f"wrappers not restored: {leftover}")

    def run_op(self, op_id: int, fn: Callable, *args):
        """Call ``fn`` with the wrappers in place, under a root span for the operation."""
        self.install()
        self._op_id = op_id
        idx = self._open(self._intern(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
            self._op_id = -1
            self.uninstall()

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time (seconds) per span name, over every recorded span."""
        child_time = defaultdict(float)
        for idx in range(len(self.start)):
            parent = self.parent[idx]
            if parent >= 0:
                child_time[parent] += self.end[idx] - self.start[idx]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names
        }
        for idx in range(len(self.start)):
            entry = out[self.names[self.name_id[idx]]]
            entry["calls"] += 1
            entry["self_s"] += self.end[idx] - self.start[idx] - child_time[idx]
        return out

    def dump(self, path: str) -> None:
        """Write every span as gzip-compressed JSON columns, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": self.name_id.tolist(),
            "start_s": [round(v - t0, 9) for v in self.start],
            "end_s": [round(v - t0, 9) for v in self.end],
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
