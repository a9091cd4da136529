"""Per-layer tracing of krflow from outside the package.

A ``Tracer`` replaces module attributes of ``krflow`` with timing wrappers.
Callers inside the package look functions up as module globals at call time
(``from .geometry import wedge_density`` binds a global of the importing
module), so every module slot that holds a traced function gets the same
wrapper. Nothing under ``src/`` changes, and ``remove`` restores the
originals.

Each call is a span: its inclusive time, its self time (inclusive time minus
the traced calls made inside it) and its traced caller. Spans are kept in
memory as aggregates per function and per (caller, function) pair.
"""

import sys
import time


class Stat:
    """Aggregate of the spans of one traced function (or caller edge)."""

    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = {}

    def mean(self):
        return self.total / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.edges = {}
        self._stack = []
        self._patched = []

    def stat(self, key):
        return self.stats.get(key) or Stat()

    def edge(self, caller, key):
        """Aggregate of the calls to ``key`` made directly from ``caller``."""
        return self.edges.get(key, {}).get(caller) or Stat()

    def _wrap(self, key, func, on_result):
        stat = self.stats.setdefault(key, Stat())
        callers = self.edges.setdefault(key, {})
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    caller = parent[0]
                else:
                    caller = None
                edge = callers.get(caller)
                if edge is None:
                    edge = callers[caller] = Stat()
                edge.calls += 1
                edge.total += elapsed
            if on_result is not None:
                for name, value in on_result(result).items():
                    stat.items[name] = stat.items.get(name, 0) + value
            return result

        return traced

    def install(self, targets, package="krflow"):
        """Wrap each ``(key, function, on_result)`` target in every module of
        ``package`` that holds the function. ``on_result`` (or None) maps a
        return value to counts added to the target's ``items``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for key, func, on_result in targets:
            wrapper = self._wrap(key, func, on_result)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, func))

    def remove(self):
        for module, name, func in reversed(self._patched):
            setattr(module, name, func)
        self._patched.clear()
