"""Spans around mbeval's public functions, taken from outside the program.

``Tracer.wrap(module, attr, name)`` replaces the module attribute that callers
look up (``mellin.clgamma`` is what the contour integrand calls) with a
wrapper that records a span: name, start, end, parent, and the case and round
it belongs to.  Spans are kept in memory and written out by ``save``.  A
span's self time is its duration minus the time its child spans cover.
Counters are read from the values the wrapped functions return.
"""
from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.case = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []          # [span index, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.current_case = -1
        self.current_round = -1
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Trace calls through ``module.attr``; ``count(counters, result)``
        adds to the counters from the returned value."""
        fn = getattr(module, attr)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.case.append(self.current_case)
            self.round.append(self.current_round)
            self.end.append(0.0)
            self._stack.append([idx, 0.0])
            t0 = perf()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.end[idx] = t1
                _, child = self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child
            if count is not None:
                count(self.counters, out)
            return out

        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def snapshot(self) -> dict[str, float]:
        """Running totals, flattened: '<name>.calls', '<name>.s',
        '<name>.self_s' and every counter."""
        out: dict[str, float] = dict(self.counters)
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def save(self, path) -> None:
        """Write every span as one tab-separated line of a gzip file (times
        in seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tparent\tround\tcase\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.round[i]}\t{self.case[i]}\t"
                         f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n")
