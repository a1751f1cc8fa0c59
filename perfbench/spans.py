"""Span tracing of the wignerlab library from outside, for the traced run.

The tracer replaces the public functions of the library modules by thin
wrappers that record one span (name, start, end, parent) per call.  Names
that a module re-binds with ``from ... import`` get the same wrapper.  A
generator function is timed over its iteration: every ``next()`` is its own
span, so the consumer's work between two items is never counted as the
generator's.

Spans are kept in flat typed arrays (a few million spans fit in tens of MB)
and reduced to per-name totals once the op has finished.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time
import types
from collections import Counter

LAYERS = ("walks", "catalan", "oracle", "sim", "reports")

# Methods that are layer boundaries in their own right.
METHODS = {"catalan": [("SeriesExact", "__mul__")]}


def self_times(names, parents, starts, ends):
    """Self time of every span: its duration minus the time its children cover.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  The
    spans come from single-threaded code, so the children of a span are
    disjoint and lie inside it; their durations add up to the time they
    cover.  Returns a list of self times, in span order.
    """
    covered = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(names))]


class Tracer:
    """Collects spans from wrapped library functions in one process."""

    def __init__(self, root_name: str, root_start: float):
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_of = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.yields: Counter = Counter()
        # arguments or results of a few calls, reduced after the op
        self.log: dict[str, list] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.root = self.open(self._id(root_name), root_start)

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int, t: float) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(t)
        self.end.append(t)
        self.stack.append(i)
        return i

    def close(self, i: int, t: float) -> None:
        self.end[i] = t
        self.stack.pop()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        """Span-recording wrapper.  ``before`` may replace the arguments;
        ``after`` sees the result once the span has closed."""
        nid = self._id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self.stack
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            # open() and close() inlined: this runs on every library call
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(tracer, nid, fn(*args, **kwargs))

        return traced

    def install(self, package: str = "wignerlab") -> None:
        """Wrap every public function of the imported library modules, and
        the names other modules bound to them with ``from ... import``."""
        # only the modules the op has imported: importing the rest (sim
        # pulls in numpy) would add work the untraced op never does
        modules = {layer: sys.modules["%s.%s" % (package, layer)]
                   for layer in LAYERS
                   if "%s.%s" % (package, layer) in sys.modules}
        by_layer = {m.__name__: layer for layer, m in modules.items()}
        wrapped: dict[int, object] = {}
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ not in by_layer):
                    continue
                if id(fn) not in wrapped:
                    name = "%s.%s" % (by_layer[fn.__module__], fn.__name__)
                    if inspect.isgeneratorfunction(fn):
                        wrapped[id(fn)] = self.wrap_generator(fn, name)
                    else:
                        wrapped[id(fn)] = self.wrap(fn, name, *self._hooks(name))
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])
        for layer, methods in METHODS.items():
            for cls_name, meth in methods if layer in modules else ():
                cls = getattr(modules[layer], cls_name)
                fn = vars(cls)[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(fn, "%s.%s.%s"
                                             % (layer, cls_name, meth)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _hooks(self, name: str):
        """(before, after) hooks that capture what spans cannot count.

        They only append to lists; the captured values are reduced after
        the op has ended, outside every span.
        """
        if name == "reports.emit_report":
            rows = self.log.setdefault("rows", [0])

            def count_rows(args, kwargs):
                def counted(records):
                    for rec in records:
                        rows[0] += 1
                        yield rec
                return (counted(args[0]),) + tuple(args[1:]), kwargs
            return count_rows, None
        if name in ("sim.sample_matrix", "sim.estimate_trace_moments_fast",
                    "oracle.exact_moment_trajectory"):
            calls = self.log.setdefault(name, [])

            def keep_args(args, kwargs):
                calls.append(args)
                return args, kwargs
            return keep_args, None
        if name == "catalan.height_table":
            return None, self.log.setdefault(name, []).append
        return None, None

    # -- reduction ----------------------------------------------------------

    def finish(self, t: float) -> dict:
        """Close the root span and reduce the spans to per-name totals.

        Returns {name: {"calls", "incl_s", "self_s", "top_s", "yields"}};
        top_s sums the spans called directly from the op or from cli.main.
        """
        self.close(self.root, t)
        selfs = self_times(self.name_of, self.parent, self.start, self.end)
        top_parents = {self.root}
        cli = self.ids.get("cli.main")
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name_of):
            if nid == cli:
                top_parents.add(i)
            rec = out.setdefault(self.names[nid], {
                "calls": 0, "incl_s": 0.0, "self_s": 0.0, "top_s": 0.0,
                "yields": self.yields[nid]})
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["incl_s"] += dur
            rec["self_s"] += selfs[i]
            if self.parent[i] in top_parents:
                rec["top_s"] += dur
        return out


class _TracedIterator:
    """Iterator whose every next() is one span of the generator's name."""

    def __init__(self, tracer: Tracer, nid: int, it):
        self.tracer = tracer
        self.nid = nid
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        i = tr.open(self.nid, time.perf_counter())
        try:
            item = next(self.it)
        finally:
            tr.close(i, time.perf_counter())
        tr.yields[self.nid] += 1
        return item
