"""Spans and call counters for the benchmark's traced run.

Spans are recorded by the benchmark's own code around each public library
call it makes: (name, start, end, parent, op).  The library itself is not
edited; for the two internal call counts the traced run alone wraps
``PiecewisePolynomial.__call__`` and ``HexRegion.sample_uniform_batch`` on
their classes, and unwraps them when tracing stops.  Everything is kept in
memory and written out once, when the run ends.
"""

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    """Records spans and counters while ``active``; costs one branch otherwise."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []            # dicts: name, start, end, parent, op, attrs
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> key -> value
        self._stack = []
        self._saved = []

    def span(self, name, **attrs):
        return _Span(self, name, attrs) if self.active else _NULL

    def count(self, key, value=1.0):
        self.counts[self.op][key] += value

    def start(self):
        """Begin tracing: spans on, internal call counters installed."""
        from rwphex.hexgeom import HexRegion
        from rwphex.piecewise import PiecewisePolynomial

        self.active = True
        self._saved = [
            (PiecewisePolynomial, "__call__", PiecewisePolynomial.__call__),
            (HexRegion, "sample_uniform_batch", HexRegion.sample_uniform_batch),
        ]
        PiecewisePolynomial.__call__ = _counted(self, "piecewise", PiecewisePolynomial.__call__,
                                                lambda args: _size(args[1]))
        HexRegion.sample_uniform_batch = _counted(self, "hexgeom", HexRegion.sample_uniform_batch,
                                                  lambda args: args[1])

    def stop(self):
        for cls, name, fn in self._saved:
            setattr(cls, name, fn)
        self._saved = []
        self.active = False

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.counts.items()}}, fh)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        stack = tracer._stack
        self.record = {"name": name, "start": None, "end": None,
                       "parent": stack[-1] if stack else None,
                       "op": tracer.op, "attrs": attrs}

    def __enter__(self):
        t = self.tracer
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self.record["attrs"]

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _size(t):
    try:
        return len(t)
    except TypeError:
        return 1


def _counted(tracer, layer, fn, points):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(layer + ".seconds", time.perf_counter() - t0)
            tracer.count(layer + ".calls")
            tracer.count(layer + ".points", points(args))
    return wrapper


def duration(span):
    return span["end"] - span["start"]
