"""Spans recorded from outside the program, around calls into each layer.

A span is ``(id, name, start, end, parent, thread, op, n)``: ``name`` is
``<layer>.<call>``, times are ``time.perf_counter`` seconds, ``parent`` is
the enclosing span id (or ``None``), ``op`` the operation or request id the
work belongs to (a list for a coalesced batch), and ``n`` the number of
keys the call handled. Spans are kept in memory and written out once, when
the run ends. Untraced runs install none of these wrappers.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import numpy as np

_now = time.perf_counter


class Tracer:
    """In-memory span store shared by every thread of one process."""

    def __init__(self, context=None):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # parent/op for spans opened on engine pool threads, which carry
        # no context of their own; one op runs at a time in a split run
        self.parent = None
        self.op = None
        # optional () -> (parent, op) for callers whose context lives in
        # contextvars (asyncio tasks) rather than in this object
        self.context = context

    def new_id(self) -> int:
        return next(self._ids)

    def current(self) -> tuple:
        """(parent span, op) for a span opening on this thread now."""
        inner = getattr(self._local, "stack", None)
        if inner:
            return inner[-1]
        if self.context is not None:
            return self.context()
        return self.parent, self.op

    def record(self, name, start, end, *, parent=None, op=None, n=0, sid=None) -> int:
        sid = self.new_id() if sid is None else sid
        thread = threading.get_ident()
        self.spans.append((sid, name, start, end, parent, thread, op, int(n)))
        return sid

    def call(self, name, fn, args, kwargs, *, n=0, op=None, export=False):
        """Run ``fn`` inside a span; nested spans on this thread are its
        children. ``op`` overrides the inherited op id; ``export`` also
        makes the span the parent of spans on threads without a stack
        (the engine's worker pool)."""
        parent, inherited = self.current()
        op = inherited if op is None else op
        sid = self.new_id()
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append((sid, op))
        saved = self.parent, self.op
        if export:
            self.parent, self.op = sid, op
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            stack.pop()
            if export:
                self.parent, self.op = saved
            self.record(name, t0, t1, parent=parent, op=op, n=n, sid=sid)

    def timed(self, name, fn, *, count=None, op_of=None):
        """Wrap ``fn`` so each call records a span. ``count(*args)`` gives
        the keys handled; ``op_of(*args)`` the op id, when the arguments
        carry it."""

        def wrapper(*args, **kwargs):
            n = count(*args) if count is not None else 0
            op = op_of(*args) if op_of is not None else None
            return self.call(name, fn, args, kwargs, n=n, op=op)

        return wrapper

    def wrap_spec(self, spec, op=None):
        """Time ``ids`` / ``eval_into`` on one spec instance.

        Only the outermost evaluation on a thread is recorded: the base
        ``eval_into`` falls back to ``ids`` and must not count twice.
        """
        local = self._local
        for meth in ("ids", "eval_into"):
            orig = getattr(spec, meth)

            def wrapper(keys, *args, _orig=orig, **kwargs):
                if getattr(local, "in_eval", False):
                    return _orig(keys, *args, **kwargs)
                local.in_eval = True
                try:
                    args = (keys, *args)
                    n = np.size(keys)
                    return self.call("bucketing.eval", _orig, args, kwargs, n=n, op=op)
                finally:
                    local.in_eval = False

            setattr(spec, meth, wrapper)
        return spec

    def dump(self, path: str, **extra) -> None:
        fields = ["id", "name", "start", "end", "parent", "thread", "op", "n"]
        with open(path, "w") as f:
            json.dump({"fields": fields, "spans": self.spans, **extra}, f)


def tracing_backend(tracer: Tracer):
    """A ``NumpyBackend`` whose kernels record ``engine.*`` spans."""
    from repro.engine.backends import NumpyBackend

    class TracingBackend(NumpyBackend):
        def prescan(self, ids, m):
            fn = super().prescan
            return tracer.call("engine.prescan", fn, (ids, m), {}, n=ids.size)

        def hist(self, ids, m):
            fn = super().hist
            return tracer.call("engine.hist", fn, (ids, m), {}, n=ids.size)

        def scatter(self, keys, *args, **kwargs):
            fn, args = super().scatter, (keys, *args)
            return tracer.call("engine.scatter", fn, args, kwargs, n=keys.size)

    return TracingBackend()


# -- derived quantities ------------------------------------------------------


def union_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_times(spans) -> dict:
    """Busy, wall and self seconds per layer (the name's first part).

    busy: summed span durations; wall: length of their union; self:
    busy minus the part of each span its child spans cover.
    """
    children: dict = {}
    for sp in spans:
        if sp[4] is not None:
            children.setdefault(sp[4], []).append((sp[2], sp[3]))
    out: dict = {}
    for sid, name, s, e, *_ in spans:
        layer = name.split(".", 1)[0]
        empty = {"busy_s": 0.0, "self_s": 0.0, "spans": 0, "_iv": []}
        row = out.setdefault(layer, empty)
        inside = [(max(cs, s), min(ce, e)) for cs, ce in children.get(sid, ())]
        covered = union_length((cs, ce) for cs, ce in inside if ce > cs)
        row["busy_s"] += e - s
        row["self_s"] += (e - s) - covered
        row["spans"] += 1
        row["_iv"].append((s, e))
    for row in out.values():
        row["wall_s"] = union_length(row.pop("_iv"))
    return out


def percentile(values, q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
