"""Request coalescer: load-sized batching with per-spec buckets.

The paper's core observation is that multisplit throughput comes from
amortizing fixed per-dispatch cost over many elements; a serving front
end recreates that opportunity by *coalescing* — gathering the small
requests that arrive together and dispatching them as one
:func:`~repro.engine.multisplit_batch` call.

Batching policy
---------------
Requests are grouped by a **batch key** so only compatible work
co-batches:

* the route (multisplit requests never co-batch with anything else);
* the method string (``multisplit_batch`` applies one method per call);
* the bucket spec, by *parameters* for the library's elementwise specs
  (two ``RangeBuckets(16)`` from different clients are the same work)
  and by *identity* for custom/unknown specs — an unknown callable
  only ever co-batches with itself, so one client's exotic bucketing
  can never leak into another's batch.

Each bucket flushes when it reaches ``max_batch`` requests (size
trigger) or on the event loop's next turn after its first request
arrived, whichever comes first. A window therefore holds exactly the
requests the loop admitted in one turn: batches grow with load, and a
request under light load waits for no timer. Flushing hands the list
of pending requests to the dispatch callable the owner provided; the
coalescer itself never touches numpy or threads, which keeps it
trivially testable on a bare event loop.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable

from repro.multisplit.bucketing import (BucketSpec, DeltaBuckets,
                                        IdentityBuckets, RangeBuckets,
                                        SplitterBuckets)

__all__ = ["Coalescer", "PendingRequest", "spec_batch_key"]


def spec_batch_key(spec: BucketSpec) -> tuple:
    """Hashable co-batching key for a spec (parameters or identity)."""
    cls = type(spec)
    if cls is RangeBuckets:
        return ("range", spec.num_buckets, spec.lo, spec.hi)
    if cls is IdentityBuckets:
        return ("identity", spec.num_buckets)
    if cls is DeltaBuckets:
        return ("delta", spec.num_buckets, spec.delta)
    if cls is SplitterBuckets:
        # value-keyed: two requests decoding the same splitters coalesce
        return ("splitter", spec.num_buckets, spec.splitters.dtype.str,
                spec.splitters.tobytes())
    # custom/subclassed specs: identity only. Pending requests hold a
    # reference to their spec, so an id() is unique among the specs
    # that can be simultaneously pending.
    return ("custom", cls.__qualname__, id(spec))


@dataclass
class PendingRequest:
    """One admitted request waiting in a coalescing window."""

    keys: Any
    spec: BucketSpec
    values: Any
    method: str
    future: asyncio.Future


class Coalescer:
    """Groups pending requests into batches by key, size, and loop turn.

    Parameters
    ----------
    loop:
        The event loop whose next turn flushes each open window.
    max_batch:
        The size trigger (see module docstring).
    dispatch:
        ``dispatch(key, items)`` called from the event loop whenever a
        bucket flushes; ``items`` is the non-empty list of
        :class:`PendingRequest` in arrival order.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, *, max_batch: int,
                 dispatch: Callable[[tuple, list], None]):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._loop = loop
        self.max_batch = int(max_batch)
        self._dispatch = dispatch
        self._buckets: dict[tuple, list[PendingRequest]] = {}

    @property
    def pending(self) -> int:
        """Requests currently waiting in windows (not yet dispatched)."""
        return sum(len(items) for items in self._buckets.values())

    def add(self, key: tuple, request: PendingRequest) -> None:
        """Enqueue one request; may flush its bucket synchronously."""
        items = self._buckets.setdefault(key, [])
        items.append(request)
        if len(items) >= self.max_batch:
            self._flush(key)
        elif len(items) == 1:
            self._loop.call_soon(self._expire, key, items)

    def _expire(self, key: tuple, items: list) -> None:
        # next turn: flush only if this exact window is still open (a
        # size flush, flush_all or cancel_all may have handled it)
        if self._buckets.get(key) is items:
            self._flush(key)

    def _flush(self, key: tuple) -> None:
        self._dispatch(key, self._buckets.pop(key))

    def flush_all(self) -> None:
        """Dispatch every open window immediately (shutdown drain)."""
        for key in list(self._buckets):
            self._flush(key)

    def cancel_all(self) -> list[PendingRequest]:
        """Drop every open window without dispatching; returns the
        abandoned requests (shutdown without drain)."""
        items = [it for window in self._buckets.values() for it in window]
        self._buckets.clear()
        return items
