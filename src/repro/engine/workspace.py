"""Workspace: a pooled scratch-array arena for the fast engine.

Every fast-path multisplit allocates the same handful of arrays — the
stable permutation, the output key/value buffers, the ``m + 1`` bucket
boundaries. On a hot path (SSSP re-bucketing every window, batched
serving traffic) those allocations dominate once the fused kernel
itself is cheap: each cold ``np.empty`` of a few MB is an ``mmap`` that
must be page-faulted in on first touch.

A :class:`Workspace` keeps one buffer per (slot name, dtype) and hands
out views of the right length, growing a slot only when a call needs
more capacity than it has ever seen. This mirrors what the CUDA
implementations in the multisplit literature do with their
``temp_storage`` arenas: allocate once, reuse across launches.

Ownership contract
------------------
Arrays obtained from a workspace (including result arrays of
``multisplit(..., engine="fast", workspace=ws)``) are **views into
pooled storage**: the next call that reuses the same workspace will
overwrite them. Callers that need a result to outlive the next call
must ``.copy()`` it or run without a workspace. A workspace is not
thread-safe; use one per thread (``multisplit_batch`` does this for
its thread-pool fan-out).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.obs import get_registry

__all__ = ["Workspace", "out_buffer"]


class Workspace:
    """A grow-only arena of reusable numpy scratch buffers.

    Parameters
    ----------
    reuse_outputs:
        When ``True`` (default) result arrays (keys/values/starts) are
        also served from the pool, subject to the ownership contract
        above. When ``False`` only internal scratch is pooled and every
        result is freshly allocated — safe to hold onto, slightly
        slower.
    """

    def __init__(self, *, reuse_outputs: bool = True):
        self.reuse_outputs = bool(reuse_outputs)
        self._slots: dict[tuple[str, np.dtype], np.ndarray] = {}
        self._children: dict[str, "Workspace"] = {}
        # weakref to the parent arena (sub-arenas only): peak tracking
        # charges every allocation to the root so peak_nbytes reflects
        # the whole tree's simultaneous footprint
        self._parent = None
        self._peak_nbytes = 0
        self.hits = 0
        self.misses = 0

    def subarena(self, name: str) -> "Workspace":
        """A named child arena carved out of this workspace.

        The sharded and stream engines hand one sub-arena to each worker
        thread so scratch reuse persists across calls without sharing
        mutable buffers between threads (a workspace itself is not
        thread-safe).
        Children are created lazily, kept for the lifetime of the
        parent, counted in :attr:`nbytes`, and released by
        :meth:`clear`. Carve sub-arenas from the coordinating thread
        before handing them to workers.
        """
        child = self._children.get(name)
        if child is None:
            child = Workspace(reuse_outputs=self.reuse_outputs)
            child._parent = weakref.ref(self)
            self._children[name] = child
        return child

    def _root(self) -> "Workspace":
        ws = self
        while ws._parent is not None:
            parent = ws._parent()
            if parent is None:
                break
            ws = parent
        return ws

    def _note_peak(self) -> None:
        root = self._root()
        total = root.nbytes
        if total > root._peak_nbytes:
            root._peak_nbytes = total
            reg = get_registry()
            if reg.enabled:
                reg.set_gauge("workspace.peak_nbytes", total)

    @property
    def peak_nbytes(self) -> int:
        """High-water mark of :attr:`nbytes`.

        Tracked at the root of the arena tree (sub-arena allocations
        charge their root), updated on every allocating miss, and kept
        across :meth:`clear` — it answers "how much scratch did this
        arena ever hold at once", which is what the stream engine's
        bounded-memory gate checks.
        """
        return self._root()._peak_nbytes

    def take(self, slot: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` buffer for ``slot``, reused when possible.

        The returned array is a view of pooled storage (uninitialized
        on a miss, stale on a hit) — callers must fully overwrite it.
        """
        dtype = np.dtype(dtype)
        key = (slot, dtype)
        buf = self._slots.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(max(size, 1), dtype=dtype)
            self._slots[key] = buf
            self.misses += 1
            self._note_peak()
            reg = get_registry()
            if reg.enabled:
                reg.inc("workspace.misses", 1, slot=slot)
                reg.inc("workspace.alloc_bytes", buf.nbytes, slot=slot)
                reg.set_gauge("workspace.nbytes", self.nbytes)
        else:
            self.hits += 1
            get_registry().inc("workspace.hits", 1, slot=slot)
        return buf[:size]

    def out(self, slot: str, size: int, dtype) -> np.ndarray:
        """A buffer for a *result* array: pooled only if ``reuse_outputs``."""
        if self.reuse_outputs:
            return self.take(slot, size, dtype)
        return np.empty(size, dtype=dtype)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena (sub-arenas included)."""
        own = sum(b.nbytes for b in self._slots.values())
        return own + sum(c.nbytes for c in self._children.values())

    def clear(self) -> None:
        """Release every pooled buffer and sub-arena (counters are kept)."""
        self._slots.clear()
        self._children.clear()

    def publish(self, registry=None, **labels) -> None:
        """Export cumulative hits/misses/bytes as registry gauges."""
        from repro.obs import export_workspace
        export_workspace(registry if registry is not None else get_registry(),
                         self, **labels)

    def __repr__(self) -> str:
        sub = f", subarenas={len(self._children)}" if self._children else ""
        return (f"Workspace(slots={len(self._slots)}, nbytes={self.nbytes}, "
                f"hits={self.hits}, misses={self.misses}{sub})")


def out_buffer(workspace: Workspace | None, slot: str, size: int, dtype) -> np.ndarray:
    """A result buffer from ``workspace`` (or a fresh array without one)."""
    if workspace is None:
        return np.empty(size, dtype=dtype)
    return workspace.out(slot, size, dtype)
