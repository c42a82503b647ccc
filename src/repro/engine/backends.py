"""The per-shard kernel seam of the result-only engines.

The {local, global, local} decomposition (paper Section 3, in-tree as
:func:`repro.engine.stream.run_core`) touches the input through exactly
two hot kernels, both of which operate on one contiguous shard at a
time:

* **prescan** — the shard's ``m``-bin bucket histogram (Eq. 1's
  per-tile count matrix column); and
* **postscan** — the shard's *stable counting scatter*: every element
  is copied to its precomputed global offset, preserving input order
  within each bucket.

Everything else (bucket-id evaluation through the user's
:class:`~repro.multisplit.bucketing.BucketSpec`, the tiny ``m x P``
exclusive scan, result assembly) is orchestration. A
:class:`KernelBackend` therefore only has to supply those kernels — and
because a *stable* multisplit's permutation is unique, any backend
whose scatter is a stable counting scatter is **bit-identical** to
:class:`NumpyBackend` by construction. The parity harness
(:mod:`repro.engine.parity`, ``tests/engine/test_backends.py``)
enforces this rather than trusting it.

:class:`NumpyBackend` is the one implementation. Its scatter gathers
straight into the output when the shard's bucket runs are adjacent
there (``offsets[-1] + counts[-1] - offsets[0] == n``, an O(1) test
that every one-shard call meets: the fast engine, a coalesced window,
a sharded call below one default shard). Otherwise it gathers the shard
into arena scratch and picks the write from ``counts``: while the mean run (keys
per nonempty bucket) is at least ``_LOOP_MIN_RUN`` it copies one slice
per nonempty bucket; below that it computes every element's
destination, ``repeat(offsets - local_starts, counts) + arange(n)``,
and writes keys and values with one fancy-index store each, so its
cost no longer grows with ``m``. The default shard size keeps a
uniform split's mean run at ``4 * _LOOP_MIN_RUN`` or more, or below
``_LOOP_MIN_RUN`` (see the comment on it).

Every engine calls the same two kernels, so a caller may pass an
instance of a subclass (for example one that times or traces each
kernel) to ``multisplit``, ``fast_multisplit``, ``sharded_multisplit``
or ``stream_multisplit``; see ``docs/BACKENDS.md``.
"""

from __future__ import annotations

import numpy as np

from repro.multisplit.ids import narrow_ids_dtype

__all__ = ["KernelBackend", "NumpyBackend", "narrow_ids_dtype",
           "resolve_backend"]

# NumpyBackend.scatter copies a shard's bucket runs one slice each while
# their mean length (keys per nonempty bucket) is at least this, and
# stores every key at a computed destination below it. Measured on a
# 2-vCPU host (2^21 uint32 key-value pairs, 32K-key shards, one thread,
# median of 5, loop vs computed): mean run 2048: 36-51 vs 44-46 ms;
# 512: 46-48 vs 50 ms; 128: 83-89 vs 45-57 ms; 8: 763-817 vs 66-85 ms.
# Between 512 and 2048 the two paths are close, so the default shard
# size (DEFAULT_SHARD_KEYS in repro.engine.stream) keeps a uniform
# split's shards out of that band: 128K-key shards while their mean run
# is at least 4 * _LOOP_MIN_RUN (m <= 64), 32K-key shards, whose mean
# run is below _LOOP_MIN_RUN, otherwise.
_LOOP_MIN_RUN = 512


class KernelBackend:
    """Per-shard prescan/postscan kernels behind one small interface.

    Subclasses set :attr:`name` and implement :meth:`prescan` and
    :meth:`scatter`. Both kernels receive *narrowed* bucket ids (see
    :func:`narrow_ids_dtype`: uint8 up to ``m = 256``, uint16 up to
    ``m = 2**16``) and must treat every array argument other than the
    designated outputs as read-only.
    """

    #: Reported as ``res.extra["backend"]``.
    name = "abstract"

    def prescan(self, ids: np.ndarray, m: int) -> np.ndarray:
        """Histogram one shard's bucket ids: an ``int64[m]`` count
        vector."""
        raise NotImplementedError

    def scatter(self, keys, values, ids, counts, offsets,
                out_keys, out_values, *, arena=None) -> None:
        """Stable counting scatter of one shard into the global outputs.

        ``counts`` is the shard's prescan histogram; ``offsets`` is an
        ``int64[m]`` vector of the shard's private base offset into
        every bucket of ``out_keys``/``out_values`` (Eq. 1, chunk-major
        — must not be modified). ``values``/``out_values`` are ``None``
        for key-only calls. ``arena`` is an optional per-worker
        :class:`~repro.engine.workspace.Workspace` for scratch reuse.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyBackend(KernelBackend):
    """Pure-numpy prescan/postscan kernels: bincount + stable argsort +
    a gather, then (unless the runs are adjacent) per-bucket slice
    copies for long runs or one computed-destination store for short
    ones."""

    name = "numpy"

    def prescan(self, ids: np.ndarray, m: int) -> np.ndarray:
        return np.bincount(ids, minlength=m).astype(np.int64, copy=False)

    def scatter(self, keys, values, ids, counts, offsets,
                out_keys, out_values, *, arena=None) -> None:
        n = keys.size
        if n == 0:
            return
        kv = values is not None
        # order is a permutation of the shard, so no index is ever out
        # of range: mode="clip" skips the buffered copy np.take makes
        # for out= under its default mode="raise"
        order = np.argsort(ids, kind="stable")
        lo = int(offsets[0])
        if int(offsets[-1]) + int(counts[-1]) - lo == n:
            # the bucket runs are adjacent: offsets never decrease and
            # each run sits inside its bucket's range, so a span of n
            # means they tile it in bucket order — gather straight in
            np.take(keys, order, out=out_keys[lo:lo + n], mode="clip")
            if kv:
                np.take(values, order, out=out_values[lo:lo + n],
                        mode="clip")
            return
        # stable argsort groups the shard by bucket; gathering into
        # arena scratch keeps the copy cache-resident across calls
        if arena is not None:
            ks = arena.take("shard_keys", n, keys.dtype)
            np.take(keys, order, out=ks, mode="clip")
            vs = None
            if kv:
                vs = arena.take("shard_values", n, values.dtype)
                np.take(values, order, out=vs, mode="clip")
        else:
            ks = keys[order]
            vs = values[order] if kv else None
        if n >= _LOOP_MIN_RUN * np.count_nonzero(counts):
            # long runs: one contiguous slice copy per nonempty bucket
            done = 0
            for b in np.flatnonzero(counts):
                cb = int(counts[b])
                o = int(offsets[b])
                out_keys[o:o + cb] = ks[done:done + cb]
                if kv:
                    out_values[o:o + cb] = vs[done:done + cb]
                done += cb
            return
        # short runs: ks[j], in bucket b's run that starts at
        # ks[local_starts[b]], lands at offsets[b] + (j - local_starts[b])
        local_starts = np.cumsum(counts) - counts
        dest = (np.empty(n, np.intp) if arena is None
                else arena.take("shard_dest", n, np.intp))
        np.add(np.repeat(offsets - local_starts, counts), np.arange(n),
               out=dest)
        out_keys[dest] = ks
        if kv:
            out_values[dest] = vs


_NUMPY = NumpyBackend()


def resolve_backend(backend=None) -> KernelBackend:
    """Resolve a ``backend=`` argument to a :class:`KernelBackend`.

    ``None`` and ``"numpy"`` give the shared default
    :class:`NumpyBackend`; a :class:`KernelBackend` instance is used
    as-is. Anything else raises :class:`ValueError`.
    """
    if backend is None or backend == "numpy":
        return _NUMPY
    if isinstance(backend, KernelBackend):
        return backend
    raise ValueError(
        f"unknown backend {backend!r}: expected None, 'numpy', or a "
        "KernelBackend instance")
