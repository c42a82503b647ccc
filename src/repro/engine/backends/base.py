"""KernelBackend: the per-shard kernel protocol of the result-only engines.

The {local, global, local} decomposition (paper Section 3, in-tree as
the core of ``engine="sharded"`` and ``engine="stream"``) touches the
input through exactly two hot kernels, both of which operate on one
contiguous shard at a time:

* **prescan** — the shard's ``m``-bin bucket histogram plus a
  monotonicity flag (Eq. 1's per-tile count matrix column); and
* **postscan** — the shard's *stable counting scatter*: every element
  is copied to its precomputed global offset, preserving input order
  within each bucket.

Everything else (bucket-id evaluation through the user's
:class:`~repro.multisplit.bucketing.BucketSpec`, the tiny ``m x P``
exclusive scan, result assembly) is orchestration. A
:class:`KernelBackend` therefore only has to supply those two kernels —
and because a *stable* multisplit's permutation is unique, any backend
whose scatter is a stable counting scatter is **bit-identical to every
other backend by construction**. The parity fuzz harness
(:mod:`repro.engine.parity`, ``tests/engine/test_backends.py``) enforces
this rather than trusting it.

Two implementations ship, both running in the caller's process under
the core's worker threads:

* ``numpy``  — :class:`~repro.engine.backends.numpy_backend.NumpyBackend`,
  the default; exactly the kernels the sharded engine ran before the
  protocol existed (bincount + stable argsort + slice copies).
* ``numba``  — :class:`~repro.engine.backends.numba_backend.NumbaBackend`,
  opt-in ``@njit(cache=True)`` single-pass loops; degrades to ``numpy``
  with a one-time warning when numba is not importable.

See ``docs/BACKENDS.md`` for the how-to-add-a-backend guide.
"""

from __future__ import annotations

import numpy as np

from repro.multisplit.ids import narrow_ids_dtype

__all__ = ["KernelBackend", "narrow_ids_dtype"]


class KernelBackend:
    """Per-shard prescan/postscan kernels behind one small interface.

    Subclasses set :attr:`name` and implement :meth:`prescan` and
    :meth:`scatter`. Both kernels receive *narrowed* bucket ids (see
    :func:`narrow_ids_dtype`) — uint8 for any realistic ``m`` — and
    must treat every array argument other than the designated outputs
    as read-only.
    """

    #: Registry name ("numpy", "numba").
    name = "abstract"

    def warmup(self, keys_dtype, values_dtype, ids_dtype) -> float:
        """Pre-compile kernels for a dtype signature; returns ms spent.

        Engines call this once per call, *before* fanning kernels out to
        worker threads, so JIT compilation (a) never races and (b) never
        pollutes per-shard stage timers. Non-compiling backends return
        ``0.0``.
        """
        return 0.0

    def prescan(self, ids: np.ndarray, m: int) -> tuple[np.ndarray, bool]:
        """Histogram one shard's bucket ids.

        Returns ``(hist, monotone)``: an ``int64[m]`` count vector and
        whether ``ids`` is non-decreasing (``True`` for empty/singleton
        shards) — the flag that lets the engine skip the scatter for
        already-partitioned input.
        """
        raise NotImplementedError

    def hist(self, ids: np.ndarray, m: int) -> np.ndarray:
        """Histogram-only prescan: ``prescan(ids, m)[0]`` without the
        monotonicity check.

        The flag only pays for itself while an engine can still use it
        (the already-partitioned shortcut, per-shard sort skipping); the
        core's chunk-sequential pass 1 downgrades to this kernel once
        the shortcut is dead, saving the extra compare+
        reduce pass over every remaining shard's ids.
        """
        return np.bincount(ids, minlength=m).astype(np.int64, copy=False)

    def scatter(self, keys, values, ids, counts, offsets,
                out_keys, out_values, *, monotone: bool = False,
                arena=None) -> None:
        """Stable counting scatter of one shard into the global outputs.

        ``counts`` is the shard's prescan histogram; ``offsets`` is an
        ``int64[m]`` vector of the shard's private base offset into
        every bucket of ``out_keys``/``out_values`` (Eq. 1, chunk-major
        — must not be modified). ``values``/``out_values`` are ``None``
        for key-only calls. ``monotone`` is the shard's prescan flag:
        when ``True`` the shard is already bucket-grouped and the
        within-shard sort may be skipped (the result must be identical
        either way). ``arena`` is an optional per-worker
        :class:`~repro.engine.workspace.Workspace` for scratch reuse.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
