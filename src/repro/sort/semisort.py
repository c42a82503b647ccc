"""Semisort: group equal keys contiguously without a total order.

The second member of the multisplit-derived sort family. A semisort
only has to make equal keys *adjacent* — the relative order of distinct
groups is unconstrained — which is strictly cheaper than sorting: the
paper's reduced-bit trick (Section 3.4) applies to a *hash* of the key
instead of the key itself, so even 64-bit keys group in a handful of
multisplit passes over ``hash_bits ~ log2(n) + 2`` bits.

Strategy selection follows the parallel-semisort recipe of
arXiv 2304.10078 (PAPERS.md): sample the input, detect heavy hitters,
and route them down a dedicated path so a handful of hot keys cannot
serialize the hash buckets:

``tiny``
    ``n <= 2048``: one stable argsort; not worth a sampling pass.
``uniform``
    No heavy hitters. Fibonacci-hash every key to ``hash_bits`` bits,
    reduced-bit radix sort (:func:`~repro.sort.fast_radix_sort`) the
    hashes carrying a permutation, then repair the rare hash
    collisions with a local lexsort confined to *mixed* hash runs.
``heavy``
    Sampled heavy hitters get their own identity buckets via a single
    reduced-bit pass over ``ceil(log2(H + 1))``-bit bucket ids; the
    light remainder falls through to the uniform path. At most 256
    heavies are split off — beyond that the hash path already spreads
    them fine.

Every strategy returns the same contract (checked by
``tests/sort/test_semisort.py``): each distinct key occupies exactly
one contiguous run, the key/value multiset is preserved, ties within a
group keep input order, and the result is deterministic for a given
input. Engine knobs forward to the underlying radix passes exactly as
in :func:`~repro.sort.fast_radix_sort`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_registry
from repro.sort.fast_radix import _UNSIGNED, fast_radix_sort

__all__ = ["semisort", "SemisortResult", "SEMISORT_TINY_N"]

# below this, one stable argsort beats any sampling/hashing machinery
SEMISORT_TINY_N = 2048
# sample size and heavy-hitter knobs from the semisort paper's recipe:
# a key must cover >= ~1.5% of a 2048-element sample to earn its own
# bucket, and at most 256 heavies are split off
_SAMPLE = 2048
_HEAVY_CAP = 256
# Fibonacci multiplier (2^64 / golden ratio) — multiply-shift hashing
_FIB = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class SemisortResult:
    """Grouped keys/values plus the group layout.

    ``keys[group_starts[g]:group_starts[g + 1]]`` is the ``g``-th group
    (the last group runs to ``len(keys)``); ``strategy`` records the
    adaptive path taken (``"tiny"``, ``"uniform"``, or ``"heavy"``).
    """

    keys: np.ndarray
    values: np.ndarray | None
    group_starts: np.ndarray
    strategy: str
    extra: dict = field(default_factory=dict)

    @property
    def num_groups(self) -> int:
        return int(self.group_starts.size)

    def group_slices(self):
        """Yield one ``slice`` per group, in result order."""
        starts = self.group_starts
        n = self.keys.shape[0]
        for g in range(starts.size):
            stop = starts[g + 1] if g + 1 < starts.size else n
            yield slice(int(starts[g]), int(stop))


def _group_codes(arr: np.ndarray) -> np.ndarray:
    """Equality-preserving uint64 codes for integer group keys."""
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(
            f"semisort groups integer keys, got dtype {arr.dtype}; pass an "
            "integer by= array to group other record types")
    u = arr.view(_UNSIGNED[arr.dtype.itemsize])
    return u.astype(np.uint64, copy=False)


def _fib_hash(codes: np.ndarray, hash_bits: int) -> np.ndarray:
    """Multiply-shift Fibonacci hash of uint64 codes to ``hash_bits``.

    The high product bits are the well-mixed ones, so the hash is the
    top ``hash_bits`` of ``code * FIB`` (uint64 arithmetic wraps mod
    2^64, which is exactly multiply-shift hashing).
    """
    mixed = (codes ^ (codes >> np.uint64(32))) * _FIB
    return (mixed >> np.uint64(64 - hash_bits)).astype(np.uint32)


def _hash_bits_for(n: int) -> int:
    # ~4x more hash slots than keys keeps expected collisions per run
    # O(1); clamp to [8, 26] so one pass never exceeds the engines'
    # comfortable bucket-id range
    return max(8, min(26, (max(n, 2) - 1).bit_length() + 2))


def _hash_group_order(codes, digit_bits, eng_kw, ws):
    """Order ``codes`` so equal values are contiguous, via hash passes.

    Returns ``(perm, collisions)``: ``perm`` indexes into ``codes``;
    ``collisions`` counts positions re-ordered by the collision-repair
    lexsort (distinct keys sharing a hash run).
    """
    n = codes.size
    hb = _hash_bits_for(n)
    h = _fib_hash(codes, hb)
    hs, perm = fast_radix_sort(h, np.arange(n, dtype=np.uint32),
                               bits=hb, digit_bits=digit_bits,
                               workspace=ws, **eng_kw)
    # the next fast_radix_sort on this workspace would recycle these
    # buffers, so materialize the permutation before returning it
    perm = np.array(perm)
    g = codes[perm]
    # hash-run ids, then positions inside runs that mix distinct keys
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(hs[1:], hs[:-1], out=new_run[1:])
    rid = np.cumsum(new_run) - 1
    mixed_edge = np.zeros(n, dtype=bool)
    mixed_edge[1:] = (g[1:] != g[:-1]) & ~new_run[1:]
    if not mixed_edge.any():
        return perm, 0
    run_is_mixed = np.zeros(int(rid[-1]) + 1, dtype=bool)
    run_is_mixed[rid[mixed_edge]] = True
    pos = np.flatnonzero(run_is_mixed[rid])
    # re-sort only the mixed runs: primary run id (keeps the hash
    # layout), then key (groups within the run), then the original
    # index carried in perm (keeps ties in input order)
    fix = np.lexsort((perm[pos], g[pos], rid[pos]))
    perm[pos] = perm[pos][fix]
    return perm, int(pos.size)


def _find_heavies(codes: np.ndarray, n: int) -> np.ndarray:
    """Sampled heavy-hitter codes (sorted, possibly empty)."""
    # deterministic sample: the rng seed is fixed, so a given input
    # always takes the same strategy
    rng = np.random.default_rng(0x5E71507)
    sample = codes[rng.integers(0, n, _SAMPLE)]
    uniq, counts = np.unique(sample, return_counts=True)
    threshold = max(8, _SAMPLE // 64)
    heavies = uniq[counts >= threshold]
    if heavies.size > _HEAVY_CAP:
        order = np.argsort(counts[counts >= threshold], kind="stable")
        heavies = np.sort(heavies[order[::-1][:_HEAVY_CAP]])
    return heavies


def semisort(keys: np.ndarray, values: np.ndarray | None = None, *,
             by: np.ndarray | None = None,
             digit_bits: int = 12, engine: str = "auto",
             max_workers: int | None = None,
             workspace=None) -> SemisortResult:
    """Group equal keys contiguously, without sorting between groups.

    Parameters
    ----------
    keys:
        1-D record array. Grouped by its own (integer) values unless
        ``by`` is given, in which case ``keys`` may be any dtype and is
        simply carried through the permutation.
    values:
        Optional same-shape payload, permuted alongside.
    by:
        Optional 1-D integer array of group keys, same shape as
        ``keys``. ``semisort(records, by=ids)`` groups ``records`` by
        ``ids`` without requiring the records themselves to be sortable
        integers.
    digit_bits:
        Bits per underlying multisplit pass (default 12: two passes
        cover the widest hash, one covers every heavy-bucket split).
    engine / max_workers / workspace:
        Forwarded to every :func:`~repro.sort.fast_radix_sort` pass;
        identical semantics and validation.

    Returns
    -------
    SemisortResult
        Grouped ``keys``/``values``, ``group_starts`` offsets, the
        strategy taken, and diagnostics in ``extra``.
    """
    if np.ndim(keys) != 1:  # before coercion, which makes 0-D keys 1-D
        raise ValueError(f"keys must be 1-D, got shape {np.shape(keys)}")
    keys = np.ascontiguousarray(keys)
    for name, arr in (("values", values), ("by", by)):
        if arr is not None and np.shape(arr) != keys.shape:
            raise ValueError(f"{name} shape {np.shape(arr)} must match "
                             f"keys shape {keys.shape}")
    if values is not None:
        values = np.ascontiguousarray(values)
    if by is not None:
        by = np.ascontiguousarray(by)
    gk = by if by is not None else keys
    eng_kw = dict(engine=engine, max_workers=max_workers)
    # every strategy, the tiny argsort and empty input too, rejects the
    # engine mistakes fast_radix_sort rejects
    from repro.multisplit.api import _RESULT_ONLY, _resolve_engine
    _resolve_engine(keys=gk, method="reduced_bit", engines=_RESULT_ONLY,
                    **eng_kw)
    n = keys.size
    if n == 0:
        _group_codes(gk)  # dtype validation applies to empty input too
        return SemisortResult(keys.copy(),
                              values.copy() if values is not None else None,
                              np.empty(0, dtype=np.int64), "tiny", {})
    codes = _group_codes(gk)

    reg = get_registry()
    with reg.timer("sort.fast.run_ms", kind="semisort",
                   kv=values is not None).time():
        extra: dict = {}
        if n <= SEMISORT_TINY_N:
            strategy = "tiny"
            perm = np.argsort(codes, kind="stable")
        else:
            from repro.engine import Workspace
            ws = workspace if workspace is not None else Workspace()
            heavies = _find_heavies(codes, n)
            if heavies.size:
                strategy = "heavy"
                H = int(heavies.size)
                # bucket id: own identity bucket per heavy, H = light
                idx = np.searchsorted(heavies, codes)
                idx[idx == H] = 0
                ids = np.where(heavies[idx] == codes, idx, H).astype(np.uint32)
                with reg.timer("sort.fast.stage_ms", kind="semisort",
                               stage="heavy_split").time():
                    _, perm = fast_radix_sort(
                        ids, np.arange(n, dtype=np.uint32),
                        digit_bits=digit_bits, workspace=ws, **eng_kw)
                    perm = np.array(perm)
                n_heavy = n - int(np.count_nonzero(ids == H))
                light = perm[n_heavy:]
                if light.size:
                    with reg.timer("sort.fast.stage_ms", kind="semisort",
                                   stage="light_hash").time():
                        sub, collisions = _hash_group_order(
                            codes[light], digit_bits, eng_kw, ws)
                    perm[n_heavy:] = light[sub]
                    extra["collisions"] = collisions
                extra["heavies"] = H
                extra["heavy_keys"] = n_heavy
            else:
                strategy = "uniform"
                with reg.timer("sort.fast.stage_ms", kind="semisort",
                               stage="hash").time():
                    perm, collisions = _hash_group_order(
                        codes, digit_bits, eng_kw, ws)
                extra["collisions"] = collisions
                extra["hash_bits"] = _hash_bits_for(n)

        out_codes = codes[perm]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(out_codes[1:], out_codes[:-1], out=boundary[1:])
        group_starts = np.flatnonzero(boundary)

    reg.inc("sort.fast.calls", 1, kind="semisort", strategy=strategy)
    if reg.enabled:
        reg.inc("sort.fast.keys", n, kind="semisort")
        reg.set_gauge("sort.fast.groups", group_starts.size, kind="semisort")
    return SemisortResult(keys[perm],
                          values[perm] if values is not None else None,
                          group_starts, strategy, extra)
