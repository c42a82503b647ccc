"""Bucket identifiers: the user-provided key -> bucket mapping.

The paper's multisplit takes "a function, specified by the programmer,
that inputs a key and outputs the bucket corresponding to that key"
(Section 3.1). A :class:`BucketSpec` carries that function in vectorized
form plus the per-evaluation instruction cost the emulated kernel is
charged (the ``whatBucket()`` call of Algorithm 1).

Provided specs cover the paper's scenarios:

* :class:`RangeBuckets` — m equal ranges of the 32-bit domain (the
  evaluation workload of Section 6).
* :class:`IdentityBuckets` — the trivial ``B_i = {i}`` case (Table 4's
  "sort on identity buckets" row).
* :class:`DeltaBuckets` — ``floor(key / delta)`` bucketing used by
  delta-stepping SSSP.
* :class:`PrimeCompositeBuckets` — Figure 1's prime/composite example.
* :class:`SplitterBuckets` — m ranges delimited by m-1 sorted splitters
  (the sample-sort front end; build one with
  :meth:`BucketSpec.from_sample`).
* :class:`CustomBuckets` — wrap any vectorized callable.
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_registry

from .ids import narrow_ids_dtype

__all__ = [
    "BucketSpec",
    "RangeBuckets",
    "IdentityBuckets",
    "DeltaBuckets",
    "PrimeCompositeBuckets",
    "SplitterBuckets",
    "CustomBuckets",
]


class BucketSpec:
    """Base class: a vectorized key -> bucket-id mapping.

    Subclasses implement :meth:`ids`; ``instruction_cost`` is the number
    of per-lane ALU instructions one evaluation costs in the emulated
    kernel.
    """

    #: True when ``ids`` maps each key independently of the rest of the
    #: array, so evaluating the spec chunk-by-chunk yields the same ids
    #: as one whole-array call. The sharded engine relies on this to
    #: evaluate bucket ids per shard; specs that inspect the whole array
    #: (or wrap unknown callables) must leave it False and are evaluated
    #: once, globally.
    elementwise = False

    def __init__(self, num_buckets: int, instruction_cost: int = 2):
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self.instruction_cost = int(instruction_cost)

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """Bucket id of every key; must return uint32 in ``[0, num_buckets)``."""
        raise NotImplementedError

    def eval_into(self, keys: np.ndarray, out: np.ndarray, arena=None) -> None:
        """Evaluate bucket ids straight into preallocated ``out``.

        ``out`` is any integer array wide enough for ``num_buckets``
        (engines pass their narrowed per-shard id buffers); ``arena``
        is an optional :class:`~repro.engine.workspace.Workspace`-like
        pool (``take(slot, size, dtype)``) for evaluation scratch.

        The engines' hot loops call the spec once per shard: 128K keys
        while ``m <= 64``, 32K keys above that. With the default
        :meth:`ids` path every call allocates a few temporaries of
        ~256KB to ~1MB — at or above glibc's dynamic mmap threshold,
        so each one is a fresh ``mmap``/``munmap`` pair and the loop
        page-faults its scratch back in on every shard (~40% of
        prescan wall time at 32K-key shards). Subclasses with
        arena-scratch overrides make the per-shard evaluation
        allocation-free; results must be bit-identical to :meth:`ids`.
        The base implementation just falls back to :meth:`ids`.
        """
        np.copyto(out, self.ids(np.asarray(keys)), casting="unsafe")

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        out = np.asarray(self.ids(np.asarray(keys)))
        return out.astype(np.uint32, copy=False)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.num_buckets})"

    @classmethod
    def from_sample(cls, keys, num_buckets: int, *, oversample: int = 256,
                    recurse_factor: float = 2.0, seed: int = 2016,
                    engine: str = "auto") -> "SplitterBuckets":
        """Sample-sort splitters: a load-balanced :class:`SplitterBuckets`.

        The paper's evaluation assumes bucket mappings that spread keys
        evenly; real traffic is skewed, and a handful of hot buckets
        serialize the scatter and blow up the per-shard histograms of
        the sharded/stream engines. Following GPU sample sort (arXiv
        0909.5649), this samples ``oversample * num_buckets`` keys with
        a deterministic seed, sorts the sample, and takes its order
        statistics as splitters, so every bucket receives ~``n/m`` keys
        regardless of the key distribution.

        One level of recursion guards the tail. A second, independent
        sample of the same size checks the splitters; only if it puts a
        bucket above ``0.75 * recurse_factor * n / m`` keys is the full
        input counted, and each bucket those exact counts show above
        ``recurse_factor * n / m`` is re-split: the input is grouped once
        through the stable engines (:func:`multisplit`) and every bucket
        re-sampled in place, oversized ones at sub-bucket resolution,
        into a weighted sample whose order statistics replace the
        splitters. With 256 buckets at the default oversample, a bucket
        at the threshold escapes the check with probability ~6e-9. Pass
        ``recurse_factor=float("inf")`` to disable the check.

        A bucket dominated by one repeated key value cannot be split by
        any elementwise spec; such buckets keep their load and the
        recursion leaves them alone.

        Emits ``bucketing.resplits`` (count of re-split buckets) and,
        only while metrics are enabled (the full input is then always
        counted), ``bucketing.skew_ratio`` (full-input max/mean bucket
        load, labeled ``stage="initial"``/``"final"``).
        """
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
        m = int(num_buckets)
        if m < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        oversample = int(oversample)
        if oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {oversample}")
        if not recurse_factor > 0:
            raise ValueError(
                f"recurse_factor must be positive, got {recurse_factor}")
        n = keys.size
        if m == 1:
            return SplitterBuckets(np.empty(0, dtype=keys.dtype))
        if n == 0:
            raise ValueError(
                "cannot sample splitters from empty keys (num_buckets > 1)")

        reg = get_registry()
        rng = np.random.default_rng(seed)
        s = min(n, m * oversample)
        sample = np.sort(keys if s == n else keys[rng.integers(0, n, s)])
        splitters = sample[(np.arange(1, m, dtype=np.int64) * s) // m]
        spec = SplitterBuckets(splitters.copy())

        mean = n / m
        threshold = recurse_factor * mean
        counts = None
        if s == n:  # the sample is the input: its counts are exact
            counts = cls._sorted_loads(sample, splitters)
        elif recurse_factor != float("inf"):
            # Estimate the loads from an independent sample; count exactly
            # only if one looks oversized. A bucket at the threshold
            # draws X ~ Bin(s, recurse_factor / m) check keys, and the
            # confirm level is 0.75 * E[X]: at m = oversample = 256,
            # recurse_factor = 2, E[X] = 512 and sd ~22.5, so it goes
            # unflagged with P(z < -5.7) ~ 6e-9, while a mean-load bucket
            # sits 8 sd under the level. A false alarm costs one exact
            # count; the exact counts alone decide the resplits.
            check = np.sort(keys[rng.integers(0, n, s)])
            est = cls._sorted_loads(check, splitters).max() * n / s
            if est > 0.75 * threshold:
                counts = cls._bucket_counts(keys, spec)
        resplits = (int((counts > threshold).sum())
                    if counts is not None and n > m else 0)
        if reg.enabled:
            if counts is None:
                counts = cls._bucket_counts(keys, spec)
            reg.set_gauge("bucketing.skew_ratio", counts.max() / mean,
                          stage="initial")
        reg.inc("bucketing.resplits", resplits)
        if resplits:
            spec = cls._resample_splitters(keys, spec, counts, rng,
                                           oversample, engine)
        if reg.enabled:
            final = cls._bucket_counts(keys, spec) if resplits else counts
            reg.set_gauge("bucketing.skew_ratio", final.max() / mean,
                          stage="final")
        return spec

    @staticmethod
    def _sorted_loads(sorted_keys, splitters) -> np.ndarray:
        """Bucket loads of sorted keys under ``SplitterBuckets(splitters)``:
        bucket ``b`` holds ``[splitters[b-1], splitters[b])``, so one
        binary search per splitter replaces one per key."""
        below = np.searchsorted(sorted_keys, splitters, side="left")
        return np.diff(below, prepend=0, append=sorted_keys.size)

    @staticmethod
    def _bucket_counts(keys, spec) -> np.ndarray:
        """Full-input bucket histogram, evaluated shard by shard the way
        the engines do (arena scratch, narrowed ids), so no n-sized id
        or search temporary is ever allocated."""
        # lazy: the engine package imports this module
        from repro.engine import Workspace
        from repro.engine.stream import _shard_keys
        m = spec.num_buckets
        step = _shard_keys(m)
        arena = Workspace()
        ids = np.empty(min(keys.size, step), dtype=narrow_ids_dtype(m))
        counts = np.zeros(m, dtype=np.int64)
        for lo in range(0, keys.size, step):
            chunk = keys[lo:lo + step]
            spec.eval_into(chunk, ids[:chunk.size], arena)
            counts += np.bincount(ids[:chunk.size], minlength=m)
        return counts

    @staticmethod
    def _resample_splitters(keys, spec, counts, rng, oversample,
                            engine) -> "SplitterBuckets":
        """Second sampled pass: group through the stable engines, then
        re-derive all splitters from a per-bucket weighted sample."""
        from .api import multisplit  # lazy: api imports this module
        m = spec.num_buckets
        n = keys.size
        res = multisplit(keys, spec, engine=engine)
        starts = np.asarray(res.bucket_starts)
        grouped = np.asarray(res.keys)
        points, weights = [], []
        for b in range(m):
            c = int(counts[b])
            if c == 0:
                continue
            seg = grouped[starts[b]:starts[b + 1]]
            # oversized buckets deserve ceil(c * m / n) sub-buckets and
            # get sampled at that resolution; the rest keep one
            deserved = max(1, -(-c * m // n))
            s_b = min(c, deserved * oversample)
            pts = np.sort(seg if s_b == c else seg[rng.integers(0, c, s_b)])
            points.append(pts)
            weights.append(np.full(s_b, c / s_b))
        # bucket ranges are disjoint and ascending, so the per-bucket
        # sorted samples concatenate into one globally sorted weighted
        # sample; splitters are its weighted order statistics
        pts = np.concatenate(points)
        cumw = np.cumsum(np.concatenate(weights))
        targets = np.arange(1, m, dtype=np.float64) * (n / m)
        idx = np.minimum(np.searchsorted(cumw, targets, side="left"),
                         pts.size - 1)
        return SplitterBuckets(pts[idx].astype(keys.dtype, copy=True))


def _require_keys_within(keys: np.ndarray, lo: int, hi: int,
                         detail: str = "") -> None:
    """Raise ``ValueError`` unless every key lies in ``[lo, hi)``.

    One min/max over the raw keys, before any unsigned cast could wrap a
    negative int or an oversized float into range; NaN fails both
    comparisons. Unsigned keys cannot fall below ``lo == 0``, so the
    common case skips the min pass.
    """
    if not keys.size:
        return
    low_ok = (lo == 0 and keys.dtype.kind == "u") or lo <= keys.min().item()
    if not (low_ok and keys.max().item() < hi):
        raise ValueError("key outside bucket domain" + detail)


class RangeBuckets(BucketSpec):
    """``m`` equal-width ranges of ``[lo, hi)`` (default: full uint32 domain).

    Bucket ids are computed in uint64 as ``(key - lo) * m // (hi - lo)``,
    so the domain must satisfy ``0 <= lo < hi <= 2**64`` and
    ``(hi - lo) * m <= 2**64``; wider domains are rejected up front
    rather than wrapping. Keys outside ``[lo, hi)`` (NaN included)
    raise ``ValueError``.
    """

    elementwise = True

    def __init__(self, num_buckets: int, lo: int = 0, hi: int = 2**32):
        super().__init__(num_buckets, instruction_cost=3)
        lo, hi = int(lo), int(hi)
        if not lo < hi:
            raise ValueError(f"empty key domain [{lo}, {hi})")
        if lo < 0 or hi > 2**64 or (hi - lo) * self.num_buckets > 2**64:
            raise ValueError(
                f"key domain [{lo}, {hi}) x {self.num_buckets} buckets does "
                "not fit uint64 arithmetic: need 0 <= lo < hi <= 2**64 and "
                "(hi - lo) * num_buckets <= 2**64")
        self.lo = lo
        self.hi = hi

    def ids(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        _require_keys_within(keys, self.lo, self.hi)
        if self.num_buckets == 1:  # the only m whose span may be 2**64
            return np.zeros(keys.shape, dtype=np.uint32)
        rel = keys.astype(np.uint64) - np.uint64(self.lo)
        return ((rel * np.uint64(self.num_buckets))
                // np.uint64(self.hi - self.lo)).astype(np.uint32)

    def eval_into(self, keys: np.ndarray, out: np.ndarray, arena=None) -> None:
        if arena is None or self.num_buckets == 1:
            return super().eval_into(keys, out)
        _require_keys_within(keys, self.lo, self.hi)
        # same arithmetic as ids(), element for element, but through one
        # pooled uint64 scratch buffer
        rel = arena.take("spec.rel64", keys.size, np.uint64)
        np.copyto(rel, keys, casting="unsafe")
        if self.lo:
            np.subtract(rel, np.uint64(self.lo), out=rel)
        np.multiply(rel, np.uint64(self.num_buckets), out=rel)
        np.floor_divide(rel, np.uint64(self.hi - self.lo), out=rel)
        np.copyto(out, rel, casting="unsafe")


class IdentityBuckets(BucketSpec):
    """``B_i = {i}``: each key *is* its bucket id (keys must lie in ``[0, m)``)."""

    elementwise = True

    def __init__(self, num_buckets: int):
        super().__init__(num_buckets, instruction_cost=0)

    def _check_domain(self, keys: np.ndarray) -> None:
        _require_keys_within(
            keys, 0, self.num_buckets, ": identity bucketing requires keys "
            f"< num_buckets ({self.num_buckets}) and >= 0")

    def ids(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        self._check_domain(keys)
        return keys.astype(np.uint32)

    def eval_into(self, keys: np.ndarray, out: np.ndarray, arena=None) -> None:
        self._check_domain(keys)
        # chained C casts (key -> uint32 -> out dtype in ids(), key ->
        # out dtype here) truncate identically; no scratch needed at all
        np.copyto(out, keys, casting="unsafe")


class DeltaBuckets(BucketSpec):
    """``clip(floor(key / delta), 0, m-1)``: delta-stepping SSSP bucketing.

    The clamp runs in float64, before any integer cast: negative keys
    (relaxed-below-zero tentative distances, sentinel slack values) land
    in bucket 0, and keys too large for an integer (``inf``, ``1e300``,
    uint64 near ``2**64``) land in bucket ``m - 1`` instead of wrapping.
    NaN keys have no bucket and raise ``ValueError``.
    """

    elementwise = True

    def __init__(self, delta: float, num_buckets: int):
        super().__init__(num_buckets, instruction_cost=3)
        if not 0 < delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        self.delta = delta

    def _clamped(self, keys: np.ndarray, f: np.ndarray) -> np.ndarray:
        """``clip(floor(keys / delta), 0, m-1)`` into float64 ``f``."""
        np.divide(keys, self.delta, out=f, dtype=np.float64)
        np.floor(f, out=f)
        np.clip(f, 0, self.num_buckets - 1, out=f)
        # a finite positive delta only yields NaN from a NaN key
        if keys.dtype.kind == "f" and f.size and np.isnan(f.max()):
            raise ValueError("key outside bucket domain: NaN key")
        return f

    def ids(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        f = self._clamped(keys, np.empty(keys.shape, dtype=np.float64))
        return f.astype(np.uint32)

    def eval_into(self, keys: np.ndarray, out: np.ndarray, arena=None) -> None:
        if arena is None:
            return super().eval_into(keys, out)
        f = self._clamped(keys, arena.take("spec.f64", keys.size, np.float64))
        # every clamped value is an integer in [0, m), exact in any id dtype
        np.copyto(out, f, casting="unsafe")


class PrimeCompositeBuckets(BucketSpec):
    """Two buckets: primes in bucket 0, composites (and 0, 1) in bucket 1.

    Uses a sieve over the observed key range, so it is intended for the
    small-domain demo of Figure 1, not for 2^32-wide keys.
    """

    MAX_DOMAIN = 1 << 24

    def __init__(self):
        super().__init__(2, instruction_cost=8)

    def ids(self, keys: np.ndarray) -> np.ndarray:
        if keys.size == 0:
            return np.zeros(0, dtype=np.uint32)
        if int(keys.min()) < 0:
            # raw int64 sieve indexing would wrap negatives to the sieve
            # tail and silently classify them as whatever sits there
            raise ValueError(
                "prime/composite bucketing requires non-negative keys")
        hi = int(keys.max())
        if hi >= self.MAX_DOMAIN:
            raise ValueError(
                f"prime/composite bucketing supports keys < {self.MAX_DOMAIN}"
            )
        sieve = np.ones(hi + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(hi**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        return np.where(sieve[keys.astype(np.int64)], 0, 1).astype(np.uint32)


class SplitterBuckets(BucketSpec):
    """``m`` buckets delimited by ``m - 1`` sorted splitters.

    The sample-sort front end: bucket ``b`` holds the keys ``k`` with
    ``splitters[b-1] <= k < splitters[b]`` (``np.searchsorted(...,
    side="right")`` semantics, so a key equal to a splitter lands in
    the bucket to its right). Ids are inherently in range — no key can
    map outside ``[0, m)`` — which makes this the safe spec to put in
    front of the sharded/stream prescans. Build a load-balanced one
    from data with :meth:`BucketSpec.from_sample`.

    Equal splitters are allowed (they produce empty buckets), which is
    what sampling yields on heavily duplicated keys. NaN splitters are
    rejected: they compare false both ways, so they would pass the
    sortedness check and misplace every key.

    For integer splitters, :meth:`eval_into` with an arena finds a key's
    bucket through a *cell table* built here. ``cell(k)`` reads the
    float64 bits of ``max(k - splitters[0], 0.5)``: the exponent and top
    ``b = L.bit_length()`` mantissa bits (``L`` splitters), so every
    binary octave of the key range gets ``2**b > L`` cells. Each step
    (int -> float64, subtracting a constant, the clamp, the bits of a
    non-negative float) preserves order, so ``cell`` never decreases as
    the key grows. ``table[c]`` counts the splitters in cells below
    ``c``: all of them are below any key in cell ``c``, and every
    splitter in a later cell is above it, so a key's bucket is
    ``table[cell(k)]`` plus its rank among the at most ``span``
    splitters sharing its cell — a branchless search over a window of
    ``2**levels >= span`` entries. The depth follows from the
    splitters: ~1–2 steps for spread splitters, and the full
    ``log2(L)`` when every splitter shares one cell.
    """

    elementwise = True

    def __init__(self, splitters, num_buckets: int | None = None):
        splitters = np.asarray(splitters)
        if splitters.ndim != 1:
            raise ValueError(
                f"splitters must be 1-D, got shape {splitters.shape}")
        if splitters.dtype.kind == "f" and bool(np.isnan(splitters).any()):
            raise ValueError("splitters must not contain NaN")
        if splitters.size > 1 and bool((splitters[:-1] > splitters[1:]).any()):
            raise ValueError("splitters must be sorted ascending")
        m = splitters.size + 1
        if num_buckets is not None and int(num_buckets) != m:
            raise ValueError(
                f"{splitters.size} splitters delimit {m} buckets, "
                f"but num_buckets={num_buckets} was requested")
        # one binary-search probe per level, ~log2(m) per-lane ALU ops
        super().__init__(m, instruction_cost=max(2, m.bit_length()))
        self.splitters = splitters
        self._table = None
        L = splitters.size
        if L == 0 or splitters.dtype.kind not in "iu":
            return
        top = np.iinfo(splitters.dtype).max
        self._s0 = np.float64(splitters[0])
        self._shift = 52 - L.bit_length()
        self._base = int(np.float64(0.5).view(np.int64)) >> self._shift
        probe = np.empty(L + 1, dtype=splitters.dtype)
        probe[:L] = splitters
        probe[L] = top
        cells = self._cells(probe, np.empty(L + 1, dtype=np.float64))
        per_cell = np.bincount(cells[:L], minlength=int(cells[L]) + 1)
        self._table = np.zeros(per_cell.size, dtype=np.int64)
        np.cumsum(per_cell[:-1], out=self._table[1:])
        # a window of 2**levels >= span entries holds every splitter of
        # the key's cell; the search below reaches any rank in [0, 2**levels]
        self._levels = (int(per_cell.max()) - 1).bit_length()
        self._padded = np.full(L + (1 << self._levels), top,
                               dtype=splitters.dtype)
        self._padded[:L] = splitters

    def _cells(self, keys: np.ndarray, f: np.ndarray) -> np.ndarray:
        """``cell(k)`` of every key, computed in the float64 buffer ``f``
        and returned as its int64 view."""
        np.subtract(keys, self._s0, out=f, dtype=np.float64)
        np.maximum(f, 0.5, out=f)
        c = f.view(np.int64)
        np.right_shift(c, self._shift, out=c)
        np.subtract(c, self._base, out=c)
        return c

    def ids(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        if self.splitters.size == 0:
            return np.zeros(keys.shape, dtype=np.uint32)
        return np.searchsorted(self.splitters, keys,
                               side="right").astype(np.uint32)

    def eval_into(self, keys: np.ndarray, out: np.ndarray, arena=None) -> None:
        keys = np.asarray(keys)
        # the allocation-free path needs identical comparison semantics
        # to searchsorted: same integer dtype on both sides (floats are
        # excluded — searchsorted sorts NaN last, less_equal doesn't)
        if (arena is None or self._table is None
                or keys.dtype != self.splitters.dtype):
            if self.splitters.size == 0:
                out[...] = 0
                return
            return super().eval_into(keys, out)
        n = keys.size
        pad = self._padded
        pos = arena.take("spec.split_pos", n, np.int64)
        f = arena.take("spec.split_f64", n, np.float64)
        tv = arena.take("spec.split_tv", n, pad.dtype)
        mask = arena.take("spec.split_mask", n, np.bool_)
        # the splitters in cells below the key's (every index is in
        # range, so mode="wrap" never wraps and skips take's buffering)
        np.take(self._table, self._cells(keys, f), out=pos, mode="wrap")
        # branchless binary search over the key's window: pos converges
        # to the number of splitters <= key, bit-identical to
        # searchsorted side="right"
        idx = f.view(np.int64)
        step = (1 << self._levels) >> 1
        while step:
            np.add(pos, step - 1, out=idx)
            np.take(pad, idx, out=tv, mode="wrap")
            np.less_equal(tv, keys, out=mask)
            np.multiply(mask, step, out=idx)
            np.add(pos, idx, out=pos)
            step >>= 1
        np.take(pad, pos, out=tv, mode="wrap")
        np.less_equal(tv, keys, out=mask)
        np.add(pos, mask, out=pos)
        # keys equal to the dtype maximum can walk into the padding;
        # their true rank is exactly L
        np.minimum(pos, self.splitters.size, out=out, casting="unsafe")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(m={self.num_buckets}, "
                f"dtype={self.splitters.dtype})")


class CustomBuckets(BucketSpec):
    """Wrap an arbitrary vectorized callable ``keys -> bucket ids``.

    Pass ``elementwise=True`` only when ``fn`` maps each key without
    looking at the rest of the array — it lets the sharded engine
    evaluate the spec per shard (in parallel) instead of once globally.
    """

    def __init__(self, fn, num_buckets: int, instruction_cost: int = 4, *,
                 elementwise: bool = False):
        super().__init__(num_buckets, instruction_cost=instruction_cost)
        self.fn = fn
        self.elementwise = bool(elementwise)

    def ids(self, keys: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(keys))
        if out.shape != keys.shape:
            raise ValueError(
                f"bucket function returned shape {out.shape} for keys of shape {keys.shape}"
            )
        if out.size and (int(out.min()) < 0 or int(out.max()) >= self.num_buckets):
            raise ValueError("bucket function produced out-of-range ids")
        return out.astype(np.uint32)


def as_bucket_spec(spec_or_fn, num_buckets: int | None = None) -> BucketSpec:
    """Coerce a :class:`BucketSpec` or a callable into a spec."""
    if isinstance(spec_or_fn, BucketSpec):
        if num_buckets is not None and int(num_buckets) != spec_or_fn.num_buckets:
            raise ValueError(
                f"num_buckets={num_buckets} does not match "
                f"{type(spec_or_fn).__name__}.num_buckets="
                f"{spec_or_fn.num_buckets}")
        return spec_or_fn
    if callable(spec_or_fn):
        if num_buckets is None:
            raise ValueError("num_buckets is required when passing a bare callable")
        return CustomBuckets(spec_or_fn, num_buckets)
    raise TypeError(f"expected BucketSpec or callable, got {type(spec_or_fn).__name__}")
