"""Probabilistic top-k selection (paper Section 1; Monroe et al. [22]).

Monroe's randomized GPU selection has "a core multisplit operation of
three bins around two pivots": keys above the upper pivot certainly
belong to the top-k, keys below the lower pivot certainly do not, and
only the (small, with high probability) middle bin recurses. The
pivots come from order statistics of a uniform sample.

``engine="emulate"`` (default) charges every pass to the emulated
device; a result-only engine (``"fast"``/``"sharded"``/``"auto"``)
runs the identical recursion with the pivot multisplit on the selected
engine and the base-case sorts on
:func:`repro.sort.fast_radix_sort`. The sampling rng is consumed
identically, so results and ``stats`` match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.multisplit import multisplit, CustomBuckets
from repro.simt.config import K40C
from repro.simt.device import Device

__all__ = ["top_k"]

_SAMPLE = 4096
_MARGIN = 0.05
_SMALL = 256


def top_k(keys: np.ndarray, k: int, *, device: Device | None = None,
          seed: int = 0, engine: str = "emulate",
          max_workers: int | None = None):
    """Exact top-``k`` keys in descending order; returns ``(topk, stats)``.

    ``stats`` counts the recursive multisplit passes and the largest
    middle-bin size (the probabilistic part: how much escaped certain
    classification).
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint32)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    emulate = engine == "emulate"
    if not emulate and device is not None:
        raise ValueError(
            "device= is the emulated pipeline's knob; with a result-only "
            f"engine ({engine!r}) there is no device to account against")
    if emulate:
        split_kw: dict = {"device": device or Device(K40C)}
    else:
        split_kw = {"engine": engine, "max_workers": max_workers}
    rng = np.random.default_rng(seed)
    stats = {"passes": 0, "max_middle": 0}
    out = _select(keys, min(k, keys.size), split_kw, rng, stats)
    return out, stats


def _sort_desc(keys: np.ndarray, split_kw: dict) -> np.ndarray:
    """Descending total sort for the base cases."""
    if "device" in split_kw:
        return np.sort(keys)[::-1].copy()
    from repro.sort.fast_radix import fast_radix_sort
    sk, _ = fast_radix_sort(keys, engine=split_kw["engine"],
                            max_workers=split_kw.get("max_workers"))
    return sk[::-1].copy()


def _select(keys: np.ndarray, k: int, split_kw: dict, rng, stats) -> np.ndarray:
    n = keys.size
    if k <= 0:
        return np.zeros(0, dtype=keys.dtype)
    if k >= n or n <= _SMALL:
        # small residuals sort directly (the real kernel's base case)
        return _sort_desc(keys, split_kw)[:k]
    stats["passes"] += 1
    sample = np.sort(rng.choice(keys, size=min(_SAMPLE, n), replace=False))
    frac = 1.0 - k / n
    lo = sample[int(max(0, (frac - _MARGIN) * sample.size))]
    hi = sample[int(min(sample.size - 1, (frac + _MARGIN) * sample.size))]

    spec = CustomBuckets(
        lambda x: np.where(x > hi, 0, np.where(x >= lo, 1, 2)).astype(np.uint32),
        3, instruction_cost=4, elementwise=True)
    res = multisplit(keys, spec, method="warp", **split_kw)
    sure = res.bucket(0)
    middle = res.bucket(1)
    stats["max_middle"] = max(stats["max_middle"], int(middle.size))
    if middle.size == n:
        # degenerate pivots (duplicate-heavy input): no progress possible
        return _sort_desc(keys, split_kw)[:k]
    if sure.size > k:  # pivots too low: the answer lies inside the sure set
        return _select(sure, k, split_kw, rng, stats)
    need = k - sure.size
    if need > middle.size:  # pivots too high: pull from the rest as well
        rest = _select(np.concatenate([middle, res.bucket(2)]), need, split_kw,
                       rng, stats)
    else:
        rest = _select(middle, need, split_kw, rng, stats)
    return _sort_desc(np.concatenate([sure, rest]), split_kw)