"""Hypothesis differential test of the production {local, global, local}
core: ``sharded_multisplit`` and ``stream_multisplit`` must equal the
stable-argsort oracle (:func:`reference_multisplit`) exactly, for every
dtype, size, bucket count, key/value mode, chunk budget, shard count,
worker count and key-source kind.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import sharded_multisplit, stream_multisplit
from repro.multisplit import CustomBuckets, SplitterBuckets
from repro.multisplit.validate import reference_multisplit

DTYPES = {"uint32": np.uint32, "int64": np.int64, "uint64": np.uint64}


def draw_keys(dtype, n: int, layout: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    if layout == "few":
        pool = rng.integers(info.min, info.max, 3, dtype=dtype, endpoint=True)
        keys = pool[rng.integers(0, 3, n)]
    else:
        keys = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    return np.sort(keys) if layout == "sorted" else keys


def splitter_spec(dtype, m: int, seed: int) -> SplitterBuckets:
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed + 1)
    splitters = np.sort(
        rng.integers(info.min, info.max, m - 1, dtype=dtype, endpoint=True))
    return SplitterBuckets(splitters, num_buckets=m)


def rank_spec(m: int) -> CustomBuckets:
    """Whole-array bucketing: a key's bucket depends on its rank."""
    def fn(keys):
        ranks = np.argsort(np.argsort(keys, kind="stable"), kind="stable")
        return (ranks * m // max(keys.size, 1)).astype(np.int64)
    return CustomBuckets(fn, num_buckets=m)


def chunk_bounds(n: int, cuts: list[int]) -> list[tuple[int, int]]:
    edges = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return list(zip(edges[:-1], edges[1:]))


def as_source(arr, kind: str, bounds):
    if arr is None or kind == "array":
        return arr
    if kind == "callable":
        return lambda: (arr[lo:hi] for lo, hi in bounds)
    return iter([arr[lo:hi] for lo, hi in bounds])


def assert_oracle(res, ref_keys, ref_values, ref_starts):
    assert np.array_equal(np.asarray(res.keys), ref_keys)
    assert np.asarray(res.keys).dtype == ref_keys.dtype
    if ref_values is None:
        assert res.values is None
    else:
        assert np.array_equal(np.asarray(res.values), ref_values)
        assert np.asarray(res.values).dtype == ref_values.dtype
    assert np.array_equal(np.asarray(res.bucket_starts), ref_starts)


@settings(max_examples=80, deadline=None)
@given(dtype=st.sampled_from(sorted(DTYPES)),
       n=st.integers(0, 3000),
       m=st.sampled_from([1, 2, 5, 32, 257, 4000]),
       layout=st.sampled_from(["uniform", "few", "sorted"]),
       vdtype=st.sampled_from([None, "uint32", "int64"]),
       elementwise=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       shards=st.one_of(st.none(), st.integers(1, 64)),
       max_workers=st.integers(1, 3),
       chunk_bytes=st.one_of(st.none(), st.integers(1, 8192)),
       kind=st.sampled_from(["array", "callable", "iterator"]),
       cuts=st.lists(st.integers(0, 3000), max_size=6))
@example(dtype="uint32", n=0, m=1, layout="uniform", vdtype="uint32",
         elementwise=True, seed=0, shards=None, max_workers=2,
         chunk_bytes=None, kind="array", cuts=[])
@example(dtype="uint64", n=1, m=4000, layout="uniform", vdtype=None,
         elementwise=False, seed=1, shards=3, max_workers=1, chunk_bytes=1,
         kind="iterator", cuts=[])
@example(dtype="int64", n=700, m=257, layout="sorted", vdtype="int64",
         elementwise=True, seed=2, shards=5, max_workers=3, chunk_bytes=64,
         kind="callable", cuts=[100, 350])
def test_core_matches_reference(dtype, n, m, layout, vdtype, elementwise,
                                seed, shards, max_workers, chunk_bytes, kind,
                                cuts):
    dt = DTYPES[dtype]
    keys = draw_keys(dt, n, layout, seed)
    values = np.arange(n).astype(DTYPES[vdtype]) if vdtype else None
    spec = splitter_spec(dt, m, seed) if elementwise else rank_spec(m)
    ref = reference_multisplit(keys, spec, values)

    res = sharded_multisplit(keys, spec, values=values, method="block",
                             shards=shards, max_workers=max_workers)
    assert_oracle(res, *ref)
    assert res.extra["engine"] == "sharded"

    if not elementwise:
        return  # the stream engine requires an elementwise spec
    bounds = chunk_bounds(n, cuts)
    if kind != "array" and not bounds:
        return  # a chunked source must yield at least one chunk
    res = stream_multisplit(as_source(keys, kind, bounds), spec,
                            values=as_source(values, kind, bounds),
                            method="block", chunk_bytes=chunk_bytes,
                            max_workers=max_workers)
    assert_oracle(res, *ref)
    assert res.extra["engine"] == "stream"
