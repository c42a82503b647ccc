"""Hypothesis differential test of ``semisort`` against a dict-of-lists
oracle (group key -> input indices, in input order), over size (across
``SEMISORT_TINY_N``, so the tiny, uniform and heavy strategies all run),
key dtype, key layout, key/value mode, ``by=`` grouping, digit width
and engine. Under ``engine="sharded"`` every radix pass runs through the
{local, global, local} core.
"""

from collections import defaultdict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sort import SEMISORT_TINY_N, semisort
from tests.shards import fixed_shards

DTYPES = {"int64": np.int64, "uint32": np.uint32, "int16": np.int16}


def draw_keys(dtype, n: int, layout: str, rng) -> np.ndarray:
    info = np.iinfo(dtype)

    def uniform(size):
        return rng.integers(info.min, info.max, size, dtype=dtype,
                            endpoint=True)

    if layout == "few":
        return uniform(5)[rng.integers(0, 5, n)]
    if layout == "heavy":
        # ~half the keys come from three hot keys
        keys = uniform(n)
        hot = rng.random(n) < 0.5
        keys[hot] = uniform(3)[rng.integers(0, 3, int(hot.sum()))]
        return keys
    if layout == "one":
        return np.repeat(uniform(1), n)
    return uniform(n)


def expected_strategy(n: int, layout: str) -> str:
    if n <= SEMISORT_TINY_N:
        return "tiny"
    return "uniform" if layout == "uniform" else "heavy"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 6000),
       dtype=st.sampled_from(sorted(DTYPES)),
       layout=st.sampled_from(["uniform", "few", "heavy", "one"]),
       kv=st.booleans(),
       by=st.booleans(),
       digit_bits=st.sampled_from([4, 8, 12]),
       engine=st.sampled_from(["fast", "sharded", "auto"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=700, dtype="int16", layout="few", kv=True, by=True,
         digit_bits=8, engine="sharded", seed=0)
@example(n=5000, dtype="uint32", layout="uniform", kv=True, by=False,
         digit_bits=4, engine="sharded", seed=1)
@example(n=6000, dtype="int64", layout="heavy", kv=False, by=True,
         digit_bits=12, engine="fast", seed=2)
@example(n=4000, dtype="int16", layout="one", kv=True, by=False,
         digit_bits=8, engine="auto", seed=3)
def test_semisort_matches_group_oracle(n, dtype, layout, kv, by, digit_bits,
                                       engine, seed):
    rng = np.random.default_rng(seed)
    gkeys = draw_keys(DTYPES[dtype], n, layout, rng)
    # by=: float64 records that encode their own input index, grouped
    # by the integer keys; otherwise the keys are the records
    records = np.arange(n, dtype=np.float64) * 0.5 if by else gkeys
    values = rng.integers(0, 2**40, n, dtype=np.int64) if kv else None
    kw = {"digit_bits": digit_bits, "engine": engine}
    if engine == "sharded":
        kw.update(max_workers=2)
    if by:
        kw["by"] = gkeys

    oracle = defaultdict(list)
    for i, k in enumerate(gkeys.tolist()):
        oracle[k].append(i)

    # several shards per pass on the sharded engine
    with fixed_shards(3 if engine == "sharded" else None):
        res = semisort(records, values, **kw)
    assert res.strategy == expected_strategy(n, layout)
    assert res.keys.dtype == records.dtype
    starts = res.group_starts
    assert starts.size == len(oracle)
    if n:
        assert starts[0] == 0
        assert (np.diff(starts) > 0).all()
    bounds = list(starts) + [n]
    seen = set()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        recs = res.keys[lo:hi]
        key = (gkeys[int(recs[0] * 2)] if by else recs[0]).item()
        assert key not in seen
        seen.add(key)
        idx = np.asarray(oracle[key])
        assert np.array_equal(recs, records[idx])
        if kv:
            assert np.array_equal(res.values[lo:hi], values[idx])
        else:
            assert res.values is None
    assert seen == set(oracle)

    again = semisort(records, values, **kw)
    assert again.strategy == res.strategy
    assert np.array_equal(again.keys, res.keys)
    assert np.array_equal(again.group_starts, res.group_starts)
    if kv:
        assert np.array_equal(again.values, res.values)
