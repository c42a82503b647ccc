"""Hypothesis differential test of ``fast_radix_sort`` against the stable
oracle (:func:`repro.sort.reference.stable_sort_pairs`), over dtype,
size, key layout, key/value mode, digit width and engine — including
``engine="auto"``'s routing, with the sharded floor lowered so small
inputs exercise it.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import collecting
from repro.sort import fast_radix_sort, stable_sort_pairs

DTYPES = {"uint8": np.uint8, "int16": np.int16, "uint32": np.uint32,
          "int64": np.int64, "uint64": np.uint64}
# sharded floor for engine="auto" inside the test
AUTO_FLOOR = 1024


def draw_keys(dtype, n: int, layout: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    if layout == "few":
        pool = rng.integers(info.min, info.max, 3, dtype=dtype, endpoint=True)
        keys = pool[rng.integers(0, 3, n)]
    else:
        keys = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
    return np.sort(keys) if layout == "sorted" else keys


def expected_engine(engine: str, n: int) -> str:
    if engine != "auto":
        return engine
    return "sharded" if n >= AUTO_FLOOR else "fast"


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from(sorted(DTYPES)),
       n=st.integers(0, 2500),
       layout=st.sampled_from(["uniform", "few", "sorted"]),
       kv=st.booleans(),
       digit_bits=st.integers(1, 16),
       engine=st.sampled_from(["fast", "sharded", "stream", "auto"]),
       chunk_bytes=st.integers(256, 1 << 14),
       seed=st.integers(0, 2**32 - 1))
@example(dtype="uint8", n=0, layout="uniform", kv=True, digit_bits=8,
         engine="stream", chunk_bytes=256, seed=0)
@example(dtype="int64", n=1, layout="few", kv=False, digit_bits=16,
         engine="sharded", chunk_bytes=256, seed=1)
@example(dtype="uint32", n=2000, layout="uniform", kv=True, digit_bits=12,
         engine="auto", chunk_bytes=256, seed=2)
@example(dtype="int16", n=2000, layout="uniform", kv=True, digit_bits=8,
         engine="auto", chunk_bytes=256, seed=3)
def test_fast_radix_sort_matches_oracle(dtype, n, layout, kv, digit_bits,
                                        engine, chunk_bytes, seed):
    keys = draw_keys(DTYPES[dtype], n, layout, seed)
    values = np.arange(n, dtype=np.uint32) if kv else None
    kw = {"engine": engine, "digit_bits": digit_bits}
    if engine != "fast":
        kw["max_workers"] = 2
    if engine == "stream":
        kw["chunk_bytes"] = chunk_bytes
    with mock.patch("repro.engine.sharded.SHARDED_AUTO_MIN_N", AUTO_FLOOR), \
            collecting() as reg:
        sk, sv = fast_radix_sort(keys, values, **kw)
    rk, rv = stable_sort_pairs(keys, values)
    assert sk.dtype == keys.dtype
    assert np.array_equal(sk, rk)
    if kv:
        assert np.array_equal(sv, rv)
    else:
        assert sv is None
    if n:
        ran = expected_engine(engine, n)
        assert reg.value("sort.fast.calls", kind="radix", engine=ran) == 1
