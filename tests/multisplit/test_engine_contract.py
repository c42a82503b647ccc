"""The engine knob and key contracts, one row per case.

Every entry point runs its ``engine=`` and knob checks through the one
engine resolver of :mod:`repro.multisplit.api`, so a knob the requested
engine does not take raises ``ValueError`` on all of them alike instead
of being accepted and then dropped. A name that no engine takes — a
misspelt knob, or ``shards=``, which the shard count replaced when it
began to follow the bucket count — raises ``TypeError``. Keys get one
coercion on every engine: a 0-D key raises ``ValueError`` and a key
dtype that is not bool, integer or floating raises ``TypeError``.
"""

import numpy as np
import pytest

from repro.engine import coalesced_multisplit_batch, multisplit_batch
from repro.multisplit import (RangeBuckets, SplitterBuckets, multisplit,
                              reference_multisplit)
from repro.sort import fast_radix_sort, semisort

N = 64
KEYS = np.arange(N, dtype=np.uint32)[::-1].copy()
SPEC = RangeBuckets(N, 0, N)  # one bucket per key: results are sorted


def out():
    return np.empty(N, dtype=np.uint32)


ENTRY_POINTS = {
    "multisplit": lambda engine, kw: multisplit(
        KEYS, SPEC, method="block", engine=engine, **kw),
    "multisplit_batch": lambda engine, kw: multisplit_batch(
        [KEYS], SPEC, method="block", engine=engine, **kw),
    "fast_radix_sort": lambda engine, kw, keys=KEYS: fast_radix_sort(
        keys, engine=engine, **kw),
    "semisort": lambda engine, kw, keys=KEYS: semisort(
        keys, engine=engine, **kw),
}
SORTS = ("fast_radix_sort", "semisort")

RAISES, OK = True, False
# names no engine takes: they raise TypeError, not ValueError
UNKNOWN = {"shards", "max_worker", "chunk_byte"}
MISSPELT = {"max_worker": 2, "chunk_byte": 5}


KNOB_ROWS = [
    # multisplit: the reference contract
    ("multisplit", "fast", {"shards": 2}, RAISES),
    ("multisplit", "fast", {"max_workers": 2}, RAISES),
    ("multisplit", "fast", {"chunk_bytes": 64}, RAISES),
    ("multisplit", "fast", {"out": out}, RAISES),
    ("multisplit", "fast", {"backend": "numpy"}, OK),
    ("multisplit", "emulate", {"max_workers": 2}, RAISES),
    ("multisplit", "emulate", {"backend": "numpy"}, RAISES),
    ("multisplit", "sharded", {"max_workers": 2}, OK),
    ("multisplit", "sharded", {"out": out}, RAISES),
    ("multisplit", "stream", {"shards": 7}, RAISES),
    ("multisplit", "stream", {"max_workers": 2, "chunk_bytes": 64}, OK),
    ("multisplit", "auto", {"max_workers": 2}, OK),
    ("multisplit", "auto", {"chunk_bytes": 64, "out": out}, OK),
    ("multisplit", "auto", {"shards": 2, "chunk_bytes": 64}, RAISES),
    # multisplit_batch: per-call knobs follow multisplit's contract
    ("multisplit_batch", "fast", {"out": out}, RAISES),
    ("multisplit_batch", "fast", {"chunk_bytes": 1024}, RAISES),
    ("multisplit_batch", "fast", {"shards": 2}, RAISES),
    ("multisplit_batch", "fast", {"max_workers": 2}, OK),  # pool width
    ("multisplit_batch", "fast", {"backend": "numpy"}, OK),
    ("multisplit_batch", "emulate", {"shards": 2}, RAISES),
    ("multisplit_batch", "sharded", {"max_workers": 2}, OK),
    ("multisplit_batch", "stream", {"shards": 7}, RAISES),
    ("multisplit_batch", "stream", {"chunk_bytes": 64}, OK),
    ("multisplit_batch", "auto", {"shards": 2, "chunk_bytes": 64}, RAISES),
    # fast_radix_sort
    ("fast_radix_sort", "auto", {"shards": 7, "chunk_bytes": 1024}, RAISES),
    ("fast_radix_sort", "auto", {"max_workers": 2}, OK),
    ("fast_radix_sort", "auto", {"chunk_bytes": 64}, OK),
    ("fast_radix_sort", "fast", {"max_workers": 2}, RAISES),
    ("fast_radix_sort", "sharded", {"chunk_bytes": 64}, RAISES),
    ("fast_radix_sort", "stream", {"shards": 2}, RAISES),
    ("fast_radix_sort", "stream", {"max_workers": 2}, OK),
    ("fast_radix_sort", "emulate", {}, RAISES),
    # semisort (tiny inputs check the same contract)
    ("semisort", "fast", {"shards": 2}, RAISES),
    ("semisort", "fast", {"max_workers": 2}, RAISES),
    ("semisort", "stream", {"shards": 2}, RAISES),
    ("semisort", "emulate", {}, RAISES),
    ("semisort", "sharded", {"max_workers": 2}, OK),
    ("semisort", "auto", {"max_workers": 2}, OK),
    # shards= on the engines the rows above leave out
    ("multisplit", "emulate", {"shards": 2}, RAISES),
    ("multisplit", "sharded", {"shards": 2}, RAISES),
    ("multisplit", "auto", {"shards": 2}, RAISES),
    ("multisplit_batch", "sharded", {"shards": 2}, RAISES),
    ("multisplit_batch", "auto", {"shards": 2}, RAISES),
    ("fast_radix_sort", "sharded", {"shards": 2}, RAISES),
    ("semisort", "sharded", {"shards": 2}, RAISES),
    ("semisort", "auto", {"shards": 2}, RAISES),
    # misspelt knobs, on every entry point and engine
    ("multisplit", "emulate", MISSPELT, RAISES),
    ("multisplit", "fast", MISSPELT, RAISES),
    ("multisplit", "sharded", MISSPELT, RAISES),
    ("multisplit", "stream", MISSPELT, RAISES),
    ("multisplit", "auto", MISSPELT, RAISES),
    ("multisplit_batch", "emulate", MISSPELT, RAISES),
    ("multisplit_batch", "fast", MISSPELT, RAISES),
    ("multisplit_batch", "sharded", MISSPELT, RAISES),
    ("multisplit_batch", "stream", MISSPELT, RAISES),
    ("multisplit_batch", "auto", MISSPELT, RAISES),
    ("fast_radix_sort", "fast", MISSPELT, RAISES),
    ("fast_radix_sort", "sharded", MISSPELT, RAISES),
    ("fast_radix_sort", "stream", MISSPELT, RAISES),
    ("fast_radix_sort", "auto", MISSPELT, RAISES),
    ("semisort", "fast", MISSPELT, RAISES),
    ("semisort", "sharded", MISSPELT, RAISES),
    ("semisort", "stream", MISSPELT, RAISES),
    ("semisort", "auto", MISSPELT, RAISES),
]


@pytest.mark.parametrize("entry,engine,knobs,raises", KNOB_ROWS)
def test_knob_contract(entry, engine, knobs, raises):
    kw = {k: v() if callable(v) else v for k, v in knobs.items()}
    call = ENTRY_POINTS[entry]
    if raises:
        with pytest.raises(TypeError if UNKNOWN & kw.keys() else ValueError):
            call(engine, kw)
        return
    res = call(engine, kw)
    if entry == "multisplit_batch":
        res = res[0]
    if entry in ("multisplit", "multisplit_batch"):
        assert np.array_equal(res.keys, np.sort(KEYS))
    elif entry == "fast_radix_sort":
        assert np.array_equal(res[0], np.sort(KEYS))
    else:
        assert np.array_equal(np.sort(res.keys), np.sort(KEYS))


@pytest.mark.parametrize("entry,engine,knobs,raises",
                         [row for row in KNOB_ROWS if row[0] in SORTS])
def test_sort_knob_contract_on_empty_keys(entry, engine, knobs, raises):
    # the engine and its knobs are checked before the empty-input
    # shortcut, so an empty array rejects what 64 keys reject
    empty = np.empty(0, dtype=np.uint32)
    call = ENTRY_POINTS[entry]
    if raises:
        with pytest.raises(TypeError if UNKNOWN & knobs.keys() else ValueError):
            call(engine, knobs, empty)
        return
    res = call(engine, knobs, empty)
    assert (res[0] if entry == "fast_radix_sort" else res.keys).size == 0


SPLITTERS = SplitterBuckets([1, 2, 3])
KEY_ENGINES = {
    "emulate": lambda keys: multisplit(keys, SPLITTERS, engine="emulate"),
    "fast": lambda keys: multisplit(keys, SPLITTERS, engine="fast"),
    "sharded": lambda keys: multisplit(keys, SPLITTERS, engine="sharded"),
    "stream": lambda keys: multisplit(keys, SPLITTERS, engine="stream"),
    "auto": lambda keys: multisplit(keys, SPLITTERS, engine="auto"),
    "coalesced": lambda keys: coalesced_multisplit_batch(
        [keys, np.arange(4, dtype=np.uint32)], SPLITTERS),
    "fast_radix_sort": lambda keys: fast_radix_sort(keys),
    "semisort": lambda keys: semisort(keys),
}
BAD_KEYS = {
    "0-D scalar": (np.uint32(5), ValueError, r"1-D, got shape \(\)"),
    "0-D array": (np.array(5, dtype=np.uint32), ValueError,
                  r"1-D, got shape \(\)"),
    "object": (np.array([2, 1], dtype=object), TypeError, "dtype object"),
    "str": (np.array(["b", "a"]), TypeError, "dtype <U1"),
    "complex": (np.array([2j, 1j]), TypeError, "dtype complex128"),
    "datetime64": (np.array(["2016-03-12", "2016-03-13"],
                            dtype="datetime64[D]"),
                   TypeError, r"dtype datetime64\[D\]"),
}


@pytest.mark.parametrize("bad", list(BAD_KEYS))
@pytest.mark.parametrize("engine", list(KEY_ENGINES))
def test_key_contract(engine, bad):
    keys, error, message = BAD_KEYS[bad]
    with pytest.raises(error, match=message):
        KEY_ENGINES[engine](keys)


# sort-based multisplit radix-sorts the keys themselves: one rule set
# (repro.multisplit.reduced_bit.sort_based_counts) on both engines
SORT_BASED_KEYS = {
    "float32": (np.array([2.7, 2.2, 1.5, 1.9, 0.3], np.float32), TypeError,
                "radix_sort requires integer keys"),
    "float64": (np.array([2.7, 2.2, 1.5, 1.9, 0.3]), TypeError,
                "radix_sort requires integer keys"),
    "bool": (np.array([True, False, True]), TypeError,
             "radix_sort requires integer keys"),
    "negative int32": (np.array([5, -3, 2, -1, 7], np.int32), ValueError,
                       "negative signed keys would sort last"),
}


@pytest.mark.parametrize("bad", list(SORT_BASED_KEYS))
@pytest.mark.parametrize("engine", ["emulate", "fast"])
def test_sort_based_key_contract(engine, bad):
    keys, error, message = SORT_BASED_KEYS[bad]

    def halves(k):  # monotone in the key for every dtype above
        return (k >= 2).astype(np.uint32)

    with pytest.raises(error, match=message):
        multisplit(keys, halves, 2, method="radix_sort", engine=engine)


# reduced-bit packs a (key, value) pair into one 64-bit word, so it
# takes 4-byte keys with values of at most 4 bytes; "auto" picks block
# for any other pair above 128 buckets, and an explicit reduced_bit
# raises on every engine
PAIR_VALUES = ["int8", "int16", "int32", "int64", "uint64", "float32",
               "float64"]


@pytest.mark.parametrize("method", ["auto", "reduced_bit"])
@pytest.mark.parametrize("engine", ["emulate", "fast"])
@pytest.mark.parametrize("key_dtype", ["uint32", "float32"])
@pytest.mark.parametrize("value_dtype", PAIR_VALUES)
def test_reduced_bit_pair_contract(value_dtype, key_dtype, engine, method):
    rng = np.random.default_rng(35)
    n = 2000
    if key_dtype == "uint32":
        keys, spec = rng.integers(0, 2**32, n, np.uint32), RangeBuckets(200)
    else:
        keys, spec = rng.random(n, np.float32), RangeBuckets(200, 0, 1)
    if value_dtype == "uint64":  # bits above the low 32
        values = rng.integers(2**32, 2**40, n, np.uint64)
    else:
        values = rng.integers(-1000, 1000, n).astype(value_dtype)
    packs = np.dtype(value_dtype).itemsize <= 4
    if method == "reduced_bit" and not packs:
        with pytest.raises(ValueError, match="packs"):
            multisplit(keys, spec, values=values, method=method, engine=engine)
        return
    res = multisplit(keys, spec, values=values, method=method, engine=engine)
    assert res.method == ("reduced_bit" if packs else "block")
    ref_keys, ref_values, ref_starts = reference_multisplit(keys, spec, values)
    assert np.array_equal(res.keys, ref_keys)
    assert np.array_equal(res.values, ref_values)
    assert np.array_equal(res.bucket_starts, ref_starts)
