"""The engine knob contract, one row per (entry point, engine, knobs).

Every entry point runs its ``engine=`` and knob checks through the one
engine resolver of :mod:`repro.multisplit.api`, so a knob the requested
engine does not take raises ``ValueError`` on all of them alike instead
of being accepted and then dropped.
"""

import numpy as np
import pytest

from repro.engine import multisplit_batch
from repro.multisplit import RangeBuckets, multisplit
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
    "fast_radix_sort": lambda engine, kw: fast_radix_sort(
        KEYS, engine=engine, **kw),
    "semisort": lambda engine, kw: semisort(KEYS, engine=engine, **kw),
}

RAISES, OK = True, False


@pytest.mark.parametrize(
    "entry,engine,knobs,raises",
    [
        # multisplit: the reference contract
        ("multisplit", "fast", {"shards": 2}, RAISES),
        ("multisplit", "fast", {"max_workers": 2}, RAISES),
        ("multisplit", "fast", {"chunk_bytes": 64}, RAISES),
        ("multisplit", "fast", {"out": out}, RAISES),
        ("multisplit", "fast", {"backend": "numpy"}, OK),
        ("multisplit", "emulate", {"max_workers": 2}, RAISES),
        ("multisplit", "emulate", {"backend": "numpy"}, RAISES),
        ("multisplit", "sharded", {"shards": 2, "max_workers": 2}, OK),
        ("multisplit", "sharded", {"out": out}, RAISES),
        ("multisplit", "stream", {"shards": 7}, RAISES),
        ("multisplit", "stream", {"max_workers": 2, "chunk_bytes": 64}, OK),
        ("multisplit", "auto", {"shards": 2}, OK),
        ("multisplit", "auto", {"chunk_bytes": 64, "out": out}, OK),
        ("multisplit", "auto", {"shards": 2, "chunk_bytes": 64}, RAISES),
        # multisplit_batch: per-call knobs follow multisplit's contract
        ("multisplit_batch", "fast", {"out": out}, RAISES),
        ("multisplit_batch", "fast", {"chunk_bytes": 1024}, RAISES),
        ("multisplit_batch", "fast", {"shards": 2}, RAISES),
        ("multisplit_batch", "fast", {"max_workers": 2}, OK),  # pool width
        ("multisplit_batch", "fast", {"backend": "numpy"}, OK),
        ("multisplit_batch", "emulate", {"shards": 2}, RAISES),
        ("multisplit_batch", "sharded", {"shards": 2, "max_workers": 2}, OK),
        ("multisplit_batch", "stream", {"shards": 7}, RAISES),
        ("multisplit_batch", "stream", {"chunk_bytes": 64}, OK),
        ("multisplit_batch", "auto", {"shards": 2, "chunk_bytes": 64}, RAISES),
        # fast_radix_sort
        ("fast_radix_sort", "auto", {"shards": 7, "chunk_bytes": 1024}, RAISES),
        ("fast_radix_sort", "auto", {"shards": 2}, OK),
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
        ("semisort", "sharded", {"shards": 2, "max_workers": 2}, OK),
        ("semisort", "auto", {"max_workers": 2}, OK),
    ],
)
def test_knob_contract(entry, engine, knobs, raises):
    kw = {k: v() if callable(v) else v for k, v in knobs.items()}
    call = ENTRY_POINTS[entry]
    if raises:
        with pytest.raises(ValueError):
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
