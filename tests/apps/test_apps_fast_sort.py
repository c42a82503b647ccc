"""Apps on the result-only sort family: golden equality vs emulate.

Each application pipeline must produce bit-identical output whichever
engine runs it — the emulated device path is the audited reference, and
the fast paths (engine-run multisplit + ``fast_radix_sort``) must
reproduce it exactly, stats included.
"""

import numpy as np
import pytest

from repro.apps.hash_join import hash_join
from repro.apps.string_sort import string_sort
from repro.apps.topk import top_k
from repro.engine.backends import available_backends

ENGINES = ["fast", "sharded", "auto"]


def backend_cells():
    """(engine, backend) cells beyond the plain-numpy ones."""
    cells = []
    if available_backends().get("numba"):
        cells.append(("fast", "numba"))
    return cells


@pytest.fixture(scope="module")
def join_golden():
    rng = np.random.default_rng(20)
    lk = rng.integers(0, 400, 3000, dtype=np.uint32)
    rk = rng.integers(0, 400, 2500, dtype=np.uint32)
    l0, r0 = hash_join(lk, rk, radix_bits=5)
    return lk, rk, l0, r0


@pytest.fixture(scope="module")
def strings_golden():
    rng = np.random.default_rng(21)
    strs = [bytes(rng.integers(97, 105, rng.integers(0, 14)).astype(np.uint8))
            for _ in range(600)]
    order, stats = string_sort(strs)
    return strs, order, stats


@pytest.fixture(scope="module")
def topk_golden():
    rng = np.random.default_rng(22)
    keys = rng.integers(0, 2**32, 60_000, dtype=np.uint32)
    out, stats = top_k(keys, 700, seed=4)
    return keys, out, stats


class TestHashJoin:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_match_emulate(self, engine, join_golden):
        lk, rk, l0, r0 = join_golden
        kw = {} if engine == "fast" else {"max_workers": 2}
        l1, r1 = hash_join(lk, rk, radix_bits=5, engine=engine, **kw)
        assert np.array_equal(l0, l1) and np.array_equal(r0, r1)

    @pytest.mark.parametrize("engine,backend", backend_cells())
    def test_backends_match_emulate(self, engine, backend, join_golden):
        lk, rk, l0, r0 = join_golden
        kw = {"max_workers": 2} if engine == "sharded" else {}
        l1, r1 = hash_join(lk, rk, radix_bits=5, engine=engine,
                           backend=backend, **kw)
        assert np.array_equal(l0, l1) and np.array_equal(r0, r1)

    def test_matches_nested_loop_oracle(self, join_golden):
        lk, rk, l0, r0 = join_golden
        l1, r1 = hash_join(lk, rk, radix_bits=5, engine="fast")
        assert np.array_equal(lk[l1], lk[l0])  # joined keys line up
        pairs = {(int(i), int(j)) for i, j in zip(l0, r0)}
        assert len(pairs) == l0.size
        sample = np.random.default_rng(0).integers(0, lk.size, 50)
        for i in sample:
            expect = {(int(i), int(j)) for j in np.flatnonzero(rk == lk[i])}
            assert {(a, b) for a, b in pairs if a == int(i)} == expect

    def test_rejects_device_with_fast_engine(self):
        from repro.simt import Device, K40C
        k = np.zeros(8, dtype=np.uint32)
        with pytest.raises(ValueError, match="device"):
            hash_join(k, k, engine="fast", device=Device(K40C))


class TestStringSort:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_match_emulate(self, engine, strings_golden):
        strs, order, stats = strings_golden
        kw = {} if engine == "fast" else {"max_workers": 2}
        o1, s1 = string_sort(strs, engine=engine, **kw)
        assert np.array_equal(order, o1)
        assert stats == s1  # rounds and eliminations identical

    @pytest.mark.parametrize("engine,backend", backend_cells())
    def test_backends_match_emulate(self, engine, backend, strings_golden):
        strs, order, stats = strings_golden
        kw = {"max_workers": 2} if engine == "sharded" else {}
        o1, s1 = string_sort(strs, engine=engine, backend=backend, **kw)
        assert np.array_equal(order, o1) and stats == s1

    def test_fast_order_is_sorted_and_stable(self, strings_golden):
        strs, _order, _stats = strings_golden
        o1, _ = string_sort(strs, engine="fast")
        assert [strs[i] for i in o1] == sorted(strs)
        # equal strings keep input order
        seen: dict[bytes, int] = {}
        for i in o1:
            s = bytes(strs[i])
            assert seen.get(s, -1) < i or strs[seen[s]] != s
            seen.setdefault(s, i)


class TestTopK:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_match_emulate(self, engine, topk_golden):
        keys, out, stats = topk_golden
        kw = {} if engine == "fast" else {"max_workers": 2}
        o1, s1 = top_k(keys, 700, seed=4, engine=engine, **kw)
        assert np.array_equal(out, o1)
        assert stats == s1  # same rng consumption, same recursion

    @pytest.mark.parametrize("engine,backend", backend_cells())
    def test_backends_match_emulate(self, engine, backend, topk_golden):
        keys, out, stats = topk_golden
        kw = {"max_workers": 2} if engine == "sharded" else {}
        o1, s1 = top_k(keys, 700, seed=4, engine=engine, backend=backend, **kw)
        assert np.array_equal(out, o1) and stats == s1

    def test_fast_is_exact(self, topk_golden):
        keys, out, _stats = topk_golden
        o1, _ = top_k(keys, 700, seed=4, engine="fast")
        assert np.array_equal(o1, np.sort(keys)[::-1][:700])
        assert np.array_equal(o1, out)
