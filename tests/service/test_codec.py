"""The integer list codec at its boundaries: every digit count, both ends
of every integer dtype, and the bodies it must leave to ``json``."""

import json

import numpy as np
import pytest

from repro.service.codec import format_int_list, parse_int_list
from repro.service.protocol import parse_request_line

INT_DTYPES = ["int8", "uint8", "int16", "uint16", "int32", "uint32",
              "int64", "uint64"]


def boundary_values(dtype) -> np.ndarray:
    """0, the dtype's bounds, and 10**k - 1, 10**k (and their negations)
    for every k the dtype holds."""
    info = np.iinfo(dtype)
    vals = {0, int(info.min), int(info.max)}
    for k in range(21):
        for v in (10**k - 1, 10**k):
            vals.update(x for x in (v, -v) if info.min <= x <= info.max)
    return np.array(sorted(vals), dtype=dtype)


def json_body(arr) -> bytes:
    return json.dumps(arr.tolist(), separators=(",", ":"))[1:-1].encode()


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_format_equals_json(dtype):
    vals = boundary_values(dtype)
    rng = np.random.default_rng(0)
    for arr in (vals, rng.permutation(vals), vals[:1], vals[-1:],
                np.zeros(5, dtype), np.empty(0, dtype)):
        assert format_int_list(arr) == json_body(arr)


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_parse_reads_what_format_prints(dtype):
    info = np.iinfo(dtype)
    vals = boundary_values(dtype)
    if info.bits == 64:
        # a 64-bit bound may be a saturated literal: json reads those
        assert parse_int_list(json_body(vals), np.dtype(dtype)) is None
        vals = vals[(vals != info.min) & (vals != info.max)]
    got = parse_int_list(json_body(vals), np.dtype(dtype))
    assert got.dtype == np.dtype(dtype) and np.array_equal(got, vals)


@pytest.mark.parametrize("body", [
    b"007", b"1,00", b"-0", b"-01", b"+5", b"1e3", b"1.5", b"1 ,2", b" 1",
    b"1, ,2", b"1,-,2", b"-", b"1,2,", b",1", b"1,,2", b"1--2", b"0x10",
    b"18446744073709551616", b"99999999999999999999",
    b"-99999999999999999999", b'"1"', b"true", b"null", b"\xff",
])
@pytest.mark.parametrize("dtype", ["int64", "uint64", "uint32"])
def test_parse_leaves_non_canonical_bodies_to_json(body, dtype):
    assert parse_int_list(body, np.dtype(dtype)) is None


@pytest.mark.parametrize("line", [
    b'{"id":1,"op":"sort","keys":[3,1,2]}',
    b'{"id":1,"op":"sort","dtype":"int64","keys":[-3,0,2],'
    b'"values_dtype":"uint8","values":[255,0,7]}\n',
    b'{"id":1,"op":"multisplit","spec":{"kind":"range","num_buckets":4},'
    b'"values":[9,8],"keys":[1,2],"method":"auto"}',
])
def test_compact_integer_lists_are_read_by_the_codec(line):
    obj = parse_request_line(line)
    want = json.loads(line)
    for name in ("keys", "values"):
        if name in want:
            assert isinstance(obj[name], np.ndarray)
            assert obj[name].tolist() == want[name]
    assert {k: v for k, v in obj.items() if k not in ("keys", "values")} \
        == {k: v for k, v in want.items() if k not in ("keys", "values")}
