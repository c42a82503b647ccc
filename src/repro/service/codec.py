"""Integer lists as JSON text, read and printed by numpy.

Nearly every byte of a service request or response line is an integer
list: a request's ``keys`` and ``values``, a response's ``keys``,
``values`` and ``bucket_starts``. ``json`` turns each element into a
Python ``int`` and back; these two functions go straight between a
list's text and an array instead.

- :func:`parse_int_list` reads a list body (``12,-3,0``, the text
  between the brackets) with ``np.fromstring``. It returns None unless
  the body is exactly the text ``json.dumps`` writes for the integers it
  holds, each in range of the dtype. On None the caller decodes the
  line with ``json``, so every line decodes to what ``json`` gives.
- :func:`format_int_list` prints an integer array as that text, byte
  for byte what ``json.dumps(arr.tolist())`` writes between the
  brackets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["parse_int_list", "format_int_list"]

# the bytes of a canonical list body; ``np.fromstring`` also takes blanks
# and a ``+`` sign, and reads a blank or lone sign between commas as 0
_BODY_BYTES = b"0123456789,-"
# 10, 100, ..., 10**19: a magnitude's digit count is one more than the
# number of these it is at least
_POW10 = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)


def parse_int_list(body: bytes, dtype: np.dtype) -> np.ndarray | None:
    """The integers of a JSON list body as a ``dtype`` array, or None
    when the body is not the canonical text of in-range integers
    (blanks, ``+``, leading zeros, ``-0``, exponents, non-integers)."""
    if not body:
        return np.empty(0, dtype)
    if body.translate(None, _BODY_BYTES):
        return None
    signed = dtype.kind == "i"
    minus = b"-" in body
    if minus and not signed:
        return None
    wide = np.int64 if signed else np.uint64
    try:
        arr = np.fromstring(body, dtype=wide, sep=",")
    except ValueError:
        return None
    if not arr.size:
        return None
    lo, hi = arr.min(), arr.max()
    bounds, info = np.iinfo(wide), np.iinfo(dtype)
    # fromstring saturates a literal past the wide dtype's range to one
    # of its bounds, so a bound itself takes the json path
    if hi == bounds.max or (signed and lo == bounds.min):
        return None
    if lo < info.min or hi > info.max:
        return None
    # Each element's text is at least its canonical form ("-" only for a
    # negative value, no leading zeros), so matching the body's length
    # proves every element canonical. The "-" count catches a lone "-",
    # which reads as 0.
    mag, negatives = arr, 0
    if minus:
        negatives = int(np.count_nonzero(arr < 0))
        if body.count(b"-") != negatives:
            return None
        mag = np.abs(arr)
    digits = int(np.searchsorted(_POW10, mag.view(np.uint64), side="right")
                 .sum()) + arr.size
    if len(body) != digits + negatives + arr.size - 1:
        return None
    return arr.astype(dtype, copy=False)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Four ASCII bytes per entry, as uint32, for every 4-digit group
    ``q``: ``[q]`` zero-padded and ``[10000 + q]`` without leading zeros
    (a number's leading group), NUL-padded on the left. In the first
    table the leading group 0 prints nothing (a group above a number's
    leading one); in the second, for the ones group, it prints "0" (the
    number 0)."""
    q = np.arange(10000)[:, None]
    place = np.array([1000, 100, 10, 1])
    padded = ((q // place) % 10 + ord("0")).astype(np.uint8)
    leading = np.where(q >= place, padded, 0).astype(np.uint8)
    table = np.concatenate([padded, leading]).view(np.uint32).ravel()
    ones = table.copy()
    ones[10000:10001] = np.array([0, 0, 0, ord("0")], np.uint8).view(np.uint32)
    return table, ones


_DIGITS, _ONES = _digit_tables()
# what precedes each number: a comma, then a "-" for a negative one
_SEPARATOR = np.array([[ord(","), 0, 0, 0], [ord(","), 0, 0, ord("-")]],
                      np.uint8).view(np.uint32).ravel()


def format_int_list(arr: np.ndarray) -> bytes:
    """``json.dumps(arr.tolist())`` of a 1-D integer array, without the
    brackets.

    Each number becomes one row of 4-byte cells: a separator cell, then
    its 4-digit groups from a lookup table, NUL where a group has no
    digit to print. Deleting every NUL and the first comma leaves the
    list body."""
    n = arr.size
    if not n:
        return b""
    sep = _SEPARATOR[0]
    if arr.dtype.kind == "i" and arr.min() < 0:
        neg = arr < 0
        # two's-complement negation in uint64 is exact for every int64
        mag = arr.astype(np.int64).view(np.uint64)
        arr = np.where(neg, -mag, mag)
        sep = _SEPARATOR[neg.view(np.uint8)]
    top = int(arr.max())
    groups = (len(str(top)) + 3) // 4
    rest = arr.astype(np.uint32 if top < 2**32 else np.uint64, copy=False)
    cells = np.empty((n, groups + 1), np.uint32)
    cells[:, 0] = sep
    for p in range(groups):  # least significant group first
        if p < groups - 1:
            rest, group = np.divmod(rest, rest.dtype.type(10000))
            # nothing above this group: it is the number's leading one
            np.add(group, 10000, out=group, where=rest == 0)
        else:
            group = rest + rest.dtype.type(10000)
        cells[:, groups - p] = (_ONES if p == 0 else _DIGITS)[group]
    return cells.tobytes().translate(None, b"\0")[1:]
