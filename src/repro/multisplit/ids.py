"""Bucket-id width: the one narrowing rule every engine shares.

A leaf module (numpy only), so :mod:`repro.engine` and
:mod:`repro.multisplit` can both import it without an import cycle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["narrow_ids_dtype"]


def narrow_ids_dtype(m: int):
    """Smallest unsigned dtype that can hold bucket ids in ``[0, m)``.

    numpy's stable integer argsort is an LSD radix sort whose pass count
    scales with the key width, and the histogram/scatter kernels stream
    the ids once per pass, so the narrowest width is the fastest.
    """
    if m <= (1 << 8):
        return np.uint8
    if m <= (1 << 16):
        return np.uint16
    if m <= (1 << 32):
        return np.uint32
    return np.uint64
