"""Shared helpers for the multisplit implementations."""

from __future__ import annotations

import numpy as np

from repro.simt.config import WARP_WIDTH, K40C
from repro.simt.device import Device

__all__ = ["as_inputs", "check_key_dtype", "packs_in_64_bits", "pick_auto",
           "prepare_input",
           "PaddedInput", "resolve_device", "KEY_BYTES", "VALUE_BYTES"]

KEY_BYTES = 4
VALUE_BYTES = 4

# Figure 3 crossovers (key-only / key-value are close; use one policy):
_WARP_BEST_MAX_M = 8
_BLOCK_BEST_MAX_M = 128


def pick_auto(m: int, keys, values) -> str:
    """``method="auto"``'s method for ``m`` buckets on every engine:
    warp-level MS for small ``m``, then block-level, then reduced-bit —
    but block-level, not reduced-bit, for a pair that does not pack in
    64 bits or has no dtype yet (a chunked source)."""
    if m <= _WARP_BEST_MAX_M:
        return "warp"
    if m <= _BLOCK_BEST_MAX_M or (values is not None and not packs_in_64_bits(
            getattr(keys, "dtype", None), getattr(values, "dtype", None))):
        return "block"
    return "reduced_bit"


def packs_in_64_bits(key_dtype, value_dtype) -> bool:
    """Whether reduced-bit multisplit can pack a (key, value) pair into
    one 64-bit word: a 4-byte key and a 1-, 2- or 4-byte value, as
    unsigned bit patterns."""
    return (key_dtype is not None and value_dtype is not None
            and key_dtype.itemsize == 4 and value_dtype.itemsize in (1, 2, 4))


class PaddedInput:
    """Input tiled to full warps/blocks with a validity mask.

    ``ids`` is the per-lane bucket id matrix (invalid lanes hold 0 and
    are masked out of every histogram/scatter), matching how a real
    kernel guards its tail block. ``key_bytes`` carries the key width
    (4 for uint32, 8 for uint64) into the traffic accounting.

    When a :class:`~repro.engine.Workspace` is supplied the padded
    matrices live in its pooled buffers (invalidated by the next call
    that reuses the workspace) instead of fresh allocations — the
    emulated analogue of a real kernel's preallocated scratch arena.
    """

    def __init__(self, keys: np.ndarray, ids: np.ndarray, values: np.ndarray | None,
                 tile_lanes: int, workspace=None):
        n = keys.size
        self.key_bytes = keys.dtype.itemsize
        lanes_total = max(tile_lanes, -(-n // tile_lanes) * tile_lanes) if n else tile_lanes
        self.n = n
        self.num_warps = lanes_total // WARP_WIDTH
        pad = lanes_total - n

        def _pad(slot, arr, fill=0):
            if not pad and workspace is None:
                return arr.reshape(-1, WARP_WIDTH)
            if workspace is None:
                out = np.empty(lanes_total, dtype=arr.dtype)
            else:
                out = workspace.take(f"pad_{slot}", lanes_total, arr.dtype)
            out[:n] = arr
            out[n:] = fill
            return out.reshape(-1, WARP_WIDTH)

        self.keys = _pad("keys", keys)
        self.ids = _pad("ids", ids.astype(np.uint32))
        self.values = _pad("values", values) if values is not None else None
        if workspace is None:
            valid_flat = np.zeros(lanes_total, dtype=bool)
        else:
            valid_flat = workspace.take("pad_valid", lanes_total, bool)
        valid_flat[:n] = True
        valid_flat[n:] = False
        self.valid = valid_flat.reshape(-1, WARP_WIDTH)
        self.all_valid = pad == 0

    @property
    def valid_or_none(self):
        """``None`` when every lane is valid (skips mask work in the hot path)."""
        return None if self.all_valid else self.valid


def check_key_dtype(dtype) -> None:
    """Keys are bool, integer or floating: bucket specs compare and
    scale them as numbers."""
    if dtype.kind not in "biuf":
        raise TypeError(
            f"keys must be bool, integer or floating, got dtype {dtype}")


def as_inputs(keys, values=None):
    """The one key/values coercion of every engine and emulated method:
    1-D numeric keys and same-shape values, both C-contiguous (no copy
    when they already are). ``ndim`` is checked before the coercion,
    which would turn a 0-D key into a 1-D one."""
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    keys = np.ascontiguousarray(keys)
    check_key_dtype(keys.dtype)
    if values is not None:
        values = np.ascontiguousarray(values)
        if values.shape != keys.shape:
            raise ValueError(
                f"values shape {values.shape} must match keys shape {keys.shape}")
    return keys, values


def prepare_input(keys, spec, values=None, tile_lanes: int = WARP_WIDTH,
                  workspace=None) -> PaddedInput:
    """Validate and tile a multisplit input (uint32 or uint64 keys).

    ``workspace`` optionally pools the padded matrices across calls.
    """
    keys, values = as_inputs(keys, values)
    if keys.dtype.itemsize not in (4, 8):
        raise ValueError(
            f"keys must be 32- or 64-bit, got dtype {keys.dtype}")
    ids = spec(keys)
    return PaddedInput(keys, ids, values, tile_lanes, workspace)


def resolve_device(device) -> Device:
    """Accept a Device, a DeviceSpec, or None (fresh K40c)."""
    if device is None:
        return Device(K40C)
    if isinstance(device, Device):
        return device
    return Device(device)
