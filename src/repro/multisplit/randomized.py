"""Randomized dart-throwing multisplit (paper Section 3.5).

GPU adaptation of Meyer's PRAM bucket algorithm [18]: a global histogram
pre-pass sizes a relaxed buffer (``relaxation`` x the exact size) per
(block, bucket); threads then *throw darts* — random slots — into their
bucket's shared-memory buffer, retrying on collision; filled buffers are
flushed (with their empty slots) to global memory; a final scan-based
compaction removes the empties.

The two competing penalties the paper identifies are modeled directly:

* memory — ``relaxation * n`` elements are written and re-read by the
  compaction;
* warp divergence — every retry round stalls the whole warp; the
  emulation counts the actual number of rounds each warp stays live
  (collisions are sampled for real from the dart throws).

The result is a valid but *non-stable* multisplit. The paper measured
~2x slower than radix sort at the best setting (x = 2); the ablation
bench sweeps ``relaxation`` to reproduce the tradeoff.

:func:`throw_darts` is the insertion itself, unpriced: the emulation
prices what it returns, and the fast engine calls it as it is, so both
engines produce the same seeded permutation.
"""

from __future__ import annotations

import numpy as np

from repro.primitives.histogram import histogram_per_thread
from repro.primitives.scan import device_exclusive_scan
from repro.simt.config import WARP_WIDTH
from .bucketing import BucketSpec
from ._common import as_inputs, resolve_device, VALUE_BYTES
from .result import MultisplitResult

__all__ = ["randomized_multisplit", "throw_darts"]

# Warp-instructions a live warp burns per retry round: probe, collision
# check, divergent re-probe serialization, and shared-memory replays.
# Calibrated so the x=2 configuration lands ~2x slower than radix sort,
# the paper's measurement (Section 3.5); see EXPERIMENTS.md.
STALL_WINST_PER_ROUND = 400
_MAX_ROUNDS = 512


def throw_darts(ids: np.ndarray, counts: np.ndarray, warps_per_block: int,
                relaxation: float, rng: np.random.Generator):
    """The randomized insertion of every engine, unpriced.

    Sizes a relaxed buffer per (block, bucket), laid out bucket-major
    so compaction yields contiguous buckets; throws every item's dart
    in rounds, the first claimant of a free slot winning it; and after
    :data:`_MAX_ROUNDS` rounds fills each buffer's free slots with its
    stragglers in index order, as the real kernel's linear probe does.
    ``counts`` is the ``m``-bin histogram of ``ids``.

    Returns ``(slot_of, occupied, round_of, stragglers)``: each item's
    slot, the slot occupancy, the round each item landed in (the
    stragglers count as landing in the last round) and the number of
    stragglers.
    """
    if relaxation < 1.0:
        raise ValueError(f"relaxation must be >= 1.0, got {relaxation}")
    n, m = ids.size, counts.size
    if n == 0:
        return (np.empty(0, np.int64), np.zeros(0, bool),
                np.empty(0, np.uint16), 0)
    tile = warps_per_block * WARP_WIDTH
    num_blocks = -(-n // tile)
    block = np.arange(n, dtype=np.int64) // tile

    # per-(block,bucket) exact counts and relaxed capacities
    bb_counts = np.bincount(block * m + ids, minlength=num_blocks * m)
    expected = np.ceil(relaxation * tile * counts / n).astype(np.int64)
    caps = np.maximum(np.broadcast_to(expected, (num_blocks, m)).ravel(), 1)
    caps = np.maximum(caps, bb_counts)  # overflow -> in-place buffer growth (flush model)
    caps_bucket_major = caps.reshape(num_blocks, m).T.ravel()  # (m * num_blocks,)
    buf_base = np.zeros(m * num_blocks + 1, dtype=np.int64)
    np.cumsum(caps_bucket_major, out=buf_base[1:])
    buffer_of = ids * num_blocks + block  # bucket-major buffer index

    occupied = np.zeros(int(buf_base[-1]), dtype=bool)
    slot_of = np.empty(n, dtype=np.int64)
    round_of = np.empty(n, dtype=np.uint16)  # rounds <= _MAX_ROUNDS
    pending = np.arange(n, dtype=np.int64)
    rounds = 0
    while pending.size and rounds < _MAX_ROUNDS:
        rounds += 1
        buf = buffer_of[pending]
        darts = buf_base[buf] + (rng.integers(0, 1 << 62, size=pending.size)
                                 % caps_bucket_major[buf])
        # first claimant of a free slot wins this round
        _, first = np.unique(darts, return_index=True)
        win_mask = np.zeros(pending.size, dtype=bool)
        win_mask[first] = True
        win_mask &= ~occupied[darts]
        winners, won = pending[win_mask], darts[win_mask]
        occupied[won] = True
        slot_of[winners] = won
        round_of[winners] = rounds
        pending = pending[~win_mask]
    round_of[pending] = rounds
    if pending.size:
        # pathological tail: group the stragglers by buffer and fill each
        # buffer's free slots in ascending slot order; the stragglers are
        # in index order, so per buffer they claim them first come, first
        # served
        bufs = buffer_of[pending]
        by_buf = np.argsort(bufs, kind="stable")
        sorted_pending = pending[by_buf]
        uniq, first, per_buf = np.unique(bufs[by_buf],
                                         return_index=True, return_counts=True)
        for b, start, count in zip(uniq, first, per_buf):
            base = int(buf_base[b])
            free = np.flatnonzero(~occupied[base:int(buf_base[b + 1])])[:count]
            occupied[base + free] = True
            slot_of[sorted_pending[start:start + count]] = base + free
    return slot_of, occupied, round_of, pending.size


def randomized_multisplit(keys: np.ndarray, spec: BucketSpec, *,
                          values: np.ndarray | None = None, device=None,
                          relaxation: float = 2.0, warps_per_block: int = 8,
                          seed: int = 0) -> MultisplitResult:
    """Non-stable multisplit via randomized buffer insertion."""
    dev = resolve_device(device)
    keys, values = as_inputs(keys, values)
    kv = values is not None
    m = spec.num_buckets
    n = keys.size
    kb = keys.dtype.itemsize
    ids = spec(keys).astype(np.int64)

    # ---- 1. histogram pre-pass to size the relaxed buffers ----------------
    counts = histogram_per_thread(dev, ids, m, stage="histogram")
    slot_of, occupied, round_of, stragglers = throw_darts(
        ids, counts, warps_per_block, relaxation, np.random.default_rng(seed))
    if n == 0:
        return MultisplitResult(
            keys=keys.copy(), values=(values.copy() if kv else None),
            bucket_starts=np.zeros(m + 1, dtype=np.int64), method="randomized",
            num_buckets=m, timeline=dev.timeline, stable=False,
        )
    total_slots = occupied.size

    # ---- 2. insertion kernel: sampled dart throwing -----------------------
    with dev.kernel("insert:dart_throw", warps_per_block) as k:
        k.gmem.read_streaming(n, kb)
        if kv:
            k.gmem.read_streaming(n, VALUE_BYTES)
        tile = warps_per_block * WARP_WIDTH
        k.smem.alloc(min(int(relaxation * tile) * (kb + (4 if kv else 0)) + m * 8,
                         64 * 1024))
        # warp divergence: a warp stalls in every round while any of its
        # threads still throws, i.e. up to its last thread's round; each
        # straggler's probe costs one more round
        live = int(np.maximum.reduceat(round_of,
                                       np.arange(0, n, WARP_WIDTH)).sum())
        k.counters.warp_instructions += (live + stragglers) * STALL_WINST_PER_ROUND
        k.smem.access_coalesced(live)
        # cooperative flush of buffers (empty slots included)
        k.gmem.write_streaming(total_slots, kb + (VALUE_BYTES if kv else 0))
        k.counters.extra["rounds"] = int(round_of.max())

    # ---- 3. compaction over the relaxed buffers ---------------------------
    flags = occupied.astype(np.int64)
    positions = device_exclusive_scan(dev, flags, stage="compact")
    with dev.kernel("compact:scatter") as k:
        k.gmem.read_streaming(total_slots, kb + (VALUE_BYTES if kv else 0))
        k.gmem.read_streaming(total_slots, 4)
        k.gmem.write_streaming(n, kb + (VALUE_BYTES if kv else 0))

    out_pos = positions[slot_of]
    out_keys = np.empty(n, dtype=keys.dtype)
    out_keys[out_pos] = keys
    out_values = None
    if kv:
        out_values = np.empty(n, dtype=values.dtype)
        out_values[out_pos] = values

    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    res = MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method="randomized", num_buckets=m, timeline=dev.timeline, stable=False,
    )
    res.extra["relaxation"] = relaxation
    res.extra["buffer_slots"] = total_slots
    return res
