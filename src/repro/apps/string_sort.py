"""GPU-style string sort with singleton elimination (paper Section 1;
Deshpande & Narayanan [10]).

GPU string sorts proceed MSD-style over fixed-width chunks: each round
radix-sorts the still-tied strings by (tie-group, next 4-byte chunk),
then *multisplits* the survivors — strings whose chunk is unique within
their group ("singletons") are finished, groups of equal chunks carry a
fresh tie-group id into the next round. The cited paper uses multisplit
exactly for that "singleton compaction and elimination" step; the
payoff is that later (more expensive, longer-prefix) rounds touch only
the shrinking tied set.

With ``engine="emulate"`` (default) everything is charged to the
emulated device: the per-round pair sort via
:func:`repro.sort.radix.radix_sort`, the singleton/tied compaction via
a 2-bucket multisplit. A result-only engine (``"fast"``/``"sharded"``/
``"auto"``) runs the identical rounds through
:func:`repro.sort.fast_radix_sort` instead — same order, same stats,
no device accounting (the audit-only compaction multisplit is skipped;
its result was always discarded).
"""

from __future__ import annotations

import numpy as np

from repro.multisplit import multisplit, CustomBuckets
from repro.simt.config import K40C
from repro.simt.device import Device
from repro.sort.radix import radix_sort

__all__ = ["string_sort"]

CHUNK_BYTES = 4


def _chunks(strings: list[bytes], ids: np.ndarray, offset: int) -> np.ndarray:
    """4-byte big-endian chunk at ``offset`` of each listed string."""
    out = np.zeros(ids.size, dtype=np.uint64)
    for slot, i in enumerate(ids):
        piece = strings[i][offset:offset + CHUNK_BYTES]
        out[slot] = int.from_bytes(piece.ljust(CHUNK_BYTES, b"\0"), "big")
    return out


def string_sort(strings: list[bytes], *, device: Device | None = None,
                engine: str = "emulate", max_workers: int | None = None):
    """Sort byte strings lexicographically; returns ``(order, stats)``.

    ``order`` permutes indices so ``[strings[i] for i in order]`` is
    sorted; equal strings keep input order (stable). ``stats`` records
    rounds and per-round singleton eliminations — identical for every
    engine.
    """
    if not isinstance(strings, list) or any(not isinstance(s, (bytes, bytearray))
                                            for s in strings):
        raise TypeError("string_sort expects a list of bytes objects")
    emulate = engine == "emulate"
    if not emulate and device is not None:
        raise ValueError(
            "device= is the emulated pipeline's knob; with a result-only "
            f"engine ({engine!r}) there is no device to account against")
    dev = device or Device(K40C) if emulate else None

    def pair_sort(combined, slots, seg_bits):
        # stable sort by the (tie-group, chunk) packed key — audited on
        # the emulated device, engine-run otherwise (same permutation)
        if emulate:
            return radix_sort(dev, combined, slots, bits=32 + seg_bits,
                              key_bytes=8, value_bytes=4, stage="sort")
        from repro.sort.fast_radix import fast_radix_sort
        return fast_radix_sort(combined, slots, bits=32 + seg_bits,
                               engine=engine, max_workers=max_workers)

    n = len(strings)
    stats = {"rounds": 0, "eliminated": []}
    if n == 0:
        return np.zeros(0, dtype=np.int64), stats

    max_len = max(len(s) for s in strings)
    order = np.arange(n, dtype=np.int64)
    seg = np.zeros(n, dtype=np.int64)     # tie-group of each position
    active = np.ones(n, dtype=bool)       # position still tied
    offset = 0
    while active.any() and offset < max_len:
        stats["rounds"] += 1
        act = np.flatnonzero(active)
        chunk = _chunks(strings, order[act], offset)
        seg_bits = max(1, int(seg[act].max()).bit_length())
        combined = (seg[act].astype(np.uint64) << np.uint64(32)) | chunk

        # 1. sort survivors by (tie-group, chunk); stable
        sorted_keys, sorted_slots = pair_sort(
            combined, order[act].astype(np.uint32), seg_bits)
        # tie-groups occupy contiguous positions in group order, so the
        # sorted survivors drop back into the same active positions
        order[act] = sorted_slots.astype(np.int64)
        chunk_sorted = sorted_keys & np.uint64(0xFFFFFFFF)
        seg_sorted = sorted_keys >> np.uint64(32)

        # 2. ties: equal (group, chunk) neighbours stay active
        same_prev = np.zeros(act.size, dtype=bool)
        if act.size > 1:
            same_prev[1:] = ((seg_sorted[1:] == seg_sorted[:-1])
                             & (chunk_sorted[1:] == chunk_sorted[:-1]))
        tied = same_prev.copy()
        tied[:-1] |= same_prev[1:]

        # 3. singleton compaction: the paper's 2-bucket multisplit.
        # Audit-only — the permutation is discarded — so the fast paths
        # skip it; the eliminations themselves come from the tie scan.
        if emulate:
            tied_flag = tied.astype(np.uint32)
            spec = CustomBuckets(lambda k: tied_flag[k.astype(np.int64)], 2,
                                 instruction_cost=2)
            multisplit(np.arange(act.size, dtype=np.uint32), spec,
                       method="warp", device=dev)
        stats["eliminated"].append(int((~tied).sum()))

        # fresh contiguous tie-group ids for the next round
        group_start = tied & ~same_prev
        gid = np.cumsum(group_start) - 1
        seg[act] = np.where(tied, gid, 0)
        active[act] = tied
        offset += CHUNK_BYTES

    if active.any():
        # survivors differ only by trailing NULs (zero padding made them
        # compare equal): shorter strings sort first. One last pair sort
        # of (tie-group, length).
        act = np.flatnonzero(active)
        lengths = np.array([len(strings[i]) for i in order[act]], dtype=np.uint64)
        seg_bits = max(1, int(seg[act].max()).bit_length())
        combined = (seg[act].astype(np.uint64) << np.uint64(32)) | lengths
        _, sorted_slots = pair_sort(
            combined, order[act].astype(np.uint32), seg_bits)
        order[act] = sorted_slots.astype(np.int64)
    return order, stats
