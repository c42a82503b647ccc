"""Tour of the paper's cited multisplit applications (Section 1).

Runs every application subsystem in ``repro.apps`` on a small scenario
and reports what the multisplit did for each — a living version of the
paper's motivation paragraph.

Run:  python examples/applications_tour.py
"""

import numpy as np

from repro.apps import (
    HashTable,
    hash_join,
    ShallowKdTree,
    string_sort,
    suffix_array,
    voxelize,
)
from repro.simt import Device, K40C


def distinct_keys(rng, n, lo=1, hi=2**31):
    """``n`` distinct uint32 keys drawn from ``[lo, hi)`` in O(n) memory:
    oversample, deduplicate, shuffle, and retry if short."""
    keys = np.empty(0, dtype=np.uint32)
    while keys.size < n:
        draw = rng.integers(lo, hi, 2 * n + 16, dtype=np.uint32)
        keys = np.unique(np.concatenate([keys, draw]))
    return rng.permutation(keys)[:n]


def hash_table_demo():
    rng = np.random.default_rng(0)
    n = 30000
    keys = distinct_keys(rng, n)
    values = rng.integers(0, 2**32, n, dtype=np.uint32)
    dev = Device(K40C)
    ht = HashTable(keys, values, device=dev)
    got, found = ht.get(keys[:5000])
    assert found.all() and (got == values[:5000]).all()
    split_ms = sum(r.total_ms for r in dev.timeline.records
                   if r.stage in ("prescan", "scan", "postscan"))
    print(f"hash table  [Alcantara'09]: {n} pairs -> {ht.num_buckets} buckets "
          f"(load {ht.load_factor:.2f}); multisplit was {split_ms / dev.total_ms:.0%} "
          f"of the {dev.total_ms:.3f} ms build+query")


def hash_join_demo():
    rng = np.random.default_rng(1)
    left = rng.integers(0, 5000, 20000).astype(np.uint32)
    right = rng.integers(0, 5000, 20000).astype(np.uint32)
    dev = Device(K40C)
    li, ri = hash_join(left, right, radix_bits=5, device=dev)
    assert (left[li] == right[ri]).all()
    print(f"hash join   [Diamos'12]  : {left.size}x{right.size} rows -> "
          f"{li.size} matches via 32 low-bit partitions "
          f"({dev.total_ms:.3f} simulated ms)")


def kdtree_demo():
    rng = np.random.default_rng(2)
    pts = rng.random((20000, 3))
    dev = Device(K40C)
    tree = ShallowKdTree(pts, depth=5, device=dev)
    q = rng.random(3)
    pid, dist = tree.nearest(q)
    brute = int(np.argmin(((pts - q) ** 2).sum(axis=1)))
    assert pid == brute
    print(f"k-d tree    [Wu'11]      : {pts.shape[0]} points, "
          f"{tree.num_leaves} leaf cells after 5 multisplit levels; "
          f"NN query verified ({dev.total_ms:.3f} simulated ms)")


def string_sort_demo():
    rng = np.random.default_rng(3)
    words = [bytes(rng.integers(97, 100, rng.integers(4, 14)).astype(np.uint8))
             for _ in range(4000)]
    dev = Device(K40C)
    order, stats = string_sort(words, device=dev)
    assert [words[i] for i in order] == sorted(words)
    print(f"string sort [Deshpande'13]: {len(words)} strings in "
          f"{stats['rounds']} rounds; singleton multisplit eliminated "
          f"{stats['eliminated']} per round")


def suffix_array_demo():
    rng = np.random.default_rng(4)
    text = bytes(rng.integers(97, 101, 6000).astype(np.uint8))
    dev = Device(K40C)
    sa, stats = suffix_array(text, device=dev)
    assert len(sa) == len(text)
    print(f"suffix array[Deo'13]     : {len(text)} bytes in "
          f"{stats['rounds']} doubling rounds ({dev.total_ms:.3f} simulated ms)")


def voxelize_demo():
    rng = np.random.default_rng(5)
    tris = rng.random((300, 3, 3))
    dev = Device(K40C)
    grid, stats = voxelize(tris, resolution=24, device=dev)
    print(f"voxelizer   [Pantaleoni'11]: 300 triangles -> axis batches "
          f"{stats['batches']}, {int(grid.sum())} voxels set "
          f"({dev.total_ms:.3f} simulated ms)")


if __name__ == "__main__":
    hash_table_demo()
    hash_join_demo()
    kdtree_demo()
    string_sort_demo()
    suffix_array_demo()
    voxelize_demo()
