#!/usr/bin/env python
"""CI proof that ``engine="stream"`` runs in bounded memory.

Runs the stream bench's configuration (n = 2^24 uint32 key-value pairs,
m = 32, block-level MS — a 128 MiB dataset) end to end **from a disk
memmap into a disk memmap** inside a child process whose anonymous
memory is hard-capped with ``resource.setrlimit(RLIMIT_DATA)`` at its
import-time baseline plus 46 MiB, well below the dataset size. An
in-core engine cannot complete under that cap (the child proves the
cap is real by failing to allocate one dataset-sized array); the
stream engine must, because its scratch is O(chunk + m*P).

A second capped child runs the same input from a chunk-factory
source, a callable that yields ``np.array(mm[lo:hi])`` copies of 2 MiB
of keys each. Those chunks are anonymous memory, so the run completes
under the cap only if the engine lets go of each chunk soon after
pulling the next: holding all of them would take the whole dataset.

The parent process — uncapped — then replays the same input through
``engine="fast"`` and asserts that both capped runs' outputs are
bit-identical (starts + keys + values), so the memory bound is never
traded against correctness.

Run:  PYTHONPATH=src python scripts/stream_bounded.py
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402  (sys.path bootstrap above)

N = 1 << 24
M = 32
METHOD = "block"
DATASET_NBYTES = 2 * N * 4  # uint32 keys + uint32 values
# Anonymous-memory headroom for the capped child, on top of the VmData
# it already holds when the cap is applied. RLIMIT_DATA (brk + private
# anonymous mmap since Linux 4.7) is the right knob: file-backed memmaps
# stay exempt, so the cap binds exactly the engine's scratch. The
# interpreter + numpy baseline varies with the host (numpy's BLAS
# threads alone reserve tens of MiB), so the cap is measured, not
# absolute: 46 MiB covers the stream arena (chunk-budget-bounded,
# ~20 MiB) and stays far below the 128 MiB dataset.
HEADROOM_NBYTES = 46 << 20
# Keys per chunk of the chunk-factory run: 2 MiB of keys plus 2 MiB of
# values per copy, 32 copies in all.
FACTORY_CHUNK_KEYS = 1 << 19


def _status_kb(field: str) -> int:
    """One ``kB`` field of this process's ``/proc/self/status``."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


SOURCES = ("memmap", "factory")


def child(tmp: pathlib.Path, source: str) -> None:
    """Capped side: stream multisplit into disk memmaps under
    RLIMIT_DATA, from the input memmaps or from a chunk factory over
    them."""
    import resource

    cap_nbytes = (_status_kb("VmData") << 10) + HEADROOM_NBYTES
    resource.setrlimit(resource.RLIMIT_DATA, (cap_nbytes, cap_nbytes))

    # the cap must be able to refuse an in-core-sized allocation,
    # otherwise the bounded-memory claim below is vacuous
    try:
        ballast = np.ones(DATASET_NBYTES, dtype=np.uint8)
    except MemoryError:
        ballast = None
    assert ballast is None, "RLIMIT_DATA cap failed to bind"

    from repro.engine import Workspace, stream_multisplit
    from repro.multisplit import RangeBuckets

    keys = np.memmap(tmp / "keys.bin", dtype=np.uint32, mode="r", shape=(N,))
    values = np.memmap(tmp / "values.bin", dtype=np.uint32, mode="r",
                       shape=(N,))
    kwargs = {}
    if source == "factory":
        def copies(mm):
            return lambda: (np.array(mm[lo:lo + FACTORY_CHUNK_KEYS])
                            for lo in range(0, N, FACTORY_CHUNK_KEYS))

        keys, values = copies(keys), copies(values)
        # the ids budget is the factory's chunk size, as chunk_bytes
        # would set it for an array source
        kwargs["chunk_bytes"] = 4 * FACTORY_CHUNK_KEYS
    out_keys = np.memmap(tmp / f"out_keys.{source}.bin", dtype=np.uint32,
                         mode="w+", shape=(N,))
    out_values = np.memmap(tmp / f"out_values.{source}.bin",
                           dtype=np.uint32, mode="w+", shape=(N,))

    ws = Workspace()
    res = stream_multisplit(keys, RangeBuckets(M), values=values,
                            method=METHOD, workspace=ws, out=out_keys,
                            out_values=out_values, **kwargs)
    assert res.extra["out_memmap"], res.extra
    assert ws.peak_nbytes < DATASET_NBYTES, ws.peak_nbytes
    out_keys.flush()
    out_values.flush()
    np.save(tmp / f"starts.{source}.npy", np.asarray(res.bucket_starts))

    print(json.dumps({
        "chunks": res.extra["chunks"],
        "shards": res.extra["shards"],
        "peak_arena_nbytes": int(ws.peak_nbytes),
        "cap_nbytes": cap_nbytes,
        "vm_hwm_kb": _status_kb("VmHWM"),
    }))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="stream-bounded-") as d:
        tmp = pathlib.Path(d)
        rng = np.random.default_rng(2016)
        keys = rng.integers(0, 2**32, N, dtype=np.uint32)
        values = np.arange(N, dtype=np.uint32)
        keys.tofile(tmp / "keys.bin")
        values.tofile(tmp / "values.bin")

        stats = {}
        for source in SOURCES:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(tmp), source],
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
                capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)
                raise SystemExit(f"capped {source} child failed "
                                 f"(rc={proc.returncode})")
            stats[source] = json.loads(proc.stdout.strip().splitlines()[-1])
        assert stats["factory"]["chunks"] == N // FACTORY_CHUNK_KEYS, stats

        # uncapped parity replay: the capped runs must not have traded
        # the memory bound against correctness
        from repro.multisplit import RangeBuckets, multisplit

        ref = multisplit(keys, RangeBuckets(M), values=values, method=METHOD,
                         engine="fast")
        for source in SOURCES:
            out_keys = np.memmap(tmp / f"out_keys.{source}.bin",
                                 dtype=np.uint32, mode="r", shape=(N,))
            out_values = np.memmap(tmp / f"out_values.{source}.bin",
                                   dtype=np.uint32, mode="r", shape=(N,))
            starts = np.load(tmp / f"starts.{source}.npy")
            assert np.array_equal(starts, ref.bucket_starts), (source,
                                                               "starts drift")
            assert np.array_equal(out_keys, ref.keys), (source, "key drift")
            assert np.array_equal(out_values, ref.values), (source,
                                                            "value drift")

        for source in SOURCES:
            st = stats[source]
            print(f"stream-bounded-memory OK ({source} source): n={N}, "
                  f"m={M}, dataset={DATASET_NBYTES >> 20} MiB, "
                  f"RLIMIT_DATA cap={st['cap_nbytes'] >> 20} MiB, "
                  f"peak arena={st['peak_arena_nbytes'] >> 20} MiB, "
                  f"VmHWM={st['vm_hwm_kb'] >> 10} MiB, "
                  f"chunks={st['chunks']}, shards={st['shards']}, "
                  f"bit-identical to engine=fast")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(pathlib.Path(sys.argv[2]), sys.argv[3])
    else:
        main()
