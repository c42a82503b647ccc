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

The parent process — uncapped — then replays the same input through
``engine="fast"`` and asserts the capped run's outputs are
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


def _status_kb(field: str) -> int:
    """One ``kB`` field of this process's ``/proc/self/status``."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def child(tmp: pathlib.Path) -> None:
    """Capped side: stream multisplit, memmap -> memmap, under RLIMIT_DATA."""
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
    out_keys = np.memmap(tmp / "out_keys.bin", dtype=np.uint32, mode="w+",
                         shape=(N,))
    out_values = np.memmap(tmp / "out_values.bin", dtype=np.uint32,
                           mode="w+", shape=(N,))

    ws = Workspace()
    res = stream_multisplit(keys, RangeBuckets(M), values=values,
                            method=METHOD, workspace=ws, out=out_keys,
                            out_values=out_values)
    assert res.extra["out_memmap"], res.extra
    assert ws.peak_nbytes < DATASET_NBYTES, ws.peak_nbytes
    out_keys.flush()
    out_values.flush()
    np.save(tmp / "starts.npy", np.asarray(res.bucket_starts))

    vm_hwm_kb = _status_kb("VmHWM")
    print(json.dumps({
        "chunks": res.extra["chunks"],
        "shards": res.extra["shards"],
        "peak_arena_nbytes": int(ws.peak_nbytes),
        "cap_nbytes": cap_nbytes,
        "dataset_nbytes": DATASET_NBYTES,
        "vm_hwm_kb": vm_hwm_kb,
    }))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="stream-bounded-") as d:
        tmp = pathlib.Path(d)
        rng = np.random.default_rng(2016)
        keys = rng.integers(0, 2**32, N, dtype=np.uint32)
        values = np.arange(N, dtype=np.uint32)
        keys.tofile(tmp / "keys.bin")
        values.tofile(tmp / "values.bin")

        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(tmp)],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            raise SystemExit(f"capped child failed (rc={proc.returncode})")
        stats = json.loads(proc.stdout.strip().splitlines()[-1])

        # uncapped parity replay: the capped run must not have traded
        # the memory bound against correctness
        from repro.multisplit import RangeBuckets, multisplit

        ref = multisplit(keys, RangeBuckets(M), values=values, method=METHOD,
                         engine="fast")
        out_keys = np.memmap(tmp / "out_keys.bin", dtype=np.uint32, mode="r",
                             shape=(N,))
        out_values = np.memmap(tmp / "out_values.bin", dtype=np.uint32,
                               mode="r", shape=(N,))
        starts = np.load(tmp / "starts.npy")
        assert np.array_equal(starts, ref.bucket_starts), "starts drift"
        assert np.array_equal(out_keys, ref.keys), "key drift"
        assert np.array_equal(out_values, ref.values), "value drift"

        print(f"stream-bounded-memory OK: n={N}, m={M}, "
              f"dataset={DATASET_NBYTES >> 20} MiB, "
              f"RLIMIT_DATA cap={stats['cap_nbytes'] >> 20} MiB, "
              f"peak arena={stats['peak_arena_nbytes'] >> 20} MiB, "
              f"VmHWM={stats['vm_hwm_kb'] >> 10} MiB, "
              f"chunks={stats['chunks']}, shards={stats['shards']}, "
              f"bit-identical to engine=fast")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(pathlib.Path(sys.argv[2]))
    else:
        main()
