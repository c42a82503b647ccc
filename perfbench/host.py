"""Host facts and host-noise probes, read in the same run as the metrics."""

from __future__ import annotations

import glob
import os
import statistics
import time

import numpy as np

CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
NPROC = os.cpu_count() or 1


def l3_bytes() -> int:
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        return int(size.rstrip("KM")) * mult
    return 0


def memcpy_gbs(l3: int) -> float:
    """Copy bandwidth (bytes read + written per second) over arrays at
    least four times L3, median of five copies."""
    size = min(max(4 * l3, 256 << 20), 512 << 20)
    src = np.ones(size // 8, dtype=np.uint64)
    dst = np.empty_like(src)
    dst.fill(0)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return 2 * size / statistics.median(times) / 1e9


def cpu_steal() -> tuple[int, int]:
    """(steal, wanted) jiffies summed over all CPUs. Steal is time the
    hypervisor ran someone else while this VM wanted the CPU; wanted is
    every jiffy that was not idle (run or stolen)."""
    with open("/proc/stat") as f:
        # user nice system idle iowait irq softirq steal (guest time is
        # already inside user/nice)
        t = [int(x) for x in f.readline().split()[1:9]]
    return t[7], sum(t) - t[3] - t[4]


def steal_share(before, after) -> float:
    """Share of the CPU time wanted between two ``cpu_steal`` readings
    that the hypervisor took away."""
    return (after[0] - before[0]) / max(after[1] - before[1], 1)


def cpu_seconds(pid) -> float:
    """User plus system CPU time of a live process, all its threads.
    With paravirtual steal accounting the kernel leaves stolen time out."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * CLOCK_TICK_S


def unstolen(wall: float, cpu: float, steal: float) -> float:
    """``wall`` less the time the hypervisor took from the measured
    processes while they ran.

    ``cpu`` is the CPU time the processes got over ``wall`` (stolen time
    left out) and ``steal`` the stolen share of the machine's wanted CPU
    time over the same interval, so the processes lost about
    ``cpu * steal / (1 - steal)`` of CPU time. A stall on one vCPU delays
    the wall only as far as the other vCPUs cannot run the waiting work,
    so the lost CPU time is spread over all of them: a program that keeps
    every vCPU busy loses ``steal * wall``, one that keeps fewer busy
    loses less. Both inputs are measured in the same run, so the
    correction follows the program's own parallelism.
    """
    steal = min(max(steal, 0.0), 0.95)
    stolen_cpu = cpu * steal / (1.0 - steal)
    return wall - stolen_cpu / NPROC


def vm_hwm_mib(pid) -> float:
    """Peak resident set of a live process (VmHWM). Unlike ru_maxrss it
    starts at exec, so the spawning process's own peak never leaks in."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
