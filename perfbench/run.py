"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload split_uniform --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for sizes and why each exists):

* ``split_uniform`` -- one caller in a closed loop of
  ``multisplit(keys, RangeBuckets(32), values=values, engine="auto")`` on
  2^25 uniform uint32 keys plus values (sharded engine; bandwidth regime).
* ``split_skewed``  -- one caller in a closed loop of
  ``BucketSpec.from_sample(keys, 256)`` then ``multisplit(..., engine="auto")``
  on 2^23 heavy-tailed keys in memmap files (stream engine; bucketing-bound).
* ``serve_mixed``   -- ``python -m repro serve --port 0`` in a child process,
  driven by one generator process over two pipelined connections.

End-to-end metrics (``--trace 0``), printed for every workload:
``setup_s`` (import plus first op, or spawn to first response; median of
three cold starts), ``throughput_mkeys_s``, ``call_ms_p50`` (median op or
request latency), ``peak_rss_mib`` (the measured process, or the server's
VmHWM) and ``max_bucket_ratio`` (largest bucket over the mean bucket, read
from the program's ``bucket_starts``). On ``serve_mixed`` they come from a
closed loop that keeps 32 requests outstanding, i.e. the service at
saturation, and count only responses that matched the oracle.
``max_bucket_ratio`` moves with the program only on ``split_skewed``,
where ``from_sample`` picks the splitters; on ``split_uniform`` and
``serve_mixed`` the bucketing is fixed by the benchmark, so it is a
property of the seeded inputs.

Per-layer metrics (``--trace 1``) come from spans recorded around the calls
into each layer from this directory's files (``tracing.py``,
``traced_server.py``); a layer a workload never calls reads 0. The traced
``serve_mixed`` run also measures the open-loop view on an untraced
server: Poisson arrivals at the ``low`` and ``high`` rates, timed from
each request's due time (``serve.p50_ms.*``, ``serve.p99_ms.*``), and a
bounded search for ``serve.max_rate_rps``.

The host is a shared VM whose hypervisor steals 0-65% of CPU time,
varying by the minute. Op times, set-up times and the saturated closed
loop are reported less the time stolen from the measured processes,
estimated from their own CPU time and the stolen share read over the same
interval (``host.unstolen``); the raw figures are printed on the line
before the result. Open-loop latency percentiles use the requests due in
the least-stolen two thirds of each window (``serve_load``). Tail latency
at a fixed rate still moves with steal by more than any gate could allow,
which is why it is a traced, ungated figure.

Exit status: 0 when every op and response matched its oracle. 1 when any
failed: an error, rejection, time-out, missing or wrong output, or a
server that exited uncleanly count as failed ops and the result line is
still printed; a crashed child, a server that went away mid-window or
responses that never came stop the run without a result. 2 when there is
no program to run.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import serve_load as sl  # noqa: E402
import workloads as wl  # noqa: E402
from host import NPROC, cpu_seconds, cpu_steal, l3_bytes, memcpy_gbs  # noqa: E402
from host import steal_share, unstolen  # noqa: E402
from tracing import layer_times, percentile  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_mkeys_s", "Mkeys/s"),
    ("call_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("max_bucket_ratio", "ratio"),
]
# serve_mixed per-layer rows, reported once per fixed rate
PER_RATE = [
    ("protocol.decode_us_p50", "us"),
    ("protocol.encode_us_p50", "us"),
    ("validate.us_p50", "us"),
    ("coalescer.batch_size_mean", "requests"),
    ("coalescer.fused_share", "ratio"),
    ("batch.kernel_ms_p50", "ms"),
    ("sort.kernel_ms_p50", "ms"),
    ("service.wait_ms_p50", "ms"),
    ("service.wait_ms_p99", "ms"),
    ("service.loop_busy_share", "ratio"),
    ("service.executor_busy_share", "ratio"),
    ("service.rejected", "count"),
    ("service.timeouts", "count"),
    ("service.batch_fallbacks", "count"),
    ("loadgen.late_ms_p99", "ms"),
]
# the open-loop view of the untraced server (see the module docstring)
OPEN_LOOP = [("serve.p50_ms", "ms"), ("serve.p99_ms", "ms")]


def per_rate(rows) -> list:
    return [(f"{name}.{rate}", unit) for rate in wl.SERVE_RATES for name, unit in rows]


PER_LAYER = [
    ("bucketing.from_sample_ms", "ms"),
    ("bucketing.eval_busy_ms", "ms"),
    ("bucketing.eval_ns_per_key", "ns"),
    ("bucketing.evals_per_key", "ratio"),
    ("engine.prescan_busy_ms", "ms"),
    ("engine.prescan_wall_ms", "ms"),
    ("engine.scatter_busy_ms", "ms"),
    ("engine.scatter_wall_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("engine.parallel_eff", "ratio"),
    ("engine.speedup_1w", "ratio"),
    ("engine.sol_fraction", "ratio"),
    ("engine.prescan_sol", "ratio"),
    ("engine.scatter_sol", "ratio"),
    ("engine.kernel_calls", "count"),
    *per_rate(PER_RATE),
    *per_rate(OPEN_LOOP),
    ("serve.max_rate_rps", "req/s"),
    ("trace.overhead_pct", "%"),
    ("host.memcpy_gbs", "GB/s"),
    ("host.nproc", "count"),
    ("host.l3_mib", "MiB"),
    ("host.working_set_l3x", "ratio"),
]
TALLY_KEYS = ("attempted", "ok", *sl.FAILURES)

# cold starts per run; setup_s is their median. A split cold start also
# builds its 128-256 MiB inputs, a server cold start takes ~0.5 s, so the
# server gets more of them for the same cost
COLD_STARTS = {"split_uniform": 3, "split_skewed": 3, "serve_mixed": 9}
# serve_mixed's closed loop: requests kept outstanding over the
# connections, enough to keep the coalescer's windows full
CLOSED_INFLIGHT = 32
# traced serve_mixed run: the max-rate search takes SEARCH_SHARE *
# --seconds, in at most MAX_PROBES probes that start at PROBE_START * high
# and grow by PROBE_STEP until one fails
SEARCH_SHARE = 1.2
PROBE_START = 2.0
PROBE_STEP = 1.25
MAX_PROBES = 5
# serve_mixed warm-up before the timed windows
WARMUP_S = 2.0
# a split child is killed once the run has used this long, so a hung
# program still ends the run well inside its 180 s limit (the server
# child is bounded by the time-outs in serve_load)
RUN_LIMIT_S = 165.0
MiB = float(1 << 20)
_deadline = float("inf")


# -- host facts --------------------------------------------------------------


def working_set_bytes(workload: str) -> tuple[int, int]:
    """(largest single array, whole per-op working set) in bytes."""
    if workload.startswith("split"):
        n = wl.UNIFORM_N if workload == "split_uniform" else wl.SKEWED_N
        return 4 * n, n * (4 + 4 + 4 + 4 + 1)  # kv in, kv out, uint8 ids
    n = max(wl.SERVE_SIZES)
    return 4 * n, 4 * n * 4  # keys in and out, request and response


def host_facts(workload: str) -> dict:
    l3 = l3_bytes()
    largest, ws = working_set_bytes(workload)
    return {
        "nproc": NPROC,
        "l3_mib": l3 / MiB,
        "memcpy_gbs": memcpy_gbs(l3),
        "largest_array_mib": largest / MiB,
        "working_set_mib": ws / MiB,
        "largest_array_l3x": largest / l3 if l3 else 0.0,
        "working_set_l3x": ws / l3 if l3 else 0.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- children ----------------------------------------------------------------


def child_env(work: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    pythonpath = SRC + (os.pathsep + path if path else "")
    env = {"PYTHONPATH": pythonpath, "TMPDIR": work, "REPRO_STREAM_TMPDIR": work}
    return {**os.environ, **env}


def run_child(args: list, work: str) -> dict:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(work),
        stdout=subprocess.PIPE,
        timeout=max(1.0, _deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def median_unstolen(ops) -> float:
    """Median of ``[wall, cpu, steal]`` op times, less stolen time."""
    return statistics.median(unstolen(*op) for op in ops)


# -- split workloads ---------------------------------------------------------


def run_split(a, work: str, host: dict) -> tuple[dict, dict]:
    if a.workload == "split_skewed":
        wl.write_skewed_inputs(a.seed, work)
    worker = os.path.join("perfbench", "split_worker.py")
    common = ["--workload", a.workload, "--seed", str(a.seed), "--work", work]
    oracle = run_child([worker, "oracle", *common], work)
    common += ["--oracle", oracle["digest"]]
    colds = []
    if not a.trace:
        cold = [worker, "cold", *common]
        colds = [run_child(cold, work) for _ in range(COLD_STARTS[a.workload])]
    trace_out = trace_path(a, "spans")
    opts = ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    opts += ["--trace-out", trace_out]
    meas = run_child([worker, "measure", *common, *opts], work)

    tally = dict.fromkeys(TALLY_KEYS, 0)
    tally["attempted"] = meas["attempted"] + len(colds)
    tally["errors"] = meas["errors"]
    tally["wrong"] = meas["wrong"] + sum(not c["ok"] for c in colds)
    tally["ok"] = tally["attempted"] - tally["errors"] - tally["wrong"]
    times = meas["times"]
    n = meas["n"]
    if not times:
        raise RuntimeError("no op completed")
    if not a.trace:
        walls = [unstolen(*op) for op in times]
        metrics = {
            "setup_s": median_unstolen(c["time"] for c in colds),
            "throughput_mkeys_s": n * len(walls) / sum(walls) / 1e6,
            # a run holds 8-30 ops: the highest percentile with ten
            # samples beyond it is at most the median
            "call_ms_p50": statistics.median(walls) * 1e3,
            "peak_rss_mib": meas["maxrss_mib"],
            "max_bucket_ratio": meas["max_bucket_ratio"],
        }
        raw_walls = [op[0] for op in times]
        raw = {
            "setup_s": statistics.median(c["time"][0] for c in colds),
            "throughput_mkeys_s": n * len(times) / sum(raw_walls) / 1e6,
            "call_ms_p50": statistics.median(raw_walls) * 1e3,
        }
        tally["ops_timed"] = len(times)
        tally["steal"] = round(statistics.mean(op[2] for op in times), 4)
        return metrics, {"tally": tally, "raw": raw}

    lay = meas["layers"]
    bw = host["memcpy_gbs"] * 1e9
    kv_bytes = 4 + 4
    id_bytes = 1  # m <= 256: the engines narrow ids to uint8
    scatter_bytes = n * (2 * kv_bytes + id_bytes)
    plain = median_unstolen(times)
    metrics = zero_metrics(PER_LAYER)
    layer = {
        "bucketing.from_sample_ms": lay["from_sample_s"] * 1e3,
        "bucketing.eval_busy_ms": lay["eval_busy_s"] * 1e3,
        "bucketing.eval_ns_per_key": lay["eval_ns_per_key"],
        "bucketing.evals_per_key": lay["evals_per_key"],
        "engine.prescan_busy_ms": lay["prescan_busy_s"] * 1e3,
        "engine.prescan_wall_ms": lay["prescan_wall_s"] * 1e3,
        "engine.scatter_busy_ms": lay["scatter_busy_s"] * 1e3,
        "engine.scatter_wall_ms": lay["scatter_wall_s"] * 1e3,
        "engine.other_ms": lay["other_s"] * 1e3,
        "engine.parallel_eff": lay["busy_s"] / lay["multisplit_s"] / meas["workers"],
        "engine.speedup_1w": median_unstolen(meas["one_worker"]) / plain,
        # bytes moved are computed from array sizes, not measured: the
        # permutation reads and writes every key and value once; the
        # histogram reads the ids; the scatter reads keys, values and
        # ids and writes keys and values
        "engine.sol_fraction": 2 * n * kv_bytes / bw / lay["multisplit_s"],
        "engine.prescan_sol": n * id_bytes / bw / lay["prescan_wall_s"],
        "engine.scatter_sol": scatter_bytes / bw / lay["scatter_wall_s"],
        "engine.kernel_calls": lay["kernel_calls"],
        "trace.overhead_pct": (median_unstolen(meas["traced"]) / plain - 1) * 100,
    }
    metrics.update(layer)
    write_layer_summary(a, trace_out, metrics)
    return metrics, {"tally": tally}


# -- serve workload ----------------------------------------------------------


def server_cmd(traced_out: str | None) -> list:
    if traced_out is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0"]
    return [sys.executable, os.path.join("perfbench", "traced_server.py"), traced_out]


class ServeRun:
    """The servers and request windows of one serve_mixed run, with one
    failure tally over all of them."""

    def __init__(self, a, work: str):
        self.a, self.work = a, work
        self.payloads = wl.ServePayloads(a.seed)
        self.tally = dict.fromkeys(TALLY_KEYS, 0)
        self.windows = 0

    def add(self, counts: dict) -> None:
        for k, v in counts.items():
            self.tally[k] += v

    def load(self, name, seconds, **kwargs) -> sl.Load:
        """A new request window with its own range of request ids."""
        self.windows += 1
        id_base = self.windows * 10_000_000
        return sl.Load(name, seconds, self.a.seed, self.payloads, id_base, **kwargs)

    def start_server(self, traced_out=None):
        """Start a server child and wait for its first response (a small
        range multisplit, checked); returns the server, its address and
        the set-up time as ``[wall, cpu, steal]``."""
        log = os.path.join(self.work, "server.log")
        cmd = server_cmd(traced_out)
        srv = sl.ServerProcess(cmd, cwd=ROOT, env=child_env(self.work), log_path=log)
        steal0 = cpu_steal()
        t0 = time.monotonic()
        host, port = srv.start()
        req = ("range", wl.SERVE_SIZES[0], 0)
        try:
            resp = asyncio.run(sl.request(host, port, self.payloads.line(0, *req)))
            wall = time.monotonic() - t0
            setup = [wall, cpu_seconds(srv.pid), steal_share(steal0, cpu_steal())]
        except BaseException:
            srv.stop()
            raise
        self.add({"attempted": 1, sl.outcome(resp, req, self.payloads): 1})
        return srv, host, port, setup

    def stop_server(self, srv) -> None:
        """Stop a server; one that died or exits uncleanly is a failure."""
        self.add({"attempted": 1, "ok" if srv.stop() else "errors": 1})

    async def drive(self, host, port, ld, *, server_pid=None, marks=False, **kwargs):
        """Run one window bracketed by metrics reads (and phase marks for
        the traced server, which timestamps them on its own clock), then
        check its responses. ``kwargs`` go to ``Load.run``."""
        if marks:
            await sl.control(host, port, {"id": f"mark:{ld.name}:start", "op": "ping"})
        before = await sl.control(host, port, {"id": "m", "op": "metrics"})
        await ld.run(host, port, server_pid=server_pid, **kwargs)
        after = await sl.control(host, port, {"id": "m", "op": "metrics"})
        if marks:
            await sl.control(host, port, {"id": f"mark:{ld.name}:end", "op": "ping"})
        ld.counters = sl.counter_delta(sl.counters(before), sl.counters(after))
        self.add(sl.check_responses(ld, self.payloads))
        return ld


def max_rate(run: ServeRun, host, port, fixed) -> tuple[float, list]:
    """Bounded search for the highest rate meeting the p99 limit.

    Raise the offered rate geometrically from ``high`` until a probe
    misses the limit or backs up, then bisect the bracket with the probes
    left. p99 is made monotone in the rate over every window measured
    (pool-adjacent-violators), and the result is interpolated where it
    crosses the limit. Each probe keeps at least 1000 requests after
    steal gating, so p99 has ten samples beyond it.
    """
    limit = wl.SERVE_P99_LIMIT_MS
    budget_s = SEARCH_SHARE * run.a.seconds
    points = [(ld.rate, percentile(ld.latency_ms()[0], 99)) for ld in fixed]
    lo, hi = max(ld.rate for ld in fixed), None
    rate = lo * PROBE_START
    probes = []
    for k in range(MAX_PROBES):
        seconds = max(budget_s / MAX_PROBES, 1000.0 / (rate * sl.STEAL_KEEP))
        ld = run.load(f"probe{k}", seconds, rate=rate)
        # backed up: more than a quarter second of arrivals outstanding
        max_backlog = int(rate * 0.25) + 64
        asyncio.run(run.drive(host, port, ld, max_backlog=max_backlog))
        probes.append(ld)
        # a probe that backed up failed whatever its completed requests show
        p99 = percentile(ld.latency_ms()[0], 99)
        points.append((rate, max(p99, 2 * limit) if ld.aborted else p99))
        if points[-1][1] > limit:
            hi = rate if hi is None else min(hi, rate)
        else:
            lo = max(lo, rate)
        rate = lo * PROBE_STEP if hi is None else 0.5 * (lo + hi)
    return crossing(points, limit), probes


def crossing(points, limit: float) -> float:
    """Rate where the monotone (isotonic) fit of p99 first exceeds
    ``limit``, linearly interpolated; the highest rate if it never does."""
    blocks = []  # [p99 sum, count, rates]
    for r, p in sorted(points):
        blocks.append([p, 1, [r]])
        while len(blocks) > 1 and p_mean(blocks[-2]) > p_mean(blocks[-1]):
            p2, c2, r2 = blocks.pop()
            blocks[-1][0] += p2
            blocks[-1][1] += c2
            blocks[-1][2] += r2
    fit = [(r, p_mean(b)) for b in blocks for r in b[2]]
    prev = (0.0, 0.0)
    for r, p in fit:
        if p > limit:
            frac = (limit - prev[1]) / max(p - prev[1], 1e-9)
            return prev[0] + (r - prev[0]) * min(max(frac, 0.0), 1.0)
        prev = (r, p)
    return prev[0]


def p_mean(block) -> float:
    return block[0] / block[1]


def run_serve(a, work: str, host_info: dict) -> tuple[dict, dict]:
    run = ServeRun(a, work)
    if a.trace:
        return run_serve_traced(run)
    # a closed-loop warm-up (lazy set-up and arenas, not timed), then the
    # saturated closed loop that the end-to-end metrics come from
    warm = run.load("warmup", WARMUP_S, inflight=CLOSED_INFLIGHT)
    sat = run.load("saturated", a.seconds, inflight=CLOSED_INFLIGHT)
    setups, srv = [], None
    try:
        for _ in range(COLD_STARTS[a.workload]):
            if srv is not None:
                run.stop_server(srv)
            srv, host, port, setup = run.start_server()
            setups.append(setup)
        for ld in (warm, sat):
            asyncio.run(run.drive(host, port, ld, server_pid=srv.pid))
    finally:
        if srv is not None:
            run.stop_server(srv)
    wall = unstolen(sat.wall, sum(sat.cpu_s.values()), sat.steal)
    keys, p50 = sat.keys_answered(), percentile(sat.latency_ms()[0], 50)
    metrics = {
        "setup_s": median_unstolen(setups),
        "throughput_mkeys_s": keys / wall / 1e6,
        "call_ms_p50": p50 * wall / sat.wall,
        "peak_rss_mib": srv.maxrss_mib,
        "max_bucket_ratio": sl.splitter_ratio(sat),
    }
    raw = {
        "setup_s": statistics.median(s[0] for s in setups),
        "throughput_mkeys_s": keys / sat.wall / 1e6,
        "call_ms_p50": p50,
    }
    tally = run.tally
    tally["requests_per_s"] = round(int(sat.sent_mask().sum()) / sat.wall, 1)
    tally["steal"] = round(sat.steal, 4)
    tally["cpu_share"] = {k: round(v / sat.wall, 4) for k, v in sat.cpu_s.items()}
    return metrics, {"tally": tally, "raw": raw}


def run_serve_traced(run: ServeRun) -> tuple[dict, dict]:
    """Open-loop windows at the fixed rates on an untraced server (plus
    the max-rate search), then the same windows on a traced server; the
    per-layer metrics come from the traced server's spans."""
    a = run.a
    high = wl.SERVE_RATES["high"]
    each = {"low": 0.3 * a.seconds, "high": 0.2 * a.seconds}
    trace_out = trace_path(a, "spans")
    plain = traced = probes = []
    for out in (None, trace_out):
        warm = run.load("warmup", WARMUP_S, rate=high)
        rates = wl.SERVE_RATES.items()
        fixed = [run.load(name, each[name], rate=r) for name, r in rates]
        srv = None
        try:
            srv, host, port, _ = run.start_server(out)
            for ld in [warm, *fixed]:
                asyncio.run(run.drive(host, port, ld, marks=out is not None))
            if out is None:
                plain = fixed
                rate, probes = max_rate(run, host, port, plain)
            else:
                traced = fixed
        finally:
            if srv is not None:
                run.stop_server(srv)
    tally = run.tally
    probe_p99 = [percentile(ld.latency_ms()[0], 99) for ld in probes]
    tally["probes"] = [[ld.rate, p, ld.aborted] for ld, p in zip(probes, probe_p99)]
    tally["steal"] = {ld.name: round(ld.steal, 4) for ld in plain + probes}
    with open(trace_out) as f:
        trace = json.load(f)
    metrics = zero_metrics(PER_LAYER)
    metrics.update(serve_layers(trace, traced))
    for ld in plain:
        lat = ld.latency_ms()[0]
        metrics[f"serve.p50_ms.{ld.name}"] = percentile(lat, 50)
        metrics[f"serve.p99_ms.{ld.name}"] = percentile(lat, 99)
    metrics["serve.max_rate_rps"] = rate
    p50 = []
    for lds in (plain, traced):
        p50.append(percentile(np.concatenate([ld.latency_ms()[0] for ld in lds]), 50))
    metrics["trace.overhead_pct"] = (p50[1] / p50[0] - 1) * 100
    write_layer_summary(a, trace_out, metrics)
    return metrics, {"tally": tally}


def serve_layers(trace: dict, loads) -> dict:
    spans = trace["spans"]
    bins = dict((b, v) for b, v in trace["loop_busy"])
    origin, bin_s = trace["origin"], trace["bin_s"]
    workers = trace["executor_workers"]
    marks = {}
    by_op: dict = {}
    batches, sorts = [], []
    for sp in spans:
        name, op = sp[1], sp[6]
        if name.startswith("batch."):
            batches.append(sp)
        elif name == "sort.fast_radix":
            sorts.append(sp)
        elif name == "protocol.parse" and str(op).startswith("mark:"):
            marks[op] = sp[2]
        if isinstance(op, int):
            by_op.setdefault(op, []).append(sp)
    kernel_of: dict = {}
    for sp in batches + sorts:
        ops = sp[6] if isinstance(sp[6], list) else [sp[6]]
        for op in ops:
            kernel_of[op] = sp[3] - sp[2]

    def busy(ss, names) -> float:
        return sum(sp[3] - sp[2] for sp in ss if sp[1] in names)

    out: dict = {}
    ms_keys = ev_keys = ev_busy = ms_requests = 0
    for ld in loads:
        t0, t1 = marks[f"mark:{ld.name}:start"], marks[f"mark:{ld.name}:end"]
        lat, idx = ld.latency_ms()
        decode, encode, validate, wait = [], [], [], []
        for latency, i in zip(lat, idx):
            op = ld.id_base + int(i)
            ss = by_op.get(op, [])
            d = busy(ss, ("protocol.parse", "protocol.spec", "protocol.array"))
            e = busy(ss, ("protocol.response", "protocol.encode"))
            v = busy(ss, ("validate.spec",))
            decode.append(d)
            encode.append(e)
            if ld.kinds[i] != "sort":
                validate.append(v)
                ms_keys += ld.sizes[i]
                ms_requests += 1
            evals = [sp for sp in ss if sp[1] == "bucketing.eval"]
            ev_keys += sum(sp[7] for sp in evals)
            ev_busy += busy(evals, ("bucketing.eval",))
            wait.append(latency - (d + e + v + kernel_of.get(op, 0.0)) * 1e3)
        ids = set(range(ld.id_base, ld.id_base + len(ld.kinds)))
        bk = [sp[3] - sp[2] for sp in batches if any(o in ids for o in sp[6])]
        sk = [sp[3] - sp[2] for sp in sorts if sp[6] in ids]
        overlap = [min(sp[3], t1) - max(sp[2], t0) for sp in batches + sorts]
        executor = sum(max(0.0, x) for x in overlap)
        loop = sum(v for b, v in bins.items() if t0 <= origin + b * bin_s < t1)
        c = ld.counters
        batches_n = c.get("service.batches", 0)
        per_batch = 1.0 / batches_n if batches_n else 0.0
        r = ld.name
        rows = {
            "protocol.decode_us_p50": percentile(decode, 50) * 1e6,
            "protocol.encode_us_p50": percentile(encode, 50) * 1e6,
            "validate.us_p50": percentile(validate, 50) * 1e6,
            "coalescer.batch_size_mean": c.get("ms_requests", 0) * per_batch,
            "coalescer.fused_share": c.get("service.fused_batches", 0) * per_batch,
            "batch.kernel_ms_p50": percentile(bk, 50) * 1e3,
            "sort.kernel_ms_p50": percentile(sk, 50) * 1e3,
            "service.wait_ms_p50": percentile(wait, 50),
            "service.wait_ms_p99": percentile(wait, 99),
            "service.loop_busy_share": loop / (t1 - t0),
            "service.executor_busy_share": executor / ((t1 - t0) * workers),
            "service.rejected": c.get("service.rejected", 0),
            "service.timeouts": c.get("service.timeouts", 0),
            "service.batch_fallbacks": c.get("service.batch_fallbacks", 0),
            "loadgen.late_ms_p99": percentile(ld.late_ms(), 99),
        }
        out.update({f"{name}.{r}": value for name, value in rows.items()})
    # the decoded specs' evaluations, per multisplit request (validation
    # re-evaluates a sample of each request's keys)
    out["bucketing.eval_busy_ms"] = ev_busy * 1e3 / max(ms_requests, 1)
    out["bucketing.eval_ns_per_key"] = ev_busy * 1e9 / max(ev_keys, 1)
    out["bucketing.evals_per_key"] = ev_keys / max(ms_keys, 1)
    return out


# -- output ------------------------------------------------------------------


def zero_metrics(table) -> dict:
    return {name: 0.0 for name, _ in table}


def trace_path(a, kind: str) -> str:
    d = os.path.join(HERE, "traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, f"{a.workload}-seed{a.seed}.{kind}.json")


def write_layer_summary(a, spans_path: str, metrics: dict) -> None:
    """Busy, wall and self time per layer, next to the raw spans."""
    with open(spans_path) as f:
        spans = json.load(f)["spans"]
    layers = layer_times(spans)
    with open(trace_path(a, "layers"), "w") as f:
        json.dump({"layers": layers, "metrics": metrics}, f, indent=1)
    rounded = {k: {m: round(v, 6) for m, v in row.items()} for k, row in layers.items()}
    print(json.dumps({"layers": rounded}))


def result_line(metrics: dict, table, tally: dict) -> str:
    values = {n: {"value": float(metrics[n]), "unit": u} for n, u in table}
    result = {
        "correct": tally["failed"] == 0,
        "attempted": int(tally["attempted"]),
        "failed": int(tally["failed"]),
        "metrics": values,
    }
    return json.dumps(result)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    global _deadline
    _deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once up front: users import from warm caches, and the
    # first cold start must not pay compilation the others skip
    compileall.compile_dir(SRC, quiet=1)
    work = os.path.join(HERE, ".work", f"{a.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    errors = (RuntimeError, subprocess.SubprocessError, OSError)
    try:
        host = host_facts(a.workload)
        run = run_split if a.workload.startswith("split") else run_serve
        metrics, report = run(a, work, host)
    except (*errors, asyncio.TimeoutError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if a.trace:
        for name in ("memcpy_gbs", "nproc", "l3_mib", "working_set_l3x"):
            metrics[f"host.{name}"] = host[name]
    tally = report["tally"]
    tally["failed"] = tally["attempted"] - tally["ok"]
    table = PER_LAYER if a.trace else END_TO_END
    print(json.dumps({"host": host}))
    print(json.dumps({"failures": tally}))
    if "raw" in report:
        print(json.dumps({"raw": report["raw"]}))
    print(result_line(metrics, table, tally))
    return 0 if tally["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
