"""serve_mixed: request load against ``repro serve`` in a child process.

One generator process (this one) drives the server child over
``SERVE_CONNECTIONS`` pipelined connections (``Load``). Request lines are
built from key arrays encoded before the timed window. Responses are
stored raw during the window and checked against a numpy oracle after it;
only responses that match the oracle count toward latency and
throughput.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import time

import numpy as np

import workloads as wl
from host import cpu_seconds, cpu_steal, steal_share, vm_hwm_mib

READY_PREFIX = "repro-serve listening on "
STREAM_LIMIT = 1 << 22
STOP_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
# Steal gating. On a shared VM the hypervisor takes the vCPUs away for
# milliseconds at a time, and a few percent of stolen time moves p99 by
# 2-3x. Each window is cut into STEAL_SUB_S slices; open-loop latency
# percentiles use the requests due in the STEAL_KEEP share of slices with
# the least stolen time in the slice and the one before it (a stall
# delays the queue behind it), the same rule on every run and commit.
STEAL_SUB_S = 0.25
STEAL_KEEP = 2 / 3
# upper bound on the closed loop's request rate, to size its request mix
CLOSED_MAX_RPS = 2000.0
# the first request is sent this long after the connections are open
START_DELAY_S = 0.05


class ServerProcess:
    """A server child: start, find its port, stop, and read its peak RSS."""

    def __init__(self, cmd, *, cwd, env, log_path):
        self.cmd, self.cwd, self.env, self.log_path = cmd, cwd, env, log_path
        self.proc = None
        self.maxrss_mib = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self) -> tuple[str, int]:
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE, stderr=log
            )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode(errors="replace").splitlines():
                    if line.startswith(READY_PREFIX):
                        host, port = line[len(READY_PREFIX) :].rsplit(":", 1)
                        return host, int(port)
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"server did not become ready (see {self.log_path})")

    def stop(self) -> bool:
        """Record VmHWM, SIGTERM (the server drains), reap; kill on
        timeout. True when the server was still running and then exited
        cleanly."""
        proc = self.proc
        if proc is None:
            return False
        alive = proc.poll() is None
        if alive:
            self.maxrss_mib = vm_hwm_mib(proc.pid)
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        return alive and proc.returncode == 0 and self.maxrss_mib > 0


async def _open(host, port, count):
    conns = []
    for _ in range(count):
        conns.append(await asyncio.open_connection(host, port, limit=STREAM_LIMIT))
    return conns


async def _close(conns):
    for _, w in conns:
        w.close()
    for _, w in conns:
        try:
            await w.wait_closed()
        except ConnectionError:
            pass


async def request(host, port, line: bytes) -> dict:
    """One request on a fresh connection (control ops, cold starts)."""
    [(r, w)] = await _open(host, port, 1)
    try:
        w.write(line)
        await w.drain()
        return json.loads(await r.readline())
    finally:
        await _close([(r, w)])


async def control(host, port, obj) -> dict:
    return await request(host, port, json.dumps(obj).encode() + b"\n")


class Load:
    """One window of requests in the serve_mixed mix.

    Open loop (``rate`` given): requests arrive as a Poisson process at
    ``rate`` and each is sent at its due time; latency runs from the due
    time, so a stalled server or a late generator is charged to every
    request queued behind the stall. Closed loop (``rate`` None): each
    connection keeps its share of ``inflight`` requests outstanding and
    sends the next one on each response; latency runs from the send time.
    """

    def __init__(self, name, seconds, seed, payloads, id_base, rate=None, inflight=0):
        self.name, self.seconds, self.rate = name, seconds, rate
        self.payloads, self.id_base, self.inflight = payloads, id_base, inflight
        mix_rate = CLOSED_MAX_RPS if rate is None else rate
        due, kinds, sizes, picks = wl.serve_schedule(seed, name, mix_rate, seconds)
        self.due = None if rate is None else due
        self.kinds = [wl.SERVE_KINDS[k] for k in kinds]
        self.sizes = [wl.SERVE_SIZES[s] for s in sizes]
        self.picks = picks.tolist()
        k = len(self.kinds)
        self.sent = np.full(k, np.nan)
        self.recv = np.full(k, np.nan)
        self.responses: list = [None] * k
        # set by check_responses: the response matched the oracle
        self.good = np.zeros(k, dtype=bool)
        self.t0 = self.wall = 0.0
        self.aborted = False
        self.slices: list = []  # (time, steal jiffies, wanted jiffies)
        self.cpu_s = {"generator": 0.0, "server": 0.0}
        self.counters: dict = {}  # service counter deltas over the window

    def line(self, i: int) -> bytes:
        req_id = self.id_base + i
        return self.payloads.line(req_id, self.kinds[i], self.sizes[i], self.picks[i])

    async def run(self, host, port, *, server_pid=None, max_backlog=None):
        """Send until the window ends; stop sending early if the backlog
        passes ``max_backlog`` (a probe past the knee); always wait for
        every response to a request that was sent. ``cpu_s`` is the CPU
        time this process and the server used over the window."""
        loop = asyncio.get_running_loop()
        conns = await _open(host, port, wl.SERVE_CONNECTIONS)
        k = len(self.kinds)
        backlog = [0]
        self.t0 = loop.time() + START_DELAY_S
        end = self.t0 + self.seconds

        def cpu():
            server = 0.0 if server_pid is None else cpu_seconds(server_pid)
            return {"generator": time.process_time(), "server": server}

        async def sampler():
            while True:
                self.slices.append((loop.time(), *cpu_steal()))
                due = self.t0 + len(self.slices) * STEAL_SUB_S
                await asyncio.sleep(due - loop.time())

        async def connection(c, r, w):
            slots = None
            if self.due is None:
                slots = asyncio.Semaphore(self.inflight // len(conns))
            state = {"sent": 0, "got": 0, "done": False, "eof": False}

            async def reader():
                while not (state["done"] and state["got"] == state["sent"]):
                    try:
                        line = await r.readline()
                    except ConnectionError:
                        line = b""
                    if not line:
                        # the server went away: stop sending on every
                        # connection and wake a sender waiting for a slot
                        state["eof"] = self.aborted = True
                        if slots is not None:
                            slots.release()
                        return
                    i = response_index(line, self.id_base)
                    self.recv[i] = loop.time()
                    self.responses[i] = line
                    state["got"] += 1
                    backlog[0] -= 1
                    if slots is not None:
                        slots.release()

            rtask = asyncio.ensure_future(reader())
            try:
                await asyncio.sleep(self.t0 - loop.time())
                for i in range(c, k, len(conns)):
                    if slots is None:
                        await asyncio.sleep(self.t0 + self.due[i] - loop.time())
                    else:
                        await slots.acquire()
                        if loop.time() >= end:
                            break
                    if self.aborted:
                        break
                    w.write(self.line(i))
                    self.sent[i] = loop.time()
                    state["sent"] += 1
                    backlog[0] += 1
                    if max_backlog and backlog[0] > max_backlog:
                        self.aborted = True
                    if w.transport.get_write_buffer_size() > (1 << 20):
                        await w.drain()
                await w.drain()
                state["done"] = True
                if state["got"] == state["sent"]:
                    rtask.cancel()
                await asyncio.gather(rtask, return_exceptions=True)
                if state["eof"] and state["got"] < state["sent"]:
                    raise ConnectionError("the server closed the connection")
            finally:
                rtask.cancel()

        cpu0 = cpu()
        stask = asyncio.ensure_future(sampler())
        work = (connection(c, r, w) for c, (r, w) in enumerate(conns))
        limit = START_DELAY_S + self.seconds + STOP_TIMEOUT_S
        try:
            await asyncio.wait_for(asyncio.gather(*work), limit)
        except asyncio.TimeoutError:
            msg = f"window {self.name}: responses still missing after {limit:.0f} s"
            raise RuntimeError(msg) from None
        finally:
            stask.cancel()
            self.wall = loop.time() - self.t0
            self.slices.append((loop.time(), *cpu_steal()))
            self.cpu_s = {name: t - cpu0[name] for name, t in cpu().items()}
            await _close(conns)

    # -- results ---------------------------------------------------------
    @property
    def steal(self) -> float:
        """Stolen share of the wanted CPU time over the window."""
        first, last = self.slices[0], self.slices[-1]
        return steal_share(first[1:], last[1:])

    def sent_mask(self):
        return ~np.isnan(self.sent)

    def quiet_mask(self):
        """Requests due in the slices with the least stolen CPU time."""
        sl = self.slices
        stolen = np.array([b[1] - a[1] for a, b in zip(sl, sl[1:])], dtype=float)
        score = stolen + np.concatenate(([0.0], stolen[:-1]))
        keep = max(1, round(score.size * STEAL_KEEP))
        quiet = np.argsort(score, kind="stable")[:keep]
        slice_of = np.minimum((self.due // STEAL_SUB_S).astype(int), score.size - 1)
        return np.isin(slice_of, quiet)

    def latency_ms(self):
        """(latencies in ms, request indices) of the responses that matched
        the oracle; open-loop windows keep the quiet slices only."""
        m = self.good.copy()
        if self.due is None:
            start = self.sent
        else:
            start = self.t0 + self.due
            m &= self.quiet_mask()
        return (self.recv[m] - start[m]) * 1e3, np.flatnonzero(m)

    def late_ms(self):
        m = self.sent_mask()
        return (self.sent[m] - (self.t0 + self.due[m])) * 1e3

    def keys_answered(self) -> int:
        return sum(self.sizes[i] for i in np.flatnonzero(self.good))


def response_index(line: bytes, id_base: int) -> int:
    """Request index from a response line, which starts ``{"id":<n>,``
    (the server encodes the echoed id first)."""
    return int(line[6 : line.index(b",", 6)]) - id_base


# failure kinds counted against the requests attempted
FAILURES = ("wrong", "rejected", "timeouts", "errors", "missing")


def outcome(resp: dict, req, payloads) -> str:
    """Tally key of one response to ``req`` = (kind, size, pick)."""
    if not resp.get("ok"):
        code = resp.get("error", {}).get("code")
        return {429: "rejected", 408: "timeouts"}.get(code, "errors")
    exp = payloads.expected(*req)
    return "ok" if all(resp.get(f) == v for f, v in exp.items()) else "wrong"


def check_responses(load, payloads) -> dict:
    """Compare each response of ``load`` with the oracle and set its
    ``good`` mask; returns the count per outcome."""
    tally = dict.fromkeys(("attempted", "ok", *FAILURES), 0)
    for i in np.flatnonzero(load.sent_mask()):
        tally["attempted"] += 1
        raw = load.responses[i]
        if raw is None:
            tally["missing"] += 1
            continue
        req = (load.kinds[i], load.sizes[i], load.picks[i])
        kind = outcome(json.loads(raw), req, payloads)
        load.good[i] = kind == "ok"
        tally[kind] += 1
    return tally


def splitter_ratio(load) -> float:
    """Largest bucket over the mean bucket, summed over the splitter
    responses of ``load`` that matched the oracle."""
    counts = np.zeros(wl.SERVE_SPLITTER_M, dtype=np.int64)
    for i in np.flatnonzero(load.good):
        if load.kinds[i] == "splitter":
            counts += np.diff(json.loads(load.responses[i])["bucket_starts"])
    mean = counts.mean()
    return float(counts.max() / mean) if mean else 0.0


def counters(snapshot: dict) -> dict:
    """The service counters this benchmark reads from the metrics op."""
    names = (
        "service.batches",
        "service.fused_batches",
        "service.rejected",
        "service.timeouts",
        "service.batch_fallbacks",
    )
    out: dict = {}
    for rec in snapshot.get("series", []):
        name = rec["name"]
        route = rec["labels"].get("route")
        if name == "service.requests" and route == "multisplit":
            out["ms_requests"] = rec["value"]
        elif name in names:
            out[name] = out.get(name, 0) + rec["value"]
    return out


def counter_delta(before: dict, after: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}
