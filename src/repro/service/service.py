"""ReproService: the long-lived asyncio front end over the fast engines.

The request path mirrors the paper's {local, global, local} insight one
level up: per-request overhead (executor handoff, scratch allocation,
event-loop wakeups) is the "kernel launch" of a serving stack, and the
way to amortize it is to batch. Concurrent small multisplit requests
are therefore coalesced (see :mod:`repro.service.coalescer`) into
single :func:`~repro.engine.multisplit_batch` dispatches executed on a
thread pool whose workers each own a child
:class:`~repro.engine.Workspace` arena — scratch stays warm across
requests, results are always freshly allocated (``reuse_outputs=False``)
so they safely outlive the pool.

Admission control keeps the service stable under overload: at most
``max_queue`` requests may be admitted-but-incomplete; beyond that,
submissions fail *immediately* with a 429-style
:class:`~repro.service.errors.ServiceOverloadedError` carrying a
``retry_after_ms`` hint — a bounded queue plus fast rejection beats an
unbounded queue that converts overload into unbounded latency. Admitted
requests are covered by an optional deadline
(``request_timeout_ms``), and :meth:`close` drains gracefully: open
coalescing windows flush, dispatched work completes, every accepted
request gets its response before the executor stops.

Every route records a latency histogram (p50/p90/p99 via
``service.latency_ms{route=...}``) plus coalescing and rejection
counters in the service's own always-enabled
:class:`~repro.obs.MetricsRegistry`, exported by
:meth:`metrics_snapshot` (the ``/metrics`` op of the TCP endpoint).

Usage::

    async with ReproService() as svc:
        res = await svc.multisplit(keys, RangeBuckets(16))

or explicitly ``await svc.start()`` / ``await svc.close()``.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine import (Workspace, coalesced_multisplit_batch,
                          multisplit_batch)
from repro.engine.stream import usable_cores
from repro.multisplit.api import Method, multisplit
from repro.multisplit.bucketing import as_bucket_spec
from repro.multisplit.validate import SpecValidationError, validate_spec
from repro.obs import MetricsRegistry, get_registry, metrics_enabled, enable_metrics, disable_metrics

from .coalescer import Coalescer, PendingRequest, spec_batch_key
from .config import ServiceConfig
from .errors import (BadRequestError, RequestTimeoutError, ServiceClosedError,
                     ServiceError, ServiceOverloadedError)

__all__ = ["ReproService"]

ROUTES = ("multisplit", "sort", "sssp")


def _default_workers() -> int:
    return max(2, min(8, usable_cores()))


def _client_error(exc: Exception) -> ServiceError:
    """Map an engine/library exception onto the service taxonomy."""
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, (ValueError, TypeError)):
        return BadRequestError(str(exc))
    return ServiceError(f"{type(exc).__name__}: {exc}")


class ReproService:
    """Async multisplit/sort/SSSP service with coalescing + backpressure."""

    def __init__(self, config: ServiceConfig | None = None, *,
                 metrics: MetricsRegistry | None = None):
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._coalescer: Coalescer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._root_ws = Workspace(reuse_outputs=False)
        self._ws_lock = threading.Lock()
        self._ws_tls = threading.local()
        self._ws_count = 0
        self._tasks: set[asyncio.Future] = set()
        self._pending = 0
        self._started = False
        self._closed = False
        self._installed_registry = False
        # the admission/coalescing path runs once per request, so label
        # resolution is hoisted out of it: series handles by route
        m = self.metrics
        self._c_requests = {r: m.counter("service.requests", route=r)
                            for r in ROUTES}
        self._h_latency = {r: m.histogram("service.latency_ms", route=r)
                           for r in ROUTES}
        self._g_depth = m.gauge("service.queue_depth_max")
        self._c_batches = m.counter("service.batches")
        self._h_batch_size = m.histogram("service.batch_size")
        self._g_batch_max = m.gauge("service.batch_size_max")
        self._c_coalesced = m.counter("service.coalesced_requests")
        self._c_fused = m.counter("service.fused_batches")

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "ReproService":
        """Bind to the running loop and start accepting requests."""
        if self._started:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        cfg = self.config
        self._coalescer = Coalescer(
            self._loop, max_batch=cfg.max_batch, max_wait_ms=cfg.max_wait_ms,
            dispatch=self._dispatch_multisplit)
        workers = cfg.workers or _default_workers()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service")
        if cfg.collect_engine_metrics and not metrics_enabled():
            # route engine.* / workspace.* series into the same registry
            # the /metrics snapshot exports; restored on close
            enable_metrics(self.metrics)
            self._installed_registry = True
        self._started = True
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Stop accepting work; by default drain everything accepted.

        With ``drain=True`` (default) open coalescing windows are
        flushed and every dispatched batch completes, so each accepted
        request resolves with its real response. With ``drain=False``
        windowed requests fail with
        :class:`~repro.service.errors.ServiceClosedError` and in-flight
        executor work is abandoned (its results are discarded).
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        if drain:
            self._coalescer.flush_all()
            while self._tasks:
                await asyncio.gather(*list(self._tasks), return_exceptions=True)
        else:
            for item in self._coalescer.cancel_all():
                if not item.future.done():
                    item.future.set_exception(
                        ServiceClosedError("service closed before dispatch"))
        self._executor.shutdown(wait=drain)
        if self._installed_registry and get_registry() is self.metrics:
            disable_metrics()
            self._installed_registry = False

    async def __aenter__(self) -> "ReproService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- admission -------------------------------------------------------
    def _admit(self, route: str) -> tuple[asyncio.Future, float]:
        cfg = self.config
        self._c_requests[route].inc()
        if self._closed or not self._started:
            self.metrics.inc("service.rejected", route=route, reason="closed")
            raise ServiceClosedError(
                "service is not accepting requests"
                if self._closed else "service not started")
        if self._pending >= cfg.max_queue:
            self.metrics.inc("service.rejected", route=route, reason="overload")
            raise ServiceOverloadedError(
                f"queue full ({self._pending}/{cfg.max_queue} pending)",
                retry_after_ms=cfg.retry_after_ms)
        self._pending += 1
        self._g_depth.record_max(self._pending)
        fut = self._loop.create_future()
        t0 = self._loop.time()
        if cfg.request_timeout_ms > 0:
            handle = self._loop.call_later(
                cfg.request_timeout_ms / 1e3, self._expire, fut, route)
            fut.add_done_callback(lambda _f: handle.cancel())
        return fut, t0

    def _expire(self, fut: asyncio.Future, route: str) -> None:
        if not fut.done():
            self.metrics.inc("service.timeouts", route=route)
            fut.set_exception(RequestTimeoutError(
                f"request exceeded {self.config.request_timeout_ms:g} ms"))

    async def _finish(self, route: str, fut: asyncio.Future, t0: float):
        try:
            return await fut
        finally:
            self._pending -= 1
            self._h_latency[route].observe_ms((self._loop.time() - t0) * 1e3)

    # -- worker-side workspace pool --------------------------------------
    def _worker_ws(self) -> Workspace:
        """This executor thread's child arena (carved once, then warm)."""
        ws = getattr(self._ws_tls, "ws", None)
        if ws is None:
            with self._ws_lock:
                name = f"worker-{self._ws_count}"
                self._ws_count += 1
                ws = self._root_ws.subarena(name)
            self._ws_tls.ws = ws
        return ws

    # -- multisplit route (coalesced) ------------------------------------
    async def multisplit(self, keys, spec_or_fn, num_buckets: int | None = None,
                         *, values=None, method: str = "auto"):
        """Coalesced multisplit; resolves to a
        :class:`~repro.multisplit.result.MultisplitResult`."""
        try:
            spec = as_bucket_spec(spec_or_fn, num_buckets)
        except ValueError as e:
            raise BadRequestError(str(e)) from e
        method = Method(method).value
        keys = self._as_array(keys, "keys")
        batch_key = spec_batch_key(spec)
        # caller-supplied spec code (CustomBuckets, subclasses) is probed
        # before it enters a shared coalescing window: a wrapped or
        # out-of-range spec must not corrupt a batch. The built-in specs
        # raise their own domain errors inside ids/eval_into, and the
        # batch fallback turns those into a 400 for that request alone.
        if batch_key[0] == "custom":
            try:
                validate_spec(spec, keys)
            except (SpecValidationError, ValueError) as e:
                raise BadRequestError(f"spec failed validation: {e}") from e
        if values is not None:
            values = self._as_array(values, "values")
            if values.shape != keys.shape:
                raise BadRequestError(
                    f"values shape {values.shape} != keys shape {keys.shape}")
        fut, t0 = self._admit("multisplit")
        pending = PendingRequest(keys, spec, values, method, fut, t0)
        # keys dtype participates so every co-batched window stays
        # eligible for the fused composite-bucket dispatch
        self._coalescer.add(
            ("multisplit", method, keys.dtype.str, *batch_key), pending)
        return await self._finish("multisplit", fut, t0)

    def _dispatch_multisplit(self, key: tuple, items: list) -> None:
        size = len(items)
        self._c_batches.inc()
        self._h_batch_size.observe_ms(size)
        self._g_batch_max.record_max(size)
        if size > 1:
            self._c_coalesced.inc(size)
        efut = self._loop.run_in_executor(
            self._executor, self._run_multisplit_batch, key, items)
        self._tasks.add(efut)
        efut.add_done_callback(lambda f: self._deliver_batch(f, items))

    def _run_multisplit_batch(self, key: tuple, items: list) -> list:
        cfg = self.config
        ws = self._worker_ws()
        method = key[1]
        if len(items) > 1 and cfg.engine in ("fast", "auto"):
            # a co-batched window is exactly the shape the fused
            # composite-bucket dispatch amortizes; ineligible batches
            # (non-stable method, mixed key dtypes) fall through to the
            # per-item path below
            try:
                results = coalesced_multisplit_batch(
                    [it.keys for it in items],
                    [it.spec for it in items],
                    values_batch=[it.values for it in items],
                    method=method, workspace=ws)
                self._c_fused.inc()
                return [("ok", r) for r in results]
            except Exception:  # noqa: BLE001 — per-item path assigns blame
                pass
        try:
            results = multisplit_batch(
                [it.keys for it in items],
                [it.spec for it in items],
                values_batch=[it.values for it in items],
                method=method, engine=cfg.engine, workspace=ws,
                max_workers=cfg.batch_max_workers)
            return [("ok", r) for r in results]
        except Exception:
            # a poison item must not fail its co-batched neighbours:
            # replay the batch item-by-item so errors stay per-request
            self.metrics.inc("service.batch_fallbacks")
            out = []
            for it in items:
                try:
                    res = multisplit(
                        it.keys, it.spec, values=it.values, method=method,
                        engine=cfg.engine, workspace=ws)
                    out.append(("ok", res))
                except Exception as exc:  # noqa: BLE001 — crossed to client
                    out.append(("err", _client_error(exc)))
            return out

    def _deliver_batch(self, efut: asyncio.Future, items: list) -> None:
        self._tasks.discard(efut)
        if efut.cancelled():
            exc = ServiceClosedError("batch cancelled")
            outcomes = [("err", exc)] * len(items)
        elif efut.exception() is not None:
            exc = _client_error(efut.exception())
            outcomes = [("err", exc)] * len(items)
        else:
            outcomes = efut.result()
        for item, (status, payload) in zip(items, outcomes):
            if item.future.done():  # timed out / abandoned: discard
                continue
            if status == "ok":
                item.future.set_result(payload)
            else:
                item.future.set_exception(payload)

    # -- single-dispatch routes (sort, sssp) -----------------------------
    def _dispatch_single(self, route: str, fut: asyncio.Future, fn, *args) -> None:
        efut = self._loop.run_in_executor(self._executor, fn, *args)
        self._tasks.add(efut)

        def deliver(f: asyncio.Future) -> None:
            self._tasks.discard(f)
            if fut.done():
                return
            if f.cancelled():
                fut.set_exception(ServiceClosedError(f"{route} cancelled"))
            elif f.exception() is not None:
                fut.set_exception(_client_error(f.exception()))
            else:
                fut.set_result(f.result())

        efut.add_done_callback(deliver)

    async def sort(self, keys, values=None):
        """Stable multisplit-powered radix sort; resolves to
        ``(sorted_keys, sorted_values-or-None)``."""
        keys = self._as_array(keys, "keys")
        if values is not None:
            values = self._as_array(values, "values")
            if values.shape != keys.shape:
                raise BadRequestError(
                    f"values shape {values.shape} != keys shape {keys.shape}")
        fut, t0 = self._admit("sort")
        self._dispatch_single("sort", fut, self._run_sort, keys, values)
        return await self._finish("sort", fut, t0)

    def _run_sort(self, keys, values):
        from repro.sort import fast_radix_sort
        cfg = self.config
        ws = self._worker_ws()
        return fast_radix_sort(keys, values, engine=cfg.engine, workspace=ws)

    async def sssp(self, graph, source: int, *, algorithm: str = "delta_stepping",
                   delta: float | None = None):
        """Single-source shortest paths; resolves to ``(dist, stats)``."""
        if algorithm not in ("delta_stepping", "dijkstra"):
            raise BadRequestError(
                f"algorithm must be 'delta_stepping' or 'dijkstra', "
                f"got {algorithm!r}")
        fut, t0 = self._admit("sssp")
        self._dispatch_single("sssp", fut, self._run_sssp, graph, source,
                              algorithm, delta)
        return await self._finish("sssp", fut, t0)

    def _run_sssp(self, graph, source, algorithm, delta):
        if algorithm == "dijkstra":
            from repro.sssp import dijkstra
            return dijkstra(graph, source), {"algorithm": "dijkstra"}
        from repro.sssp import delta_stepping
        dist, stats = delta_stepping(graph, source, delta=delta, engine="fast")
        stats = dict(stats)
        stats["algorithm"] = "delta_stepping"
        return dist, stats

    # -- observability ---------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` payload: service state + every metric series."""
        cfg = self.config
        return {
            "service": {
                "engine": cfg.engine,
                "max_batch": cfg.max_batch,
                "max_wait_ms": cfg.max_wait_ms,
                "max_queue": cfg.max_queue,
                "pending": self._pending,
                "accepting": self._started and not self._closed,
                "workspace_nbytes": self._root_ws.nbytes,
            },
            "series": self.metrics.snapshot(),
        }

    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed."""
        return self._pending

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _as_array(data, what: str) -> np.ndarray:
        arr = np.ascontiguousarray(data)
        if arr.ndim != 1:
            raise BadRequestError(f"{what} must be 1-D, got shape {arr.shape}")
        return arr

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "running" if self._started else "new")
        return (f"ReproService({state}, pending={self._pending}, "
                f"engine={self.config.engine!r})")
