"""Service configuration: coalescing, backpressure, and execution knobs.

One frozen dataclass carries every operational policy the service
applies, so a deployment is described by a single value that can be
logged, compared, and round-tripped through the CLI. The defaults are
tuned for "many small concurrent requests" — the request-coalescing
shape the paper's batching argument predicts (Section 3's {local,
global, local} decomposition amortizes per-dispatch overhead across a
batch exactly the way a server amortizes per-request overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Operational policy for a :class:`~repro.service.ReproService`.

    Coalescing window
    -----------------
    max_batch:
        Flush a coalescing bucket as soon as it holds this many
        requests. ``1`` disables coalescing (the "naive per-request
        path" the service bench compares against).
    max_wait_ms:
        Deadline window: a bucket that has not reached ``max_batch``
        flushes this many milliseconds after its first request arrived.
        The knob trades p50 latency (smaller = flush sooner) against
        throughput (larger = bigger batches).

    Backpressure
    ------------
    max_queue:
        Bound on requests admitted but not yet completed (pending in a
        coalescing window *plus* in flight on the executor). Admission
        beyond it fails fast with a 429-style
        :class:`~repro.service.errors.ServiceOverloadedError` instead
        of queueing without bound.
    retry_after_ms:
        Backoff hint carried by overload rejections.
    request_timeout_ms:
        Per-request deadline measured from admission; ``0`` disables.
        Expired requests fail with
        :class:`~repro.service.errors.RequestTimeoutError` (their batch
        slot still computes — numpy kernels cannot be interrupted — but
        the result is discarded).

    Execution
    ---------
    workers:
        Executor thread count (``None``: the usable cores, which
        follow the process's CPU affinity, clamped to 2-8).
        Each worker owns a child :class:`~repro.engine.Workspace`
        arena, so scratch stays warm across requests without sharing
        mutable buffers between threads.
    engine / batch_max_workers:
        Forwarded to :func:`~repro.engine.multisplit_batch` /
        :func:`~repro.sort.fast_radix_sort` calls. ``engine`` must be a
        result-only engine (the emulator prices kernels; a serving path
        wants results).
    collect_engine_metrics:
        When True and no metrics registry is globally enabled, the
        service installs its own registry for its lifetime so
        ``engine.*`` / ``workspace.*`` series land in the same
        ``/metrics`` snapshot as the ``service.*`` series.

    Endpoint
    --------
    host / port:
        TCP bind address for the line-JSON endpoint (``port=0`` binds
        an ephemeral port, reported by the server once started).
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue: int = 1024
    retry_after_ms: float = 50.0
    request_timeout_ms: float = 30_000.0
    workers: int | None = None
    engine: str = "fast"
    batch_max_workers: int | None = None
    collect_engine_metrics: bool = True
    host: str = "127.0.0.1"
    port: int = 8373

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.retry_after_ms < 0:
            raise ValueError(
                f"retry_after_ms must be >= 0, got {self.retry_after_ms}")
        if self.request_timeout_ms < 0:
            raise ValueError(
                f"request_timeout_ms must be >= 0, got {self.request_timeout_ms}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.engine not in ("fast", "sharded", "auto"):
            raise ValueError(
                "service engine must be a result-only engine ('fast', "
                f"'sharded', or 'auto'), got {self.engine!r}")

    def replace(self, **changes) -> "ServiceConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)
