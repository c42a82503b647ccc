"""repro.service — multisplit-as-a-service.

The long-lived front end over the result-only engines: an in-process
async API plus a line-JSON TCP endpoint, with

* **coalescing** — concurrent small requests batched into single
  :func:`~repro.engine.multisplit_batch` dispatches per
  (route, method, spec) bucket, flushed when full or on the loop's
  next turn (:mod:`repro.service.coalescer`);
* **backpressure** — a bounded admission queue with fast 429-style
  rejection, per-request deadlines, and graceful shutdown drain
  (:mod:`repro.service.service`);
* **pooled scratch** — one child :class:`~repro.engine.Workspace`
  arena per executor worker, warm across requests;
* **operability** — ``service.*`` counters and p50/p90/p99 latency
  histograms per route, exported with the full
  :class:`~repro.obs.MetricsRegistry` by the ``metrics`` op
  (:meth:`ReproService.metrics_snapshot`).

Start in-process::

    async with ReproService() as svc:
        res = await svc.multisplit(keys, RangeBuckets(16))

or serve over TCP: ``python -m repro serve`` (see ``docs/SERVICE.md``).
"""

from .config import ServiceConfig
from .coalescer import Coalescer, PendingRequest, spec_batch_key
from .errors import (
    ServiceError,
    BadRequestError,
    ServiceOverloadedError,
    ServiceClosedError,
    RequestTimeoutError,
)
from .service import ReproService
from .server import ServiceServer, serve
from .client import ServiceClient, connect

__all__ = [
    "ServiceConfig",
    "Coalescer",
    "PendingRequest",
    "spec_batch_key",
    "ServiceError",
    "BadRequestError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "RequestTimeoutError",
    "ReproService",
    "ServiceServer",
    "serve",
    "ServiceClient",
    "connect",
]
