"""repro.obs — unified observability for both execution engines.

One metrics schema for everything the library measures at run time: the
emulator's audited kernel counters, the fast engine's workspace/batch
accounting, and the service's latency histograms.

* :mod:`repro.obs.registry` — labeled counters/gauges/stage-timers with
  a zero-overhead disabled mode (the default).
* :mod:`repro.obs.histogram` — the fixed-bucket latency histogram.
* :mod:`repro.obs.export` — bridges from ``KernelCounters`` and
  ``Workspace`` into the registry.

See ``docs/OBSERVABILITY.md`` for the full guide.
"""

from .histogram import PERCENTILES
from .registry import (
    Counter,
    Gauge,
    StageTimer,
    LatencyHistogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    metrics_enabled,
    enable_metrics,
    disable_metrics,
    collecting,
)
from .export import export_kernel_counters, export_workspace

__all__ = [
    "Counter",
    "Gauge",
    "StageTimer",
    "LatencyHistogram",
    "PERCENTILES",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "collecting",
    "export_kernel_counters",
    "export_workspace",
]
