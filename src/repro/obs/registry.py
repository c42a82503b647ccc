"""Metrics registry: named counters, gauges, and stage timers.

One schema for every performance observation the repo makes. The SIMT
emulator's :class:`~repro.simt.counters.KernelCounters`, the fast
engine's workspace hit/miss accounting, the batch dispatcher's fan-out,
and the service's latencies all land in a
:class:`MetricsRegistry` as labeled series, so a single snapshot can be
compared across engines, methods, and problem sizes.

Design constraints, in order:

1. **Zero overhead when disabled.** Collection is off by default; the
   module-level registry is then a :class:`NullRegistry` whose methods
   are empty and whose metric handles are shared do-nothing singletons.
   Hot paths call ``get_registry().inc(...)`` unconditionally and pay
   only a global load and a no-op call (asserted to be <= 2% of the
   warm fast path by ``tests/obs/test_overhead.py``).
2. **Labeled dimensions.** Every series is identified by a metric name
   plus a frozen label set (``method``, ``engine``, ``n``, ``m``,
   ``dtype``, ...). The same name with different labels is a different
   series.
3. **Thread safety.** The batch dispatcher increments from pool
   threads; enabled-mode mutation takes a per-registry lock.

Usage::

    from repro.obs import collecting

    with collecting() as reg:
        multisplit(keys, spec, engine="fast")
    reg.as_flat()   # {"engine.fast.calls{method=block}": 1, ...}
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from .histogram import LatencyHistogram

__all__ = [
    "Counter",
    "Gauge",
    "StageTimer",
    "LatencyHistogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "collecting",
]


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(label_key: tuple) -> str:
    if not label_key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in label_key) + "}"


class Counter:
    """A monotonically increasing count (calls, keys, bytes, hits)."""

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self, lock: threading.Lock):
        self.value = 0
        self._lock = lock

    def inc(self, amount=1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time level (arena bytes, fan-out, queue depth)."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self, lock: threading.Lock):
        self.value = 0
        self._lock = lock

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def record_max(self, value) -> None:
        """Keep the high-water mark (used for queue depth)."""
        with self._lock:
            if value > self.value:
                self.value = value


class StageTimer:
    """Accumulated wall-clock observations for one stage."""

    __slots__ = ("count", "total_ms", "min_ms", "max_ms", "_lock")
    kind = "timer"

    def __init__(self, lock: threading.Lock):
        self.count = 0
        self.total_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0
        self._lock = lock

    def observe_ms(self, ms: float) -> None:
        with self._lock:
            self.count += 1
            self.total_ms += ms
            if ms < self.min_ms:
                self.min_ms = ms
            if ms > self.max_ms:
                self.max_ms = ms

    @contextmanager
    def time(self):
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.observe_ms((time.perf_counter() - t0) * 1e3)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


class MetricsRegistry:
    """A collection of labeled metric series.

    Metric handles are created on first use and cached; repeated
    ``counter("x", method="warp")`` calls return the same
    :class:`Counter`.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = cls(self._lock)
                    self._series[key] = series
        elif not isinstance(series, cls):
            raise TypeError(f"metric {name!r} already registered as {series.kind}")
        return series

    # -- handle accessors ------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def timer(self, name: str, **labels) -> StageTimer:
        return self._get(StageTimer, name, labels)

    def histogram(self, name: str, **labels) -> LatencyHistogram:
        return self._get(LatencyHistogram, name, labels)

    # -- one-shot conveniences (what the hot paths call) -----------------
    def inc(self, name: str, amount=1, **labels) -> None:
        self._get(Counter, name, labels).inc(amount)

    def set_gauge(self, name: str, value, **labels) -> None:
        self._get(Gauge, name, labels).set(value)

    def observe_ms(self, name: str, ms: float, **labels) -> None:
        self._get(StageTimer, name, labels).observe_ms(ms)

    def observe_hist(self, name: str, ms: float, **labels) -> None:
        self._get(LatencyHistogram, name, labels).observe_ms(ms)

    # -- export ----------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """One record per series: name, kind, labels, and value(s)."""
        out = []
        with self._lock:
            items = sorted(self._series.items())
        for (name, label_key), series in items:
            rec = {"name": name, "kind": series.kind, "labels": dict(label_key)}
            if series.kind == "timer":
                rec.update(
                    count=series.count,
                    total_ms=series.total_ms,
                    mean_ms=series.mean_ms,
                    min_ms=series.min_ms if series.count else 0.0,
                    max_ms=series.max_ms,
                )
            elif series.kind == "histogram":
                rec.update(
                    count=series.count,
                    total_ms=series.total_ms,
                    mean_ms=series.mean_ms,
                    min_ms=series.min_ms if series.count else 0.0,
                    max_ms=series.max_ms,
                    **series.quantiles(),
                )
            else:
                rec["value"] = series.value
            out.append(rec)
        return out

    def as_flat(self) -> dict:
        """``{"name{k=v}": value}`` — the form bench records embed.

        Timers flatten to ``<name>.total_ms`` and ``<name>.count``.
        """
        flat = {}
        with self._lock:
            items = sorted(self._series.items())
        for (name, label_key), series in items:
            suffix = _render_labels(label_key)
            if series.kind == "timer":
                flat[f"{name}.total_ms{suffix}"] = series.total_ms
                flat[f"{name}.count{suffix}"] = series.count
            elif series.kind == "histogram":
                flat[f"{name}.count{suffix}"] = series.count
                flat[f"{name}.total_ms{suffix}"] = series.total_ms
                for pname, value in series.quantiles().items():
                    flat[f"{name}.{pname}{suffix}"] = value
            else:
                flat[f"{name}{suffix}"] = series.value
        return flat

    def value(self, name: str, default=None, **labels):
        """Current value of one series, or ``default``.

        Timers report ``total_ms``; histograms report their observation
        ``count`` (percentiles come from the handle or the snapshot).
        """
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            return default
        if series.kind == "timer":
            return series.total_ms
        if series.kind == "histogram":
            return series.count
        return series.value

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:
        return f"MetricsRegistry(series={len(self._series)}, enabled={self.enabled})"


class _NullLock:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTimerContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullRegistry(MetricsRegistry):
    """Disabled-mode registry: every operation is a no-op.

    Handle accessors return shared do-nothing singletons so
    instrumented code never branches on the mode.
    """

    enabled = False

    def __init__(self):
        super().__init__()
        null_lock = _NullLock()
        self._null_counter = Counter.__new__(Counter)
        self._null_counter.value = 0
        self._null_counter._lock = null_lock
        self._null_gauge = Gauge.__new__(Gauge)
        self._null_gauge.value = 0
        self._null_gauge._lock = null_lock
        self._null_timer = _NullTimer(null_lock)
        self._null_histogram = _NullHistogram(null_lock)

    def counter(self, name: str, **labels) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels) -> Gauge:
        return self._null_gauge

    def timer(self, name: str, **labels) -> "StageTimer":
        return self._null_timer

    def histogram(self, name: str, **labels) -> LatencyHistogram:
        return self._null_histogram

    def inc(self, name: str, amount=1, **labels) -> None:
        pass

    def set_gauge(self, name: str, value, **labels) -> None:
        pass

    def observe_ms(self, name: str, ms: float, **labels) -> None:
        pass

    def observe_hist(self, name: str, ms: float, **labels) -> None:
        pass


class _NullTimer(StageTimer):
    __slots__ = ()
    _context = _NullTimerContext()

    def __init__(self, lock):
        super().__init__(lock)

    def observe_ms(self, ms: float) -> None:
        pass

    def time(self):
        return self._context


class _NullHistogram(LatencyHistogram):
    __slots__ = ()
    _context = _NullTimerContext()

    def observe_ms(self, ms: float) -> None:
        pass

    def time(self):
        return self._context


_NULL = NullRegistry()
_current: MetricsRegistry = _NULL


def get_registry() -> MetricsRegistry:
    """The active registry — a :class:`NullRegistry` unless enabled."""
    return _current


def metrics_enabled() -> bool:
    return _current.enabled


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global _current
    _current = registry if registry is not None else MetricsRegistry()
    return _current


def disable_metrics() -> None:
    """Restore the zero-overhead null registry."""
    global _current
    _current = _NULL


@contextmanager
def collecting(registry: MetricsRegistry | None = None):
    """Enable metrics for a block, restoring the previous mode after::

        with collecting() as reg:
            run_workload()
        print(reg.as_flat())
    """
    global _current
    previous = _current
    reg = enable_metrics(registry)
    try:
        yield reg
    finally:
        _current = previous
