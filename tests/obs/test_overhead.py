"""Acceptance gate: disabled-mode instrumentation is effectively free.

The hot paths call ``get_registry().inc(...)`` unconditionally; when
metrics are off the active registry is a :class:`NullRegistry` whose
methods are no-ops. This test times the *complete* per-call hook
sequence (every registry touch one fast-engine multisplit performs,
with a generous margin on the workspace-slot count) against the warm
fast path at the bench_engine configuration and asserts the hooks cost
at most 2% of it. A second test holds the sequence to that claim: every
series a warm fast call touches must appear in it.
"""

import time

import numpy as np
import pytest

from repro.engine import Workspace
from repro.multisplit import RangeBuckets, multisplit
from repro.obs import MetricsRegistry, collecting, get_registry, metrics_enabled

N, M = 1 << 16, 32
HOOK_REPS = 2000
BUDGET = 0.02  # hooks may cost at most 2% of the warm fast path


def hook_sequence():
    """Every registry touch one fast-engine call makes, plus margin."""
    reg = get_registry()
    # api.multisplit + engine.fast entry counters
    reg.inc("api.multisplit.calls", 1, engine="fast", method="block")
    if reg.enabled:
        reg.inc("api.multisplit.keys", N, engine="fast", method="block")
    # record_call: the call counter and run timer, then the enabled-mode
    # keys/buckets counters and workers gauge
    engine = "fast"
    reg.inc(f"engine.{engine}.calls", 1, method="block")
    with reg.timer(f"engine.{engine}.run_ms", method="block", kv=False).time():
        pass
    if reg.enabled:
        reg.inc(f"engine.{engine}.keys", N, method="block")
        reg.inc(f"engine.{engine}.buckets", M, method="block")
        reg.set_gauge(f"engine.{engine}.workers", 1, method="block")
    # run_core's phase clock: four reads, observed as the three phase
    # timers when metrics are on
    clock = [time.perf_counter() for _ in range(4)]
    if reg.enabled:
        for phase, t0, t1 in zip(("prescan", "scan", "scatter"), clock, clock[1:]):
            reg.observe_ms(f"engine.fast.{phase}_ms", (t1 - t0) * 1e3, method="block")
    # workspace take() hook per slot — 12 is above any real slot count
    for slot in range(12):
        reg.inc("workspace.hits", 1, slot=slot)


def best_of(fn, repeats, inner=1):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def series_names(fn) -> set:
    """The name of every series ``fn()`` touches, with metrics on."""
    with collecting(MetricsRegistry()) as reg:
        fn()
    return {rec["name"] for rec in reg.snapshot()}


def test_hook_sequence_covers_a_warm_fast_call():
    keys = np.random.default_rng(42).integers(0, 2**32, N, dtype=np.uint32)
    ws = Workspace()

    def warm_call():
        multisplit(keys, RangeBuckets(M), engine="fast", method="block", workspace=ws)

    warm_call()
    touched = series_names(warm_call)
    assert touched, "a collecting fast call touched no series"
    missing = touched - series_names(hook_sequence)
    assert not missing, f"hook_sequence leaves out {sorted(missing)}"


@pytest.mark.timing
def test_disabled_hooks_within_two_percent_of_warm_path():
    assert not metrics_enabled()

    rng = np.random.default_rng(42)
    keys = rng.integers(0, 2**32, N, dtype=np.uint32)
    ws = Workspace()

    def warm_call():
        multisplit(keys, RangeBuckets(M), engine="fast", method="block", workspace=ws)

    warm_call()  # populate the arena so we time the warm path
    warm_s = best_of(warm_call, repeats=5)
    hook_s = best_of(hook_sequence, repeats=5, inner=HOOK_REPS)

    ratio = hook_s / warm_s
    msg = (
        f"disabled-mode hooks cost {hook_s * 1e6:.2f} us/call = "
        f"{ratio:.2%} of the {warm_s * 1e3:.3f} ms warm fast path "
        f"(budget {BUDGET:.0%})"
    )
    assert ratio <= BUDGET, msg
