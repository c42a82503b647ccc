"""Engine parity: prove the result-only engines match the emulation bit
for bit.

The fast and sharded engines' whole contract is "same permutation, no
emulation". These helpers run an engine and the emulation on the same
input and compare keys/values/``bucket_starts`` exactly; they power the
parity fuzz tests and are public so downstream users can spot-check
their own workloads before switching a hot path to ``engine="fast"``
or ``engine="sharded"``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EngineParityError", "check_engine_parity", "parity_report"]


class EngineParityError(AssertionError):
    """The fast engine diverged from the emulated engine."""


def _compare(name: str, fast, emu) -> str | None:
    if fast is None and emu is None:
        return None
    if (fast is None) != (emu is None):
        return f"{name}: one engine returned None ({fast is None=} vs {emu is None=})"
    fast, emu = np.asarray(fast), np.asarray(emu)
    if fast.shape != emu.shape:
        return f"{name}: shape {fast.shape} != {emu.shape}"
    if not np.array_equal(fast, emu):
        bad = int(np.argmax(fast != emu))
        return (f"{name}: first mismatch at index {bad} "
                f"(fast={fast[bad]!r}, emulate={emu[bad]!r})")
    return None


def parity_report(keys, spec_or_fn, num_buckets: int | None = None, *,
                  values=None, method="auto", engine: str = "fast",
                  **kwargs) -> dict:
    """Run ``engine`` (fast or sharded) against the emulation; returns
    ``{"match": bool, "mismatches": [...], ...}``.
    """
    from repro.multisplit.api import multisplit
    # the result-only engines' decomposition/backend knobs do not exist
    # on the emulated side and never affect results; keep them out of
    # its call
    emu_kwargs = {k: v for k, v in kwargs.items()
                  if k not in ("max_workers", "backend", "chunk_bytes",
                               "out", "out_values")}
    fast = multisplit(keys, spec_or_fn, num_buckets, values=values,
                      method=method, engine=engine, **kwargs)
    emu = multisplit(keys, spec_or_fn, num_buckets, values=values,
                     method=method, engine="emulate", **emu_kwargs)
    mismatches = [msg for msg in (
        _compare("keys", fast.keys, emu.keys),
        _compare("values", fast.values, emu.values),
        _compare("bucket_starts", fast.bucket_starts, emu.bucket_starts),
    ) if msg is not None]
    if fast.method != emu.method:
        mismatches.append(f"method: {fast.method!r} != {emu.method!r}")
    if fast.stable != emu.stable:
        mismatches.append(f"stable: {fast.stable} != {emu.stable}")
    return {
        "match": not mismatches,
        "mismatches": mismatches,
        "fast": fast,
        "emulate": emu,
    }


def check_engine_parity(keys, spec_or_fn, num_buckets: int | None = None, *,
                        values=None, method="auto", engine: str = "fast",
                        **kwargs):
    """Raise :class:`EngineParityError` unless both engines agree exactly.

    ``engine`` selects the result-only engine under test (``"fast"`` or
    ``"sharded"``). Returns ``(engine_result, emulated_result)`` on
    success.
    """
    report = parity_report(keys, spec_or_fn, num_buckets, values=values,
                           method=method, engine=engine, **kwargs)
    if not report["match"]:
        n = np.asarray(keys).size
        raise EngineParityError(
            f"{engine}/emulate divergence for method={method!r}, n={n}: "
            + "; ".join(report["mismatches"]))
    return report["fast"], report["emulate"]
