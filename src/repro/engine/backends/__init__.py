"""Pluggable kernel backends for the result-only engines.

``multisplit(..., backend=...)`` selects how the hot per-shard kernels
execute; see :mod:`repro.engine.backends.base` for the protocol and
``docs/BACKENDS.md`` for the guide. Resolution rules:

* ``None`` / ``"numpy"`` — the default pure-numpy kernels (always
  available, bit-identical to the pre-backend engines by construction).
* ``"numba"`` — compiled kernels when numba is importable; otherwise a
  **single** :class:`BackendFallbackWarning` and the numpy backend.
  Numba is never a hard dependency: nothing in this package fails to
  import without it.
* ``"auto"`` — ``"numba"`` if available, else ``"numpy"``.
* a :class:`KernelBackend` instance — used as-is (bring your own).

Backends are process-wide singletons so JIT caches and warmed dtype
signatures are shared across calls.
"""

from __future__ import annotations

import warnings

from .base import KernelBackend, narrow_ids_dtype
from .numpy_backend import NumpyBackend
from .numba_backend import NumbaBackend, numba_available

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "BackendFallbackWarning",
    "BACKEND_NAMES",
    "narrow_ids_dtype",
    "numba_available",
    "available_backends",
    "get_backend",
    "resolve_backend",
]

#: Every selectable name, in resolution order ("auto" resolves to one
#: of the others and is accepted everywhere a name is).
BACKEND_NAMES = ("numpy", "numba")


class BackendFallbackWarning(RuntimeWarning):
    """An unavailable backend was requested and a fallback substituted."""


_instances: dict[str, KernelBackend] = {}
_warned_numba_missing = False


def available_backends() -> dict[str, bool]:
    """Name -> availability for every registered backend."""
    return {
        "numpy": True,
        "numba": numba_available(),
    }


def get_backend(name: str) -> KernelBackend:
    """The singleton backend for ``name`` (must be available)."""
    inst = _instances.get(name)
    if inst is None:
        if name == "numpy":
            inst = NumpyBackend()
        elif name == "numba":
            inst = NumbaBackend()  # raises ImportError when unavailable
        else:
            raise ValueError(
                f"unknown backend {name!r} "
                f"(have: {', '.join(BACKEND_NAMES)}, or 'auto')")
        _instances[name] = inst
    return inst


def resolve_backend(backend=None) -> KernelBackend:
    """Resolve a ``backend=`` argument to a :class:`KernelBackend`.

    Accepts ``None``, a name, ``"auto"``, or an instance. Graceful
    degradation is resolved *here*, once per process: requesting
    ``"numba"`` without numba warns (:class:`BackendFallbackWarning`,
    first time only) and returns the numpy backend, so code written
    against the compiled backend runs everywhere.
    """
    global _warned_numba_missing
    if backend is None:
        return get_backend("numpy")
    if isinstance(backend, KernelBackend):
        return backend
    name = str(backend)
    if name == "auto":
        name = "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        if not _warned_numba_missing:
            warnings.warn(
                "backend='numba' requested but numba is not importable; "
                "falling back to the numpy backend (results are identical; "
                "install numba for the compiled kernels)",
                BackendFallbackWarning, stacklevel=3)
            _warned_numba_missing = True
        name = "numpy"
    return get_backend(name)
