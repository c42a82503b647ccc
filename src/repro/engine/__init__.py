"""The fast execution engines: result-only multisplit without emulation.

``repro.multisplit`` runs every call through the audited SIMT substrate
so the paper's figures and tables reproduce; this package is the other
half of the bargain — production callers that only need the permuted
output select it with ``multisplit(..., engine="fast")`` (monolithic
fused kernels), ``multisplit(..., engine="stream")`` (the paper's
{local, global, local} decomposition applied twice, streaming
chunked/memmap sources out-of-core with bounded peak memory), or
``multisplit(..., engine="sharded")`` (the stream engine's core over
one in-memory chunk, the whole array, run shard-parallel across
threads) and get the bit-identical result from fused numpy kernels,
pooled scratch (:class:`Workspace`), and batched dispatch
(:func:`multisplit_batch`), with no timeline attached. The
decomposition itself lives in one place,
:func:`repro.engine.stream.run_core`.
"""

from .fused import fast_multisplit, FAST_METHODS, STABLE_METHODS
from .workspace import Workspace
from .batch import multisplit_batch, coalesced_multisplit_batch
from .sharded import (sharded_multisplit, SHARDED_AUTO_MIN_N,
                      SHARDED_AUTO_MIN_N_SINGLE, DEFAULT_SHARD_KEYS)
from .stream import (stream_multisplit, stream_buffer, DEFAULT_CHUNK_BYTES,
                     STREAM_AUTO_MIN_BYTES, MEMMAP_OUT_THRESHOLD)
from .parity import EngineParityError, check_engine_parity, parity_report
from .backends import (KernelBackend, BackendFallbackWarning, BACKEND_NAMES,
                       available_backends, get_backend, resolve_backend)

__all__ = [
    "fast_multisplit", "FAST_METHODS", "STABLE_METHODS",
    "sharded_multisplit", "SHARDED_AUTO_MIN_N", "SHARDED_AUTO_MIN_N_SINGLE",
    "DEFAULT_SHARD_KEYS",
    "stream_multisplit", "stream_buffer", "DEFAULT_CHUNK_BYTES",
    "STREAM_AUTO_MIN_BYTES", "MEMMAP_OUT_THRESHOLD",
    "Workspace", "multisplit_batch", "coalesced_multisplit_batch",
    "EngineParityError", "check_engine_parity", "parity_report",
    "KernelBackend", "BackendFallbackWarning", "BACKEND_NAMES",
    "available_backends", "get_backend", "resolve_backend",
]
