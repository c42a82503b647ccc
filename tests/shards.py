"""A fixed shard count for the sharded engine, for tests.

``sharded_multisplit`` sizes its shards from the bucket count (see
``DEFAULT_SHARD_KEYS``), so a small input is one shard. A test that
needs several shards at small ``n`` makes its calls inside
``fixed_shards(count)``: every sharded call in the block, whatever its
entry point, hands the core (``run_in_memory``'s shard-count argument)
``count`` shards, at most one per key; so does every ``fast_radix_sort``
pass that shards (the sort calls the core itself). ``count=None`` keeps
the default.
"""

from contextlib import contextmanager

import repro.engine.sharded as sharded_module
import repro.sort.fast_radix as fast_radix_module

_PATCHED = (sharded_module, fast_radix_module)


@contextmanager
def fixed_shards(count: int | None):
    defaults = [mod._cache_shards for mod in _PATCHED]
    if count is not None:
        for mod in _PATCHED:
            mod._cache_shards = lambda n, m: min(count, max(n, 1))
    try:
        yield
    finally:
        for mod, default in zip(_PATCHED, defaults):
            mod._cache_shards = default
