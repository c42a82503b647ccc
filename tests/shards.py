"""A fixed shard count for the sharded engine, for tests.

``sharded_multisplit`` sizes its shards from the bucket count (see
``DEFAULT_SHARD_KEYS``), so a small input is one shard. A test that
needs several shards at small ``n`` makes its calls inside
``fixed_shards(count)``: every sharded call in the block, whatever its
entry point, hands the core (``run_in_memory``'s shard-count argument)
``count`` shards, at most one per key. ``count=None`` keeps the
default.
"""

from contextlib import contextmanager

import repro.engine.sharded as sharded_module


@contextmanager
def fixed_shards(count: int | None):
    default = sharded_module._cache_shards
    if count is not None:
        sharded_module._cache_shards = lambda n, m: min(count, max(n, 1))
    try:
        yield
    finally:
        sharded_module._cache_shards = default
