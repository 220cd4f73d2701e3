"""Import path of the one-shard store.

:class:`KeyValueStore` is :class:`repro.ps.sharding.ShardedKeyValueStore`
constructed over a single heap shard; both it and the dtype check live in
:mod:`repro.ps.sharding` with the rest of the store.
"""

from repro.ps.sharding import KeyValueStore, normalize_store_dtype

__all__ = ["KeyValueStore", "normalize_store_dtype"]
