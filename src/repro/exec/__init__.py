"""Pluggable parallel execution: backends, registry, and the result cache.

The curation pipeline and the serving tier dispatch (city, ISP) shards,
whole or in chunks, as :class:`~repro.exec.spec.ShardSpec` data through
an :class:`~repro.exec.base.Executor`'s ``map_specs``.  Four
interchangeable backends exist — serial, thread pool, process pool, and
remote workers over RPC — and because every spec is a pure function of
configuration and derived seeds, all four produce byte-identical
datasets; only wall-clock time differs.  The BQT container fleet inside
a shard (:class:`~repro.core.orchestrator.ContainerFleet`) runs on
virtual time and never touches an executor.

:class:`~repro.exec.cache.QueryResultCache` complements the executors: it
remembers finished shard results under content-addressed keys so repeated
curation runs over unchanged worlds skip the replay entirely.  With a
:class:`~repro.exec.store.DiskShardStore` attached it becomes two-tier —
shards persist across processes and CI runs, with atomic writes, versioned
serialization, and LRU eviction under a byte cap.

:mod:`~repro.exec.schedule` decides *in what order and what pieces* the
units reach an executor: shards are priced by politeness x tasks
(:func:`~repro.exec.schedule.shard_price`), dispatched longest-first, and
oversized shards split into byte-transparent sub-shard chunks so no
single straggler serializes the tail of a run.
"""

from .._lazy import lazy_exports

#: Each submodule and the names this package re-exports from it, imported
#: on first access: a serial curation never loads ``membership``,
#: ``processes`` or ``remote``.
_EXPORTS = {
    ".base": (
        "EXECUTOR_BACKENDS",
        "Executor",
        "build_executor",
        "default_max_workers",
        "resolve_executor",
    ),
    ".cache": (
        "CacheStats",
        "QueryResultCache",
        "address_cache_key",
        "shard_cache_keys",
    ),
    ".membership": (
        "CoordinatorLink",
        "FleetCoordinator",
        "FleetDirectory",
        "WorkerRecord",
        "ensure_coordinator",
        "parse_coordinator_address",
        "shutdown_coordinators",
        "worker_identity",
    ),
    ".processes": ("ProcessPoolBackend",),
    ".remote": (
        "DistributedExecutor",
        "local_worker_pool",
        "parse_worker_addresses",
        "start_local_worker",
        "stop_local_worker",
    ),
    ".schedule": (
        "SCHEDULE_MODES",
        "chunk_spans",
        "lpt_order",
        "resolve_chunk_tasks",
        "shard_price",
    ),
    ".serial": ("SerialExecutor",),
    ".spec": (
        "ShardSpec",
        "run_shard_spec",
        "spec_cache_keys",
        "spec_from_wire",
        "spec_to_wire",
    ),
    ".store": (
        "STORE_VERSION",
        "DiskShardStore",
        "ShardMeta",
        "StoreEntry",
        "build_result_cache",
        "observation_to_dict",
        "shard_digest",
    ),
    ".threads": ("ThreadPoolBackend",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "Executor",
    "EXECUTOR_BACKENDS",
    "build_executor",
    "default_max_workers",
    "resolve_executor",
    "SerialExecutor",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "DistributedExecutor",
    "local_worker_pool",
    "parse_worker_addresses",
    "start_local_worker",
    "stop_local_worker",
    "CoordinatorLink",
    "FleetCoordinator",
    "FleetDirectory",
    "WorkerRecord",
    "ensure_coordinator",
    "parse_coordinator_address",
    "shutdown_coordinators",
    "worker_identity",
    "ShardSpec",
    "run_shard_spec",
    "spec_cache_keys",
    "spec_from_wire",
    "spec_to_wire",
    "CacheStats",
    "QueryResultCache",
    "address_cache_key",
    "shard_cache_keys",
    "STORE_VERSION",
    "DiskShardStore",
    "ShardMeta",
    "StoreEntry",
    "build_result_cache",
    "observation_to_dict",
    "shard_digest",
    "SCHEDULE_MODES",
    "chunk_spans",
    "lpt_order",
    "resolve_chunk_tasks",
    "shard_price",
]
