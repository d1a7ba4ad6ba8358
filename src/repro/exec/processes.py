"""Process-pool backend.

Each spec runs in a child process, sidestepping the GIL for CPU-bound
shard work on multi-core hosts.  The contract is the same as every other
backend — results in spec order.  Specs are plain frozen dataclasses, so
they pickle; the per-spec overhead is that pickling plus, for a city the
child has not seen, rebuilding its ground truth (memoized per process,
so shards of the same city amortize it).

On Linux the pool forks by default, so children inherit already-imported
modules and already-built cities and start in milliseconds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from ..errors import ConfigurationError
from .base import Executor, default_max_workers
from .spec import run_shard_spec

__all__ = ["ProcessPoolBackend"]


class ProcessPoolBackend(Executor):
    """Order-preserving spec runner over a :class:`ProcessPoolExecutor`."""

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.max_workers = max_workers or default_max_workers()

    def map_specs(self, specs):
        if not specs:
            return []
        # A pool wider than the spec list would only spawn idle children.
        width = min(self.max_workers, len(specs))
        with ProcessPoolExecutor(max_workers=width) as pool:
            return list(pool.map(run_shard_spec, specs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessPoolBackend(max_workers={self.max_workers})"
