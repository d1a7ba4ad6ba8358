"""Thread-pool backend.

Threads share the interpreter, so this backend only pays off when specs
spend their time blocked — paced curation (``pacing_time_scale``), where
every request sleeps its scaled virtual latency, as the paper's fleet
waited on BAT renders.  Unpaced curation is pure CPU and the GIL
serializes it; use the process backend (multi-core hosts) or the serial
backend there.

Each spec builds its own per-shard state (fresh transport, fresh BAT
application, fresh proxy pool) over read-only ground-truth objects, so
no locking is needed.  Every :meth:`~ThreadPoolBackend.map_specs` call
builds its own pool of ``max_workers`` threads, so the width bounds one
call, not concurrent callers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..errors import ConfigurationError
from .base import Executor, default_max_workers
from .spec import run_shard_spec

__all__ = ["ThreadPoolBackend"]


class ThreadPoolBackend(Executor):
    """Order-preserving spec runner over a :class:`ThreadPoolExecutor`."""

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.max_workers = max_workers or default_max_workers()

    def map_specs(self, specs):
        if not specs:
            return []
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            # Materialize inside the context manager so spec exceptions
            # surface here (in spec order) rather than at shutdown.
            return list(pool.map(run_shard_spec, specs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadPoolBackend(max_workers={self.max_workers})"
