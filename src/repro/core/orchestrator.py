"""Container-fleet orchestration for scaled data collection.

The paper parallelizes BQT across 50-100 Docker containers (bounded by an
ethics experiment showing ISP response times are unaffected up to 200
instances; Section 4.1), each egressing through a residential proxy IP.

Our fleet reproduces the same structure on virtual time: every worker is
an independent BQT client with its own clock, browser session and leased
exit IP.  Tasks are distributed round-robin; the fleet's simulated
wall-clock time is the slowest worker's clock, giving a faithful model of
parallel speed-up and of per-IP rate-limit exposure.

Two execution modes exist:

* **interleaved** (default, ``executor=None``) — queries run in global
  task order on the calling thread, workers advancing their virtual
  clocks in lockstep.  This is the reference mode for simulation studies.
* **batched** (``executor=`` a :mod:`repro.exec` backend) — each worker's
  round-robin slice runs as one unit through the executor.  On the
  real-TCP transport, where servers honor render delays with real sleeps,
  the thread and process backends overlap that blocking time and deliver
  genuine wall-clock speedup; results always come back in task order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..exec.base import Executor, resolve_executor
from ..net.proxy import ResidentialProxyPool
from ..net.transport import InProcessTransport, Transport
from ..seeding import derive_seed
from .bqt import BroadbandQueryTool
from .workflow import QueryResult

__all__ = ["FleetReport", "ContainerFleet"]

# Distinguishes successive default proxy-pool leases within one process.
_POOL_EPOCH = itertools.count()


@dataclass(frozen=True)
class FleetReport:
    """Outcome of one fleet run."""

    results: tuple[QueryResult, ...]
    n_workers: int
    wall_clock_seconds: float
    worker_seconds: tuple[float, ...]

    @property
    def total_queries(self) -> int:
        return len(self.results)

    @property
    def mean_query_seconds(self) -> float:
        hits = [r.elapsed_seconds for r in self.results if r.is_hit]
        if not hits:
            return float("nan")
        return float(np.mean(hits))

    @property
    def speedup(self) -> float:
        """Serial work divided by simulated wall time."""
        serial = float(sum(self.worker_seconds))
        if self.wall_clock_seconds == 0:
            return 1.0
        return serial / self.wall_clock_seconds


@dataclass(frozen=True)
class _WorkerBatch:
    """One worker's round-robin slice, self-contained and picklable
    (provided the transport itself pickles, e.g. the TCP transport)."""

    transport: Transport
    client_ip: str
    seed: int
    politeness_seconds: float
    tasks: tuple[tuple[str, str, str], ...]


def _run_worker_batch(
    batch: _WorkerBatch,
) -> tuple[tuple[QueryResult, ...], float]:
    """Run one worker's queries sequentially; top-level for picklability."""
    worker = BroadbandQueryTool(
        batch.transport,
        client_ip=batch.client_ip,
        seed=batch.seed,
        politeness_seconds=batch.politeness_seconds,
    )
    results = tuple(
        worker.query(isp, line, zip_code)
        for isp, line, zip_code in batch.tasks
    )
    return results, worker.clock.now()


class ContainerFleet:
    """A fleet of parallel BQT workers behind a residential proxy pool.

    Args:
        transport: Shared transport (typically in-process).
        n_workers: Number of parallel BQT containers.
        seed: Master seed (worker seeds derive from it).
        proxy_pool: Pool of residential exit IPs; defaults to a pool sized
            to the fleet so every worker gets a distinct IP.
        politeness_seconds: Per-worker pause between queries.
        executor: Optional :mod:`repro.exec` backend.  When given, each
            worker's task slice is dispatched as one batch through it (see
            the module docstring); when None, queries run interleaved in
            global task order on the calling thread.
    """

    def __init__(
        self,
        transport: Transport,
        n_workers: int,
        seed: int = 0,
        proxy_pool: ResidentialProxyPool | None = None,
        politeness_seconds: float = 5.0,
        executor: Executor | str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError("fleet needs at least one worker")
        self._transport = transport
        self.n_workers = n_workers
        self._seed = seed
        if proxy_pool is None:
            # Each campaign leases a fresh set of residential exit IPs (as
            # the Bright Data pool rotates leases between sessions).  This
            # also keeps independent fleet runs from aliasing each other's
            # per-IP rate-limit windows, whose clocks restart per worker.
            proxy_pool = ResidentialProxyPool(
                n_workers,
                seed=derive_seed(seed, "proxy-pool", next(_POOL_EPOCH)),
            )
        self._pool = proxy_pool
        self.politeness_seconds = politeness_seconds
        # None means the legacy interleaved mode, so only resolve backend
        # names / validate instances when an executor was actually given.
        self.executor = (
            resolve_executor(executor) if executor is not None else None
        )

    def run(self, tasks: list[tuple[str, str, str]]) -> FleetReport:
        """Run (isp, street_line, zip) tasks across the fleet.

        Tasks are assigned round-robin.  Each worker advances its own
        virtual clock; the report's wall-clock time is the max across
        workers, i.e. the time at which the last container would finish.
        Results are always returned in task order, whichever execution
        mode runs them.
        """
        if (
            self.executor is not None
            and self.executor.name == "process"
            and isinstance(self._transport, InProcessTransport)
        ):
            raise ConfigurationError(
                "the in-process transport cannot cross process "
                "boundaries; use the thread backend here, or "
                "parallelize at the curation layer (city/ISP shards) "
                "where the process backend rebuilds world state per "
                "worker"
            )
        if isinstance(self._transport, InProcessTransport):
            self._transport.concurrency = self.n_workers

        leased = [self._pool.acquire() for _ in range(self.n_workers)]
        try:
            if self.executor is None:
                report = self._run_interleaved(tasks, leased)
            else:
                report = self._run_batched(tasks, leased)
        finally:
            for ip in leased:
                self._pool.release(ip)
            if isinstance(self._transport, InProcessTransport):
                self._transport.concurrency = 1
        return report

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------
    def _worker_seed(self, worker_index: int) -> int:
        return derive_seed(self._seed, "worker", worker_index)

    def _run_interleaved(
        self, tasks: list[tuple[str, str, str]], leased: list[str]
    ) -> FleetReport:
        workers = [
            BroadbandQueryTool(
                self._transport,
                client_ip=ip,
                seed=self._worker_seed(worker_index),
                politeness_seconds=self.politeness_seconds,
            )
            for worker_index, ip in enumerate(leased)
        ]
        results: list[QueryResult] = []
        for task_index, (isp, line, zip_code) in enumerate(tasks):
            worker = workers[task_index % self.n_workers]
            results.append(worker.query(isp, line, zip_code))
        worker_seconds = tuple(w.clock.now() for w in workers)
        return FleetReport(
            results=tuple(results),
            n_workers=self.n_workers,
            wall_clock_seconds=max(worker_seconds) if worker_seconds else 0.0,
            worker_seconds=worker_seconds,
        )

    def _run_batched(
        self, tasks: list[tuple[str, str, str]], leased: list[str]
    ) -> FleetReport:
        batches = [
            _WorkerBatch(
                transport=self._transport,
                client_ip=ip,
                seed=self._worker_seed(worker_index),
                politeness_seconds=self.politeness_seconds,
                tasks=tuple(tasks[worker_index :: self.n_workers]),
            )
            for worker_index, ip in enumerate(leased)
        ]
        outcomes = self.executor.map(_run_worker_batch, batches)

        # Interleave the per-worker result streams back into task order.
        results: list[QueryResult | None] = [None] * len(tasks)
        for worker_index, (worker_results, _) in enumerate(outcomes):
            for offset, result in enumerate(worker_results):
                results[worker_index + offset * self.n_workers] = result
        worker_seconds = tuple(elapsed for _, elapsed in outcomes)
        return FleetReport(
            results=tuple(results),  # type: ignore[arg-type]
            n_workers=self.n_workers,
            wall_clock_seconds=max(worker_seconds) if worker_seconds else 0.0,
            worker_seconds=worker_seconds,
        )
