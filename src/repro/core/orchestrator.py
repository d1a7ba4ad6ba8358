"""Container-fleet orchestration for scaled data collection.

The paper parallelizes BQT across 50-100 Docker containers (bounded by an
ethics experiment showing ISP response times are unaffected up to 200
instances; Section 4.1), each egressing through a residential proxy IP.

Our fleet reproduces the same structure on virtual time: every worker is
an independent BQT client with its own clock, browser session and leased
exit IP.  Tasks are distributed round-robin; the fleet's simulated
wall-clock time is the slowest worker's clock, giving a faithful model of
parallel speed-up and of per-IP rate-limit exposure.

Queries run in global task order on the calling thread, the workers
advancing their virtual clocks in lockstep.  Real parallelism lives one
level up: curation runs (city, ISP) shards side by side on a
:mod:`repro.exec` backend, each shard with its own fleet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
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


class ContainerFleet:
    """A fleet of parallel BQT workers behind a residential proxy pool.

    Args:
        transport: Shared transport (typically in-process).
        n_workers: Number of parallel BQT containers.
        seed: Master seed (worker seeds derive from it).
        proxy_pool: Pool of residential exit IPs; defaults to a pool sized
            to the fleet so every worker gets a distinct IP.
        politeness_seconds: Per-worker pause between queries.
    """

    def __init__(
        self,
        transport: Transport,
        n_workers: int,
        seed: int = 0,
        proxy_pool: ResidentialProxyPool | None = None,
        politeness_seconds: float = 5.0,
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

    def run(self, tasks: list[tuple[str, str, str]]) -> FleetReport:
        """Run (isp, street_line, zip) tasks across the fleet.

        Tasks are assigned round-robin.  Each worker advances its own
        virtual clock; the report's wall-clock time is the max across
        workers, i.e. the time at which the last container would finish.
        Results are returned in task order.
        """
        if isinstance(self._transport, InProcessTransport):
            self._transport.concurrency = self.n_workers

        leased = [self._pool.acquire() for _ in range(self.n_workers)]
        try:
            workers = [
                BroadbandQueryTool(
                    self._transport,
                    client_ip=ip,
                    seed=derive_seed(self._seed, "worker", worker_index),
                    politeness_seconds=self.politeness_seconds,
                )
                for worker_index, ip in enumerate(leased)
            ]
            results = tuple(
                workers[task_index % self.n_workers].query(isp, line, zip_code)
                for task_index, (isp, line, zip_code) in enumerate(tasks)
            )
        finally:
            for ip in leased:
                self._pool.release(ip)
            if isinstance(self._transport, InProcessTransport):
                self._transport.concurrency = 1
        worker_seconds = tuple(w.clock.now() for w in workers)
        return FleetReport(
            results=results,
            n_workers=self.n_workers,
            wall_clock_seconds=max(worker_seconds),
            worker_seconds=worker_seconds,
        )
