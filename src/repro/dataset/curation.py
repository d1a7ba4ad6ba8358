"""The curation pipeline: world + BQT fleet -> broadband dataset.

This is the paper's Section 4 methodology end to end: stratified sampling
from the residential feed, fleet-scale BQT querying against the BAT
servers, and assembly into the curated dataset.  The pipeline consumes
**only** the address feed and the HTTP transport — ground-truth deployment
objects are never touched, so every analysis result downstream is a genuine
measurement of the simulated ISPs.

Execution is sharded by (city, ISP) pair, mirroring how the paper split
collection across its container fleet.  Every shard is a *pure function*
of the world configuration and seeds derived from ``(city, ISP)``: it gets
its own fleet, its own residential proxy pool, and its own transport + BAT
server instance (fresh RTT sampler, render-delay stream, session table and
rate-limit windows).  Shards therefore run in any order — or in parallel
on any :mod:`repro.exec` backend — and the merged dataset is byte-identical
to a serial run.  A :class:`~repro.exec.cache.QueryResultCache` can be
attached to skip replaying shards whose content-addressed keys are already
known.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field, replace

from ..addresses.database import AddressIndex
from ..addresses.noise import NoisyAddress
from ..bat.app import BatApplication
from ..bat.profiles import profile_for
from ..core.orchestrator import ContainerFleet
from ..core.workflow import QueryResult
from ..errors import DatasetError
from ..exec.base import Executor, resolve_executor
from ..exec.cache import QueryResultCache, shard_cache_keys
from ..exec.schedule import (
    SCHEDULE_MODES,
    chunk_spans,
    lpt_order,
    resolve_chunk_tasks,
    shard_price,
)
from ..exec.spec import ShardSpec, release_city_worlds, seed_city_worlds
from ..exec.store import ShardMeta
from ..memo import Memo
from ..net.proxy import ResidentialProxyPool
from ..net.transport import InProcessTransport
from ..seeding import derive_seed
from ..settings import ambient_columnar
from ..world import (
    CityWorld,
    World,
    WorldConfig,
    offer_resolver,
)
from .container import BroadbandDataset
from .records import AddressObservation, PlanObservation
from .sampling import SamplingConfig, sample_city

__all__ = [
    "CurationConfig",
    "CurationPipeline",
    "CurationRunReport",
    "IspOverride",
    "ShardTiming",
    "curation_base_digest",
    "hash_address_id",
    "shard_config_digest",
]


def hash_address_id(street_line: str, zip_code: str, salt: str) -> str:
    """Privacy-preserving address identifier (salted SHA-256, 16 hex chars)."""
    digest = hashlib.sha256(f"{salt}|{street_line}|{zip_code}".encode()).hexdigest()
    return digest[:16]


def curation_base_digest(world_config: WorldConfig, config: "CurationConfig") -> str:
    """Digest of the world-wide curation inputs every shard shares.

    Per-ISP knobs are deliberately excluded — they enter each shard's
    digest individually via :func:`shard_config_digest`, so a change
    scoped to one ISP invalidates only that ISP's shards.  Seed and scale
    are excluded too: they are part of every address-level cache key
    already.  A module-level function (not a pipeline method) because
    remote workers must derive the identical digest from a rehydrated
    :class:`~repro.exec.spec.ShardSpec` with no pipeline in sight.
    """
    parts = (
        repr(config.sampling),
        config.salt,
        repr(world_config.latency),
        repr(world_config.addresses),
        repr(world_config.deployment),
        repr(world_config.offers),
    )
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def shard_config_digest(
    world_config: WorldConfig,
    config: "CurationConfig",
    city: str,
    isp: str,
    base: str | None = None,
) -> str:
    """Config digest of one (city, ISP) shard.

    Combines the world-wide base digest with the shard coordinates and
    the *effective* per-ISP knobs (fleet size, politeness).  This is the
    unit of incremental re-curation: a shard whose digest is unchanged is
    loaded from cache; a changed digest means stale and the shard — only
    that shard — is re-dispatched.  ``base`` can be passed to amortize
    the base-digest hash over a run's shards.
    """
    if base is None:
        base = curation_base_digest(world_config, config)
    parts = (
        base,
        city,
        isp,
        str(config.effective_n_workers(isp)),
        repr(config.effective_politeness(isp)),
    )
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


@dataclass(frozen=True)
class IspOverride:
    """Per-ISP deviations from the global curation knobs.

    Fields left None inherit the global :class:`CurationConfig` value.
    Overrides are part of that ISP's shard digest — and *only* that
    ISP's — so tweaking one ISP's fleet size or politeness re-curates
    exactly the shards it affects (incremental re-curation).
    """

    n_workers: int | None = None
    politeness_seconds: float | None = None


@dataclass(frozen=True)
class CurationConfig:
    """Pipeline knobs.

    Attributes:
        sampling: Stratified-sampling parameters (10% / min 30 by default).
        n_workers: BQT fleet size per (city, ISP) shard.  The paper uses
            50-100 containers and verified up to 200 leave ISP response
            times unaffected.
        politeness_seconds: Per-worker pause between queries.
        salt: Salt for the privacy-preserving address hash.
        per_isp: ``(isp, IspOverride)`` pairs overriding fleet size or
            politeness for individual ISPs.  Stored as a tuple so the
            config stays hashable/picklable; use :meth:`with_isp_override`
            to derive one.
        pacing_time_scale: Real seconds slept per simulated second of
            request latency (see :class:`~repro.net.transport.
            InProcessTransport`).  0.0 (the default) runs at CPU speed;
            a non-zero scale makes shard wall time track virtual time —
            the regime the scheduler benchmarks measure.  Deliberately
            excluded from shard config digests: pacing never changes a
            single observation byte.  Pair pacing with the thread
            backend, which overlaps the blocking sleeps.
    """

    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    n_workers: int = 50
    politeness_seconds: float = 5.0
    salt: str = "bqt-release"
    per_isp: tuple[tuple[str, IspOverride], ...] = ()
    pacing_time_scale: float = 0.0

    def with_isp_override(
        self,
        isp: str,
        n_workers: int | None = None,
        politeness_seconds: float | None = None,
    ) -> "CurationConfig":
        """A copy of this config with one ISP's knobs overridden."""
        kept = tuple(pair for pair in self.per_isp if pair[0] != isp)
        override = IspOverride(
            n_workers=n_workers, politeness_seconds=politeness_seconds
        )
        return replace(
            self,
            per_isp=tuple(
                sorted(kept + ((isp, override),), key=lambda pair: pair[0])
            ),
        )

    def _override_for(self, isp: str) -> IspOverride | None:
        for name, override in self.per_isp:
            if name == isp:
                return override
        return None

    def effective_n_workers(self, isp: str) -> int:
        override = self._override_for(isp)
        if override is not None and override.n_workers is not None:
            return override.n_workers
        return self.n_workers

    def effective_politeness(self, isp: str) -> float:
        override = self._override_for(isp)
        if override is not None and override.politeness_seconds is not None:
            return override.politeness_seconds
        return self.politeness_seconds


@dataclass(frozen=True)
class ShardTiming:
    """Observed execution of one dispatched (city, ISP) shard.

    ``wall_seconds`` is the shard's serial replay cost — the sum of its
    dispatch units' wall times — so the number is comparable whether the
    shard ran whole or chunked, on any backend; a unit a remote worker
    served from its own store counts 0.0.  ``predicted_seconds`` is the
    scheduler's :func:`~repro.exec.schedule.shard_price` (politeness x
    tasks, in virtual seconds), so a ``--profile-shards`` table shows
    both what the scheduler ranked by and what happened.
    """

    city: str
    isp: str
    tasks: int
    chunks: int
    wall_seconds: float
    predicted_seconds: float


@dataclass(frozen=True)
class CurationRunReport:
    """Accounting for the most recent :meth:`CurationPipeline.curate` call.

    Attributes:
        shards: Every (city, ISP) pair the call covered, in merge order.
        cached_shards: Shards served from the cache (either tier).
        disk_shards: The subset of ``cached_shards`` loaded from the
            on-disk store (zero without a disk tier).
        executed_shards: Shards dispatched to the executor.
        replayed_queries: Individual BQT queries actually executed — the
            cost a cache hit avoids.  Zero means the whole dataset came
            from cache without replaying a single query.
        backend: Executor backend name used for the dispatched shards.
        schedule: Dispatch-order mode (``"lpt"`` or ``"fifo"``).
        dispatched_units: Work units sent to the executor — equal to
            ``executed_shards`` when nothing chunked, larger otherwise.
        shard_timings: Per-shard wall-time accounting for the dispatched
            shards, in merge order (``--profile-shards`` renders these).
        index_build_s: Wall time this process spent building city address
            indexes during the call (coordinator-process scope — workers
            in other processes build and account their own).  Lets the
            CPU-path bench attribute time to synthesis vs index vs query.
    """

    shards: tuple[tuple[str, str], ...]
    cached_shards: int
    executed_shards: int
    backend: str
    disk_shards: int = 0
    replayed_queries: int = 0
    schedule: str = "lpt"
    dispatched_units: int = 0
    shard_timings: tuple[ShardTiming, ...] = ()
    index_build_s: float = 0.0

    @property
    def total_shards(self) -> int:
        return len(self.shards)

    @property
    def chunked_shards(self) -> int:
        """Dispatched shards that were split into more than one chunk."""
        return sum(1 for timing in self.shard_timings if timing.chunks > 1)


def _shard_tasks(
    city_world: CityWorld,
    isp: str,
    sampling: SamplingConfig,
    world_seed: int,
) -> list[NoisyAddress]:
    """Stratified sample for one (city, ISP) shard, flattened to tasks.

    Task order is geoid-sorted and therefore identical however and
    wherever the shard runs.
    """
    samples = sample_city(city_world.book, sampling, world_seed, isp)
    tasks: list[NoisyAddress] = []
    for geoid in sorted(samples):
        tasks.extend(samples[geoid])
    return tasks


# The BAT-side address index is a pure (and fairly expensive) function of
# the city's canonical address book, shared read-only by every shard and
# chunk of that city.  Rebuilding it per dispatch unit would make fine
# chunking pay a per-unit tax proportional to city size — exactly the
# shards chunking exists to speed up — so units share one index per
# (world config, city).  Bounded: curation touches a handful of cities at
# a time, and an evicted index is just rebuilt.
_ADDRESS_INDEXES: "Memo[tuple[WorldConfig, str], AddressIndex]" = Memo(maxsize=8)
# Cumulative wall time spent building indexes in THIS process, so the
# run report can attribute index cost separately from query replay.
_INDEX_BUILD_SECONDS = 0.0
_INDEX_BUILD_LOCK = threading.Lock()


def index_build_seconds() -> float:
    """Cumulative address-index build wall time in this process."""
    with _INDEX_BUILD_LOCK:
        return _INDEX_BUILD_SECONDS


def _city_address_index(
    world_config: WorldConfig, city_world: CityWorld
) -> AddressIndex:
    """The shared read-only address index of one city.

    Keyed by ``(world_config, city name)``: :func:`repro.world.
    build_city_world` is a pure function of that pair, so any
    ``city_world`` passed alongside the key indexes to identical content.
    Single flight: threads that miss on the same key while it is being
    built wait for that build, so each index is built (and its build
    time counted) once.
    """

    def build() -> AddressIndex:
        global _INDEX_BUILD_SECONDS
        started = time.perf_counter()
        index = AddressIndex(tuple(city_world.book.canonical))
        with _INDEX_BUILD_LOCK:
            _INDEX_BUILD_SECONDS += time.perf_counter() - started
        return index

    return _ADDRESS_INDEXES.get((world_config, city_world.info.name), build)


def _shard_observations(
    world_config: WorldConfig,
    city_world: CityWorld,
    isp: str,
    config: CurationConfig,
    tasks: list[NoisyAddress] | None = None,
) -> tuple[AddressObservation, ...]:
    """Execute one (city, ISP) shard against fresh per-shard server state.

    The returned observations depend only on ``(world_config, city, isp,
    config)`` — never on sibling shards, execution order, or the backend.
    ``tasks`` may be supplied by a caller that already sampled the shard
    (the cache-keying path); it must equal ``_shard_tasks(...)``.

    This is the hot-path dispatcher: shards first try the columnar fast
    path (:func:`repro.dataset.columnar.run_shard_columnar`), which
    synthesizes every task's walk as whole-shard numpy operations; a
    shard it declines replays whole through the scalar fleet —
    byte-identical output either way, pinned by the golden parity
    suite.  ``REPRO_COLUMNAR=0`` forces everything scalar.
    """
    seed = world_config.seed
    if tasks is None:
        tasks = _shard_tasks(city_world, isp, config.sampling, seed)
    if not tasks:
        return ()

    from .columnar import run_shard_columnar

    if ambient_columnar():
        observations = run_shard_columnar(
            world_config, city_world, isp, config, tasks
        )
        if observations is not None:
            return observations
    return _scalar_shard_observations(
        world_config, city_world, isp, config, tasks
    )


def _scalar_shard_observations(
    world_config: WorldConfig,
    city_world: CityWorld,
    isp: str,
    config: CurationConfig,
    tasks: list[NoisyAddress],
) -> tuple[AddressObservation, ...]:
    """The scalar replay: a real fleet against fresh per-shard servers.

    The shard's transport, BAT application, proxy pool and fleet are all
    constructed here from seeds derived from ``(city, ISP)``.  This is
    the oracle the columnar path is checked against, and per-task content
    keying makes any task subset replay byte-identically (what sub-shard
    chunking relies on).
    """
    city = city_world.info.name
    seed = world_config.seed
    transport = InProcessTransport(
        latency=world_config.latency,
        seed=derive_seed(seed, "curation-transport", city, isp),
        time_scale=config.pacing_time_scale,
    )
    transport.register(
        BatApplication(
            profile=profile_for(isp),
            index=_city_address_index(world_config, city_world),
            offers=offer_resolver({city: city_world}, isp),
            seed=seed,
        )
    )

    n_workers = min(config.effective_n_workers(isp), max(1, len(tasks)))
    fleet = ContainerFleet(
        transport,
        n_workers=n_workers,
        seed=derive_seed(seed, "curation-fleet", city, isp),
        proxy_pool=ResidentialProxyPool(
            n_workers, seed=derive_seed(seed, "curation-pool", city, isp)
        ),
        politeness_seconds=config.effective_politeness(isp),
    )
    report = fleet.run(
        [(isp, entry.street_line, entry.zip_code) for entry in tasks]
    )

    def observation(entry: NoisyAddress, result: QueryResult) -> AddressObservation:
        return AddressObservation(
            address_id=hash_address_id(
                entry.truth.street_line(), entry.truth.zip_code, config.salt
            ),
            city=entry.city,
            block_group=entry.truth.block_group,
            isp=result.isp,
            status=result.status,
            plans=tuple(PlanObservation.from_observed(p) for p in result.plans),
            elapsed_seconds=result.elapsed_seconds,
        )

    return tuple(
        observation(entry, result)
        for entry, result in zip(tasks, report.results)
    )


# ----------------------------------------------------------------------
# Dispatch plumbing
# ----------------------------------------------------------------------
# The dispatch unit itself — the serializable ShardSpec and its
# run_shard_spec entry point — lives in repro.exec.spec: every backend
# (including remote workers in other processes on other machines) runs
# the same entry point over the same pure data.  What remains here is the
# per-curate() bookkeeping that turns a world + config into specs.


@dataclass(frozen=True)
class _ShardPlan:
    """One shard as scheduled by a concrete ``curate()`` call."""

    city: str
    isp: str
    city_world: CityWorld
    cache_keys: tuple[str, ...]
    # The shard's sampled tasks in canonical (geoid-sorted) order; the
    # scheduler's chunk spans slice this list, and the thread/serial
    # paths replay it directly.
    tasks: tuple[NoisyAddress, ...] | None = None
    # Config digest of this shard (incremental re-curation unit); labels
    # the entry in the disk manifest.
    config_digest: str = ""


@dataclass(frozen=True)
class _DispatchUnit:
    """One executor work item: a contiguous slice of one pending shard."""

    plan_index: int
    start: int
    stop: int
    cost: float


class CurationPipeline:
    """Runs the full data-collection methodology against a world.

    Args:
        world: The simulated measurement environment.
        config: Pipeline knobs (sampling, fleet size, politeness, salt).
        executor: Execution backend for (city, ISP) shards — an
            :class:`~repro.exec.Executor`, a backend name (``"serial"``,
            ``"thread"``, ``"process"``, ``"remote"``), or None for
            serial.  Every backend produces the same dataset, byte for
            byte.
        cache: Optional :class:`~repro.exec.QueryResultCache`; shards whose
            content-addressed keys are fully present are served from it
            without replaying any queries.
        schedule: Dispatch-order mode — ``"lpt"`` (longest processing time
            first, priced by :func:`~repro.exec.schedule.shard_price`; the
            default) or ``"fifo"`` (enumeration order).  Either order is a
            pure function of the configuration.  Execution-only: the
            merged dataset is byte-identical either way.
        chunk_tasks: Sub-shard chunk cap — None (never split), an integer
            task count ``>= 1``, or ``"auto"`` (size chunks from the
            executor width).  Execution-only, like ``schedule``: a chunk
            replays exactly the observations its span of the whole-shard
            run would produce.

    Raises:
        DatasetError: ``schedule`` is not a known mode.
        ConfigurationError: ``chunk_tasks`` is none of the above.
    """

    def __init__(
        self,
        world: World,
        config: CurationConfig | None = None,
        executor: Executor | str | None = None,
        cache: QueryResultCache | None = None,
        schedule: str = "lpt",
        chunk_tasks: int | str | None = None,
    ) -> None:
        self._world = world
        self.config = config or CurationConfig()
        self.executor = resolve_executor(executor)
        self.cache = cache
        self.schedule = schedule
        if self.schedule not in SCHEDULE_MODES:
            raise DatasetError(
                f"unknown schedule mode {self.schedule!r} "
                f"(available: {', '.join(SCHEDULE_MODES)})"
            )
        # Checked now, not at the first dispatch (which a warm cache may
        # never reach).  "auto" resolves at dispatch, against the width,
        # which a remote executor learns from its fleet.
        resolve_chunk_tasks(chunk_tasks, 0, 1)
        self.chunk_tasks = chunk_tasks
        self.last_run: CurationRunReport | None = None

    # ------------------------------------------------------------------
    # Curation
    # ------------------------------------------------------------------
    def curate(
        self,
        cities: tuple[str, ...] | None = None,
        isps: tuple[str, ...] | None = None,
    ) -> BroadbandDataset:
        """Collect the dataset for the requested cities and ISPs.

        Defaults to every city in the world and every major ISP active in
        each city (the paper's full methodology).  Shards are merged in
        (city, ISP) schedule order, so the record order — like the records
        themselves — is independent of the execution backend.
        """
        index_build_start = index_build_seconds()
        target_cities = cities if cities is not None else tuple(self._world.cities)
        shards: list[tuple[str, str]] = []
        for city in target_cities:
            city_world = self._world.city(city)
            for isp in city_world.info.isps:
                if isps is None or isp in isps:
                    shards.append((city, isp))
        if not shards:
            raise DatasetError("no (city, ISP) pairs matched the curation request")

        # Every shard's config digest is computed up front; it decides —
        # together with the address-level keys it feeds — whether the
        # shard is fresh (served from cache) or stale (re-dispatched).
        # Digests are computed even without a coordinator-side cache: they
        # ride on every dispatched spec, where they scope worker-side
        # store reuse.  Tasks are always sampled here: the scheduler
        # prices shards by task count and slices the canonical task list
        # into chunks.
        world_config = self._world.config
        base = curation_base_digest(world_config, self.config)
        plans: list[_ShardPlan] = []
        for city, isp in shards:
            city_world = self._world.city(city)
            keys: tuple[str, ...] = ()
            digest = shard_config_digest(
                world_config, self.config, city, isp, base=base
            )
            tasks = tuple(
                _shard_tasks(
                    city_world, isp, self.config.sampling, world_config.seed
                )
            )
            if self.cache is not None:
                keys = shard_cache_keys(
                    isp, tasks, world_config.seed, world_config.scale, digest
                )
            plans.append(
                _ShardPlan(city, isp, city_world, keys, tasks, digest)
            )

        # Serve whole shards from the cache; replay the rest.
        results: dict[int, tuple[AddressObservation, ...]] = {}
        pending: list[tuple[int, _ShardPlan]] = []
        disk_shards = 0
        for index, plan in enumerate(plans):
            cached = None
            if self.cache is not None:
                before = self.cache.stats.disk_shard_hits
                cached = self.cache.lookup_shard(plan.cache_keys)
                disk_shards += self.cache.stats.disk_shard_hits - before
            if cached is not None:
                results[index] = cached
            else:
                pending.append((index, plan))

        replayed = 0
        timings: tuple[ShardTiming, ...] = ()
        dispatched_units = 0
        if pending:
            executed, timings, dispatched_units = self._execute(
                [plan for _, plan in pending]
            )
            world_config = self._world.config
            for (index, plan), observations in zip(pending, executed):
                results[index] = observations
                replayed += len(observations)
                if self.cache is not None:
                    self.cache.store_shard(
                        plan.cache_keys,
                        observations,
                        meta=ShardMeta(
                            city=plan.city,
                            isp=plan.isp,
                            seed=world_config.seed,
                            scale=world_config.scale,
                            config_digest=plan.config_digest,
                        ),
                    )
        if self.cache is not None and self.cache.store is not None:
            # Save the LRU touches of the shards read from disk, so that
            # eviction ranks them by this use.  A put saved them already,
            # so only a run that read every shard writes the manifest here.
            self.cache.store.flush()

        self.last_run = CurationRunReport(
            shards=tuple(shards),
            cached_shards=len(plans) - len(pending),
            executed_shards=len(pending),
            backend=self.executor.name,
            disk_shards=disk_shards,
            replayed_queries=replayed,
            schedule=self.schedule,
            dispatched_units=dispatched_units,
            shard_timings=timings,
            index_build_s=index_build_seconds() - index_build_start,
        )
        merged: list[AddressObservation] = []
        for index in range(len(plans)):
            merged.extend(results[index])
        return BroadbandDataset(tuple(merged))

    def _schedule_units(
        self, plans: list[_ShardPlan]
    ) -> tuple[list[_DispatchUnit], list[ShardTiming]]:
        """Price, chunk, and LPT-order the pending shards.

        Returns the dispatch units in dispatch order plus a per-plan
        timing skeleton carrying the scheduler's predictions (filled with
        observed wall times after execution).
        """
        total_tasks = sum(len(plan.tasks or ()) for plan in plans)
        cap = resolve_chunk_tasks(
            self.chunk_tasks, total_tasks, self.executor.width
        )

        units: list[_DispatchUnit] = []
        predictions: list[ShardTiming] = []
        for plan_index, plan in enumerate(plans):
            n_tasks = len(plan.tasks or ())
            price = shard_price(
                n_tasks, self.config.effective_politeness(plan.isp)
            )
            spans = chunk_spans(n_tasks, cap)
            predictions.append(
                ShardTiming(
                    city=plan.city,
                    isp=plan.isp,
                    tasks=n_tasks,
                    chunks=len(spans),
                    wall_seconds=0.0,
                    predicted_seconds=price,
                )
            )
            for start, stop in spans:
                share = (stop - start) / n_tasks if n_tasks else 0.0
                units.append(
                    _DispatchUnit(plan_index, start, stop, price * share)
                )

        if self.schedule == "lpt":
            order = lpt_order(
                [unit.cost for unit in units],
                [
                    (plans[unit.plan_index].city, plans[unit.plan_index].isp,
                     unit.start)
                    for unit in units
                ],
            )
            units = [units[index] for index in order]
        return units, predictions

    def _execute(
        self, plans: list[_ShardPlan]
    ) -> tuple[
        list[tuple[AddressObservation, ...]],
        tuple[ShardTiming, ...],
        int,
    ]:
        """Dispatch scheduled shard work through the configured backend.

        Shards are priced by :func:`~repro.exec.schedule.shard_price`,
        oversized ones split into sub-shard chunks, and the resulting
        units dispatched longest-first (under ``schedule="lpt"``).  Every
        unit is a serializable :class:`~repro.exec.spec.ShardSpec` handed
        to the backend's ``map_specs`` — the same entry point whether the
        spec runs on this thread, in a forked pool, or on a worker
        machine.  Chunk results merge back in canonical span order, so the
        returned per-plan observations — hence the dataset — are
        byte-identical whatever the dispatch order, chunk cap, or backend.
        """
        world_config = self._world.config
        units, predictions = self._schedule_units(plans)

        specs = [
            ShardSpec(
                world=world_config,
                city=plans[unit.plan_index].city,
                isp=plans[unit.plan_index].isp,
                config=self.config,
                start=unit.start,
                stop=unit.stop,
                config_digest=plans[unit.plan_index].config_digest,
                # Local fast path: the span is pre-sliced from the tasks
                # this pipeline already sampled, so no backend re-samples
                # a city per chunk.  Dropped at the wire for remote
                # workers, which re-derive the identical sample.
                tasks=(
                    plans[unit.plan_index].tasks[unit.start : unit.stop]
                    if plans[unit.plan_index].tasks is not None
                    else None
                ),
            )
            for unit in units
        ]
        # Pre-seed the shared city memo with this pipeline's already-built
        # cities: thread/serial spec runs share them outright, and
        # fork-started process workers inherit the seeded dict
        # (spawn-started and remote workers rebuild, byte-equivalently).
        seeded = seed_city_worlds(
            {(world_config, plan.city): plan.city_world for plan in plans}
        )
        try:
            outcomes = self.executor.map_specs(specs)
        finally:
            release_city_worlds(seeded)

        # Merge chunk results back per plan in canonical span order, and
        # fold observed wall times into the timing rows.
        by_plan: dict[int, list[tuple[int, tuple[AddressObservation, ...]]]] = {}
        walls = [0.0] * len(plans)
        for unit, (observations, wall_seconds) in zip(units, outcomes):
            by_plan.setdefault(unit.plan_index, []).append(
                (unit.start, observations)
            )
            walls[unit.plan_index] += wall_seconds

        merged: list[tuple[AddressObservation, ...]] = []
        timings: list[ShardTiming] = []
        for plan_index in range(len(plans)):
            pieces = sorted(by_plan.get(plan_index, []))
            merged.append(
                tuple(obs for _, piece in pieces for obs in piece)
            )
            timings.append(
                replace(predictions[plan_index], wall_seconds=walls[plan_index])
            )
        return merged, tuple(timings), len(units)
