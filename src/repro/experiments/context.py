"""Shared experiment context: one world + one curated dataset per session.

Building the world and running the curation pipeline dominates experiment
cost, so every table/figure reproduction shares a cached
:class:`ExperimentContext`.  The scale and sample floor default to the
``REPRO_BENCH_SCALE`` and ``REPRO_BENCH_MIN_SAMPLES`` settings; the
defaults trade ~1-2 minutes of curation for statistically meaningful
per-block-group samples across all thirty cities.

Two caches cooperate here, at different granularities:

* ``get_context`` memoizes whole contexts (an ``lru_cache``) keyed by the
  resolved arguments and :class:`~repro.settings.RunSettings`, so the
  same invocation never rebuilds anything and a changed environment is a
  new context.  :func:`clear_context_cache` / :func:`context_cache_size`
  reset and inspect it.
* a process-wide :class:`~repro.exec.QueryResultCache` is shared by every
  pipeline the contexts run, so different configurations that overlap in
  (city, ISP) shards reuse each other's query replays.  When the settings
  name a cache directory the shared cache gains an on-disk tier and reuse
  extends across processes: a second ``python -m repro.experiments`` run
  loads every unchanged shard from disk instead of replaying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..dataset.container import BroadbandDataset
from ..dataset.curation import (
    CurationConfig,
    CurationPipeline,
    CurationRunReport,
)
from ..dataset.sampling import SamplingConfig
from ..exec.base import build_executor
from ..exec.cache import QueryResultCache
from ..exec.store import build_result_cache
from ..settings import RunSettings
from ..world import World, WorldConfig, build_world

__all__ = [
    "ExperimentContext",
    "get_context",
    "paper_curation_config",
    "shared_result_cache",
    "clear_context_cache",
    "context_cache_size",
    "last_curation_report",
]

_DEFAULT_SEED = 42

# One query-result cache for the whole process: repeated context builds
# (ablation sweeps, example scripts, --only reruns) skip re-curating any
# (city, ISP) shard whose content-addressed keys are already known.  The
# instance is rebuilt when a caller asks for another disk tier.
_SHARED_CACHE: QueryResultCache | None = None
_SHARED_CACHE_TOKEN: tuple[Path | None, int | None] | None = None


def shared_result_cache(
    cache_dir: str | Path | None = None, max_bytes: int | None = None
) -> QueryResultCache:
    """The process-wide curation result cache used by experiment contexts.

    With a ``cache_dir`` the cache carries an on-disk tier rooted there
    (capped at ``max_bytes``); otherwise it is memory-only.  The same
    instance is returned until the disk-tier configuration changes.
    """
    global _SHARED_CACHE, _SHARED_CACHE_TOKEN
    token = (Path(cache_dir) if cache_dir is not None else None, max_bytes)
    if _SHARED_CACHE is None or token != _SHARED_CACHE_TOKEN:
        _SHARED_CACHE = build_result_cache(cache_dir, max_bytes)
        _SHARED_CACHE_TOKEN = token
    return _SHARED_CACHE


def clear_context_cache(disk: bool = False) -> None:
    """Reset both context-level caches (test-teardown hook).

    Drops every memoized :class:`ExperimentContext` and empties the shared
    query-result cache's memory tier.  ``disk=True`` additionally purges
    the on-disk store, when one is attached.  Counters on the shared cache
    are preserved (they are cumulative diagnostics, not state).
    """
    _curated_context.cache_clear()
    if _SHARED_CACHE is not None:
        _SHARED_CACHE.clear(disk=disk)


def context_cache_size() -> int:
    """Number of memoized experiment contexts currently held."""
    return _curated_context.cache_info().currsize


# The most recent context build's curation accounting (None until a
# context is actually curated; memoized re-fetches do not update it).
_LAST_REPORT: CurationRunReport | None = None


def last_curation_report() -> CurationRunReport | None:
    """Shard-level accounting of the most recent context curation.

    The ``--profile-shards`` CLI path reads shard timings from here, since
    :func:`get_context` hides its pipeline.
    """
    return _LAST_REPORT


def paper_curation_config(min_samples: int) -> CurationConfig:
    """The curation configuration every experiment context curates with.

    One constructor shared by :func:`get_context` and ``python -m
    repro.dataset warm``: fleet size and sampling fraction are part of
    every shard's cache key, so if the two sites built their configs
    independently a drift in either constant would make warming populate
    keys the experiments run never looks up.
    """
    return CurationConfig(
        sampling=SamplingConfig(fraction=0.10, min_samples=min_samples),
        n_workers=50,
    )


@dataclass
class ExperimentContext:
    """World + curated dataset + the configs that produced them."""

    world: World
    dataset: BroadbandDataset
    curation: CurationConfig

    @property
    def seed(self) -> int:
        return self.world.seed

    def incomes_by_city(self) -> dict[str, dict[str, float]]:
        """Public ACS income join input for the income analyses."""
        return {
            name: {row.geoid: row.median_household_income for row in cw.acs}
            for name, cw in self.world.cities.items()
        }


def get_context(
    scale: float | None = None,
    seed: int = _DEFAULT_SEED,
    min_samples: int | None = None,
    cities: tuple[str, ...] | None = None,
    settings: RunSettings | None = None,
    use_cache: bool = True,
) -> ExperimentContext:
    """Build (or fetch the cached) experiment context.

    Args:
        scale: Block-group scale factor (None = ``settings.bench_scale``).
        seed: Master seed.
        min_samples: Per-block-group sample floor (None =
            ``settings.bench_min_samples``; the paper uses 30 — benches
            default lower to bound runtime).
        cities: Restrict to a subset of cities (tests); None = all thirty.
        settings: Backend, cache and scheduling knobs; None resolves them
            from the environment (:meth:`RunSettings.from_env`) on every
            call.  Every backend and schedule yields the identical
            dataset.
        use_cache: False disables the query-result cache entirely for
            this context (the ``--no-cache`` CLI flag).
    """
    if settings is None:
        settings = RunSettings.from_env()
    return _curated_context(
        scale if scale is not None else settings.bench_scale,
        seed,
        min_samples if min_samples is not None else settings.bench_min_samples,
        cities,
        settings,
        use_cache,
    )


@lru_cache(maxsize=4)
def _curated_context(
    scale: float,
    seed: int,
    min_samples: int,
    cities: tuple[str, ...] | None,
    settings: RunSettings,
    use_cache: bool,
) -> ExperimentContext:
    world = build_world(WorldConfig(seed=seed, scale=scale, cities=cities))
    curation = paper_curation_config(min_samples)
    cache = (
        shared_result_cache(settings.cache_dir, settings.cache_max_bytes)
        if use_cache
        else None
    )
    pipeline = CurationPipeline(
        world,
        curation,
        executor=build_executor(settings),
        cache=cache,
        schedule=settings.schedule,
        chunk_tasks=settings.chunk_tasks,
    )
    dataset = pipeline.curate()
    global _LAST_REPORT
    _LAST_REPORT = pipeline.last_run
    return ExperimentContext(world=world, dataset=dataset, curation=curation)
