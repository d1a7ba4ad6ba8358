"""Shared experiment context: one world + one curated dataset per session.

Building the world and running the curation pipeline dominates experiment
cost, so every table/figure reproduction shares a cached
:class:`ExperimentContext`.  The scale is configurable through the
``REPRO_BENCH_SCALE`` and ``REPRO_BENCH_MIN_SAMPLES`` environment
variables; the defaults trade ~1-2 minutes of curation for statistically
meaningful per-block-group samples across all thirty cities.

Two caches cooperate here, at different granularities:

* ``get_context`` memoizes whole contexts per argument tuple (an
  ``lru_cache``), so the same invocation never rebuilds anything.  Use
  :func:`clear_context_cache` / :func:`context_cache_size` to reset or
  inspect it — tests that mutate cache-relevant environment variables
  must clear it in teardown or later tests silently reuse their contexts.
* a process-wide :class:`~repro.exec.QueryResultCache` is shared by every
  pipeline the contexts run, so different configurations that overlap in
  (city, ISP) shards reuse each other's query replays.  When
  ``REPRO_CACHE_DIR`` is set (or a CLI passes ``--cache-dir``) the shared
  cache gains an on-disk tier and reuse extends across processes: a
  second ``python -m repro.experiments`` run loads every unchanged shard
  from disk instead of replaying it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from ..dataset.container import BroadbandDataset
from ..dataset.curation import (
    CurationConfig,
    CurationPipeline,
    CurationRunReport,
)
from ..dataset.sampling import SamplingConfig
from ..exec.base import default_backend
from ..exec.cache import QueryResultCache
from ..exec.store import (
    build_result_cache,
    default_cache_dir,
    default_cache_max_bytes,
)
from ..world import World, WorldConfig, build_world

__all__ = [
    "ExperimentContext",
    "get_context",
    "default_scale",
    "default_backend",
    "paper_curation_config",
    "shared_result_cache",
    "clear_context_cache",
    "context_cache_size",
    "last_curation_report",
]

_DEFAULT_SCALE = 0.12
_DEFAULT_MIN_SAMPLES = 10
_DEFAULT_SEED = 42

# One query-result cache for the whole process: repeated context builds
# (ablation sweeps, example scripts, --only reruns) skip re-curating any
# (city, ISP) shard whose content-addressed keys are already known.  The
# instance is rebuilt if the disk-tier configuration changes underneath
# us (tests monkeypatching REPRO_CACHE_DIR, CLI flags).
_SHARED_CACHE: QueryResultCache | None = None
_SHARED_CACHE_TOKEN: tuple[str, int | None] | None = None


def _cache_token(cache_dir: str | None) -> tuple[str, int | None]:
    resolved = cache_dir if cache_dir is not None else str(default_cache_dir() or "")
    return (resolved, default_cache_max_bytes())


def shared_result_cache(cache_dir: str | None = None) -> QueryResultCache:
    """The process-wide curation result cache used by experiment contexts.

    With ``cache_dir`` (or ``REPRO_CACHE_DIR``) set, the cache carries an
    on-disk tier rooted there; otherwise it is memory-only.  The same
    instance is returned until the disk-tier configuration changes.
    """
    global _SHARED_CACHE, _SHARED_CACHE_TOKEN
    token = _cache_token(cache_dir)
    if _SHARED_CACHE is None or token != _SHARED_CACHE_TOKEN:
        _SHARED_CACHE = build_result_cache(cache_dir=token[0] or None)
        _SHARED_CACHE_TOKEN = token
    return _SHARED_CACHE


def clear_context_cache(disk: bool = False) -> None:
    """Reset both context-level caches (test-teardown hook).

    Drops every memoized :class:`ExperimentContext` and empties the shared
    query-result cache's memory tier.  ``disk=True`` additionally purges
    the on-disk store, when one is attached.  Counters on the shared cache
    are preserved (they are cumulative diagnostics, not state).
    """
    get_context.cache_clear()
    if _SHARED_CACHE is not None:
        _SHARED_CACHE.clear(disk=disk)


def context_cache_size() -> int:
    """Number of memoized experiment contexts currently held."""
    return get_context.cache_info().currsize


# The most recent context build's curation accounting (None until a
# context is actually curated; memoized re-fetches do not update it).
_LAST_REPORT: CurationRunReport | None = None


def last_curation_report() -> CurationRunReport | None:
    """Shard-level accounting of the most recent context curation.

    The ``--profile-shards`` CLI path reads shard timings from here, since
    :func:`get_context` hides its pipeline.
    """
    return _LAST_REPORT


def default_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", _DEFAULT_SCALE))


def paper_curation_config(min_samples: int | None = None) -> CurationConfig:
    """The curation configuration every experiment context curates with.

    One constructor shared by :func:`get_context` and ``python -m
    repro.dataset warm``: fleet size and sampling fraction are part of
    every shard's cache key, so if the two sites built their configs
    independently a drift in either constant would make warming populate
    keys the experiments run never looks up.
    """
    if min_samples is None:
        min_samples = _default_min_samples()
    return CurationConfig(
        sampling=SamplingConfig(fraction=0.10, min_samples=min_samples),
        n_workers=50,
    )


def _default_min_samples() -> int:
    return int(os.environ.get("REPRO_BENCH_MIN_SAMPLES", _DEFAULT_MIN_SAMPLES))


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


@lru_cache(maxsize=4)
def get_context(
    scale: float | None = None,
    seed: int = _DEFAULT_SEED,
    min_samples: int | None = None,
    cities: tuple[str, ...] | None = None,
    backend: str | None = None,
    cache_dir: str | None = None,
    use_cache: bool = True,
    schedule: str | None = None,
    chunk_tasks: int | str | None = None,
) -> ExperimentContext:
    """Build (or fetch the cached) experiment context.

    Args:
        scale: Block-group scale factor (None = env default).
        seed: Master seed.
        min_samples: Per-block-group sample floor (None = env default;
            the paper uses 30 — benches default lower to bound runtime).
        cities: Restrict to a subset of cities (tests); None = all thirty.
        backend: Curation execution backend name (``"serial"``,
            ``"thread"``, ``"process"``, ``"remote"``;
            None = ``REPRO_EXEC_BACKEND`` or serial; ``"remote"``
            additionally reads the worker fleet from
            ``REPRO_REMOTE_WORKERS``).  Every backend yields the
            identical dataset.
        cache_dir: On-disk cache root for the shared result cache (None =
            ``REPRO_CACHE_DIR`` or memory-only).
        use_cache: False disables the query-result cache entirely for
            this context (the ``--no-cache`` CLI flag).
        schedule: Shard dispatch-order mode (``"lpt"``/``"fifo"``; None =
            ``REPRO_SCHEDULE`` or LPT).  Execution-only — the dataset is
            byte-identical either way.
        chunk_tasks: Sub-shard chunk cap (int, ``"auto"``, or None =
            ``REPRO_CHUNK_TASKS`` or no chunking).  Execution-only, like
            ``schedule``.
    """
    scale = scale if scale is not None else default_scale()
    min_samples = min_samples if min_samples is not None else _default_min_samples()
    backend = backend if backend is not None else default_backend()
    world = build_world(WorldConfig(seed=seed, scale=scale, cities=cities))
    curation = paper_curation_config(min_samples)
    cache = shared_result_cache(cache_dir) if use_cache else None
    pipeline = CurationPipeline(
        world,
        curation,
        executor=backend,
        cache=cache,
        schedule=schedule,
        chunk_tasks=chunk_tasks,
    )
    dataset = pipeline.curate()
    global _LAST_REPORT
    _LAST_REPORT = pipeline.last_run
    return ExperimentContext(world=world, dataset=dataset, curation=curation)
