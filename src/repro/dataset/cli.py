"""Shared command-line plumbing for the curation and experiment CLIs.

Lives outside ``__main__`` so ``python -m repro.dataset`` (which loads
that module as ``__main__``) and library importers (``repro.experiments.
__main__``, tests) see one module instance instead of two.
"""

from __future__ import annotations

import argparse

from ..errors import ConfigurationError
from ..settings import (
    EXECUTOR_BACKENDS,
    SCHEDULE_MODES,
    RunSettings,
    parse_chunk_tasks,
    parse_coordinator_address,
    parse_worker_addresses,
)
from .curation import CurationPipeline, CurationRunReport

__all__ = [
    "add_backend_arguments",
    "add_scheduling_arguments",
    "render_cache_stats",
    "render_shard_table",
    "render_store_table",
    "print_cpu_profile",
    "print_run_summary",
    "settings_from_args",
]


def add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution-backend knobs shared by both CLIs."""
    parser.add_argument("--backend", default=None,
                        choices=EXECUTOR_BACKENDS,
                        help="shard execution backend (default: "
                             "REPRO_EXEC_BACKEND or serial; all backends "
                             "produce the identical dataset)")
    parser.add_argument("--remote-workers", default=None,
                        metavar="HOST:PORT,...",
                        help="worker fleet for the remote backend, as a "
                             "comma-separated host:port list (default: "
                             "REPRO_REMOTE_WORKERS).  Implies --backend "
                             "remote.  Start workers with `python -m "
                             "repro.dataset worker`")
    parser.add_argument("--elastic", action="store_true", default=False,
                        help="remote backend, elastic fleet: run a "
                             "membership coordinator and consume whatever "
                             "workers --join it (instead of a static "
                             "--remote-workers list).  Implies --backend "
                             "remote.  Equivalent to REPRO_ELASTIC=1")
    parser.add_argument("--coordinator", default=None, metavar="HOST:PORT",
                        help="bind address for the elastic membership "
                             "coordinator (default: REPRO_COORDINATOR or "
                             "127.0.0.1:7070).  Implies --elastic")


def settings_from_args(args: argparse.Namespace) -> RunSettings:
    """Resolve one :class:`~repro.settings.RunSettings` at a CLI edge.

    Every flag the parser defines overrides its ``REPRO_*`` variable; a
    variable is read only where its flag was not given.  ``--remote-
    workers`` implies ``--backend remote`` with a static fleet, and
    ``--elastic`` or ``--coordinator`` imply ``--backend remote`` with an
    elastic one; the two kinds of fleet are mutually exclusive.  A
    malformed flag or variable exits with its message.  Writes nothing to
    ``os.environ``.
    """
    workers = getattr(args, "remote_workers", None) or None
    coordinator = getattr(args, "coordinator", None)
    elastic = bool(getattr(args, "elastic", False)) or coordinator is not None
    if elastic and workers:
        raise SystemExit(
            "--elastic consumes the membership directory; do not also "
            "pass --remote-workers"
        )
    backend = getattr(args, "backend", None)
    if backend is None and (workers or elastic):
        backend = "remote"
    try:
        return RunSettings.from_env(
            backend=backend,
            remote_workers=parse_worker_addresses(workers) if workers else None,
            elastic=True if elastic else (False if workers else None),
            coordinator=(
                parse_coordinator_address(coordinator)
                if coordinator is not None
                else None
            ),
            cache_dir=getattr(args, "cache_dir", None),
            cache_max_bytes=getattr(args, "cache_max_bytes", None),
            schedule=getattr(args, "schedule", None),
            chunk_tasks=getattr(args, "chunk_tasks", None),
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def _chunk_tasks_arg(raw: str) -> "int | str":
    """``--chunk-tasks`` flag adapter over the one shared knob parser."""
    try:
        return parse_chunk_tasks(raw)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_scheduling_arguments(parser: argparse.ArgumentParser) -> None:
    """The shard-scheduling knobs shared by both CLIs."""
    parser.add_argument("--schedule", default=None, choices=SCHEDULE_MODES,
                        help="shard dispatch order: lpt (longest first, "
                             "priced by politeness x tasks; default) or "
                             "fifo (enumeration order).  The dataset is "
                             "byte-identical either way")
    parser.add_argument("--chunk-tasks", type=_chunk_tasks_arg, default=None,
                        metavar="N|auto",
                        help="split shards larger than N tasks into "
                             "sub-shard chunks ('auto' sizes chunks from "
                             "the executor width; default: "
                             "REPRO_CHUNK_TASKS or no chunking).  "
                             "Byte-transparent like --schedule")
    parser.add_argument("--profile-shards", action="store_true",
                        help="print a per-shard wall-time table after the "
                             "run, stragglers first, beside each shard's "
                             "scheduling price")


def render_shard_table(report: CurationRunReport) -> str:
    """The ``--profile-shards`` table: dispatched shards, stragglers first."""
    header = (
        f"{'city':<16}{'isp':<13}{'tasks':>7}{'chunks':>8}"
        f"{'wall_s':>9}{'predicted':>11}"
    )
    lines = [header, "-" * len(header)]
    rows = sorted(
        report.shard_timings, key=lambda t: (-t.wall_seconds, t.city, t.isp)
    )
    for timing in rows:
        lines.append(
            f"{timing.city:<16}{timing.isp:<13}{timing.tasks:>7d}"
            f"{timing.chunks:>8d}{timing.wall_seconds:>9.2f}"
            f"{timing.predicted_seconds:>11.1f}"
        )
    if not rows:
        lines.append("(no shards were dispatched — everything came "
                     "from cache)")
    return "\n".join(lines)


def render_store_table(store) -> str:
    """The ``cache ls`` listing: manifest entries in LRU order.

    Shows exactly what a warm worker would ship for each shard — the
    entry a coordinator promotes into its own cache — so an operator can
    audit a shared cache root without parsing the manifest by hand.
    """
    entries = store.entries()
    header = (
        f"{'digest':<14}{'city':<16}{'isp':<13}{'seed':>6}{'scale':>7}  "
        f"{'config':<10}{'obs':>6}{'bytes':>10}{'lru':>5}"
    )
    lines = [header, "-" * len(header)]
    for entry in entries:
        meta = entry.meta
        lines.append(
            f"{entry.digest[:12]:<14}{meta.city:<16}{meta.isp:<13}"
            f"{meta.seed:>6d}{meta.scale:>7.2f}  "
            f"{(meta.config_digest[:8] or '-'):<10}"
            f"{entry.n_observations:>6d}{entry.n_bytes:>10d}{entry.access:>5d}"
        )
    if not entries:
        lines.append("(store is empty)")
    lines.append(
        f"total: {len(entries)} entries, {store.total_bytes()} bytes"
        + (f" (cap {store.max_bytes})" if store.max_bytes else "")
    )
    return "\n".join(lines)


def print_run_summary(pipeline: CurationPipeline, profile: bool) -> None:
    """Cache/schedule accounting lines both CLI paths print after a run."""
    run = pipeline.last_run
    print(f"cache: replayed {run.replayed_queries} queries; "
          f"{run.cached_shards}/{run.total_shards} shards cached "
          f"({run.disk_shards} from disk)")
    print(f"schedule: {run.schedule}; {run.executed_shards} shards as "
          f"{run.dispatched_units} dispatch units "
          f"({run.chunked_shards} chunked) on the {run.backend} backend")
    if profile:
        print()
        print(render_shard_table(run))


def render_cache_stats() -> str:
    """One ``cache-stats:`` line per memoized hot-path helper.

    Every ``lru_cache`` the single-query CPU path leans on, so a
    ``--profile-cpu`` run shows at a glance which memos are earning their
    keep (hits), thrashing (evictions against maxsize), or cold.
    """
    from ..bat import pages, profiles
    from ..core import dom, parsing
    from ..isp import plans
    from .columnar import columnar_cache_stats

    stats: dict[str, object] = {
        "profiles.profile_for": profiles.profile_for.cache_info(),
        "pages.render_home": pages.render_home.cache_info(),
        "pages.render_technical_error":
            pages.render_technical_error.cache_info(),
        "plans.catalog_for": plans.catalog_for.cache_info(),
        "plans.dsl_plans": plans.dsl_plans.cache_info(),
        "plans.fiber_plans": plans.fiber_plans.cache_info(),
        "parsing.plans_from_markup": parsing.plans_from_markup.cache_info(),
        "dom.parse_html_cached": dom.parse_html_cached.cache_info(),
    }
    stats.update(columnar_cache_stats())
    width = max(len(name) for name in stats)
    return "\n".join(
        f"cache-stats: {name:<{width}}  hits={info.hits} "
        f"misses={info.misses} size={info.currsize}/{info.maxsize}"
        for name, info in stats.items()
    )


def print_cpu_profile(profiler, top: int = 25) -> None:
    """The ``--profile-cpu`` report: pstats top-N + memo cache counters."""
    import io
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print()
    print(f"--- cpu profile (top {top} by cumulative time) ---")
    print(stream.getvalue().rstrip())
    print()
    print(render_cache_stats())
