"""Command-line curation runner.

Builds a world, runs the full Section-4 curation methodology, and writes
the privacy-preserving dataset release::

    python -m repro.dataset --out dataset.csv --scale 0.1 \
        --cities new-orleans wichita

A ``warm`` subcommand prefetches the on-disk query cache for the
thirty-city paper-scale configuration (the one ``python -m
repro.experiments`` curates), so every later reproduction loads its
shards from disk instead of replaying a single BQT query::

    python -m repro.dataset warm --cache-dir ~/.cache/repro

A ``worker`` subcommand serves curation shard specs to a remote-backend
coordinator (see :mod:`repro.dataset.worker`), and ``cache ls`` prints a
store root's manifest — entries in LRU order plus recorded shard costs::

    python -m repro.dataset worker --port 7071 --width 4 &
    python -m repro.dataset --backend remote --remote-workers 127.0.0.1:7071
    python -m repro.dataset cache ls --cache-dir ~/.cache/repro

A ``serve`` subcommand runs the online serving tier: an HTTP query API
over the two-tier cache with PCN-style admission control (see
:mod:`repro.serve`)::

    python -m repro.dataset serve --port 7300 --cities wichita \\
        --cache-dir ~/.cache/repro --rate 20 --slo-ms 500
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from ..exec.base import build_executor
from ..exec.store import build_result_cache
from ..world import WorldConfig, build_world
from .cli import (
    add_backend_arguments,
    add_scheduling_arguments,
    print_cpu_profile,
    print_run_summary,
    render_store_table,
    settings_from_args,
)
from .curation import CurationConfig, CurationPipeline
from .io import write_dataset_csv
from .sampling import SamplingConfig


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "warm":
        return warm_main(argv[1:])
    if argv and argv[0] == "worker":
        from .worker import worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "serve":
        # Imported lazily: the serving tier pulls admission machinery
        # the batch CLI never needs.
        from ..serve.cli import serve_main

        return serve_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.dataset",
        description="Curate a broadband-plans dataset and write the "
                    "release CSV.  (See also: the 'warm' subcommand, "
                    "which prefetches the disk cache for the paper-scale "
                    "experiment configuration.)",
    )
    parser.add_argument("--out", type=Path, default=Path("broadband_plans.csv"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="block-group scale factor (1.0 = paper scale)")
    parser.add_argument("--cities", nargs="*", default=None)
    parser.add_argument("--isps", nargs="*", default=None)
    parser.add_argument("--fraction", type=float, default=0.10,
                        help="per-block-group sampling fraction (paper: 0.10)")
    parser.add_argument("--min-samples", type=int, default=30,
                        help="per-block-group sample floor (paper: 30)")
    parser.add_argument("--workers", type=int, default=50,
                        help="BQT container-fleet size (paper: 50-100)")
    add_backend_arguments(parser)
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="on-disk query-result cache root (default: "
                             "REPRO_CACHE_DIR; unset = memory-only cache)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="LRU-evict the disk cache down to this many "
                             "bytes (default: REPRO_CACHE_MAX_BYTES or "
                             "unbounded)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the query-result cache entirely "
                             "(every shard is replayed)")
    parser.add_argument("--profile-cpu", action="store_true",
                        help="run the curation under cProfile and print "
                             "the top functions by cumulative time plus "
                             "hot-path memo cache counters")
    add_scheduling_arguments(parser)
    args = parser.parse_args(argv)
    settings = settings_from_args(args)

    started = time.time()
    world = build_world(
        WorldConfig(
            seed=args.seed,
            scale=args.scale,
            cities=tuple(args.cities) if args.cities else None,
        )
    )
    print(f"world built in {time.time() - started:.0f}s "
          f"({len(world.cities)} cities)", flush=True)

    cache = build_result_cache(
        settings.cache_dir, settings.cache_max_bytes, enabled=not args.no_cache
    )
    pipeline = CurationPipeline(
        world,
        CurationConfig(
            sampling=SamplingConfig(
                fraction=args.fraction, min_samples=args.min_samples
            ),
            n_workers=args.workers,
        ),
        executor=build_executor(settings),
        cache=cache,
        schedule=settings.schedule,
        chunk_tasks=settings.chunk_tasks,
    )
    started = time.time()
    profiler = None
    if args.profile_cpu:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    dataset = pipeline.curate(
        isps=tuple(args.isps) if args.isps else None
    )
    if profiler is not None:
        profiler.disable()
    counts = dataset.summary_counts()
    print(f"curated {counts['observations']} observations "
          f"({counts['addresses']} addresses, {counts['block_groups']} block "
          f"groups) in {time.time() - started:.0f}s "
          f"(index build {pipeline.last_run.index_build_s:.2f}s)")
    print_run_summary(pipeline, args.profile_shards)
    if profiler is not None:
        print_cpu_profile(profiler)

    rows = write_dataset_csv(dataset, args.out)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def warm_main(argv: list[str]) -> int:
    """``python -m repro.dataset warm``: prefetch the paper-scale cache.

    Curates exactly the configuration the experiment context uses —
    thirty cities, 10% stratified sampling, the env-tunable scale and
    sample floor — through an on-disk cache, so the next ``python -m
    repro.experiments`` (or CI warm pass) loads every shard from disk and
    replays zero queries.  Observed shard costs land in the manifest as a
    bonus: the warming run itself seeds the scheduler's cost model.
    """
    # Imported here: repro.experiments pulls the analysis stack, which the
    # plain curation CLI does not need.
    from ..experiments.context import paper_curation_config

    parser = argparse.ArgumentParser(
        prog="python -m repro.dataset warm",
        description="Pre-populate the on-disk query cache for the "
                    "paper-scale experiment configuration.",
    )
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="on-disk cache root to warm (default: "
                             "REPRO_CACHE_DIR; required one way or the "
                             "other)")
    parser.add_argument("--cache-max-bytes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=None,
                        help="block-group scale factor (default: "
                             "REPRO_BENCH_SCALE or 0.12 — the experiment "
                             "context's own default; 1.0 = paper scale)")
    parser.add_argument("--min-samples", type=int, default=None,
                        help="per-block-group sample floor (default: "
                             "REPRO_BENCH_MIN_SAMPLES or the context "
                             "default)")
    parser.add_argument("--cities", nargs="*", default=None,
                        help="restrict warming to specific cities "
                             "(default: all thirty)")
    parser.add_argument("--workers", type=int, default=50,
                        help="BQT fleet size per shard (default 50 — the "
                             "value the experiment context hardcodes).  "
                             "Fleet size is part of every shard's cache "
                             "key: warming with a different value "
                             "populates keys the experiments CLI will "
                             "never look up")
    add_backend_arguments(parser)
    add_scheduling_arguments(parser)
    args = parser.parse_args(argv)
    settings = settings_from_args(args)

    if settings.cache_dir is None:
        parser.error("warm needs an on-disk cache: pass --cache-dir or "
                     "set REPRO_CACHE_DIR")
    cache = build_result_cache(settings.cache_dir, settings.cache_max_bytes)

    scale = args.scale if args.scale is not None else settings.bench_scale
    started = time.time()
    world = build_world(
        WorldConfig(
            seed=args.seed,
            scale=scale,
            cities=tuple(args.cities) if args.cities else None,
        )
    )
    print(f"world built in {time.time() - started:.0f}s "
          f"({len(world.cities)} cities, scale {scale})", flush=True)

    # One shared constructor with get_context, so the warmed cache keys
    # are exactly the ones the experiments CLI will look up.
    config = paper_curation_config(
        args.min_samples
        if args.min_samples is not None
        else settings.bench_min_samples
    )
    if args.workers != config.n_workers:
        print(f"warning: --workers {args.workers} changes the shard cache "
              f"keys; `python -m repro.experiments` curates with "
              f"{config.n_workers} workers and will not reuse this warm "
              "cache", flush=True)
        config = replace(config, n_workers=args.workers)
    pipeline = CurationPipeline(
        world,
        config,
        executor=build_executor(settings),
        cache=cache,
        schedule=settings.schedule,
        chunk_tasks=settings.chunk_tasks,
    )
    started = time.time()
    dataset = pipeline.curate()
    run = pipeline.last_run
    print(f"warmed {run.total_shards} shards "
          f"({len(dataset)} observations) in {time.time() - started:.0f}s: "
          f"{run.executed_shards} executed, {run.cached_shards} already "
          f"cached ({run.disk_shards} from disk)")
    print_run_summary(pipeline, args.profile_shards)
    store = cache.store
    print(f"store: {len(store)} shard entries, {store.total_bytes()} bytes, "
          f"{len(store.cost_records())} cost records at {store.root}")
    return 0


def cache_main(argv: list[str]) -> int:
    """``python -m repro.dataset cache ls``: inspect a store root.

    Prints the manifest — shard entries in LRU order with their (city,
    ISP, seed, scale, config digest) identities, sizes, and recorded
    cost rows — without touching a byte of entry content.  This is what a
    worker would ship for each cached shard, so operators can audit a
    shared cache root (or a worker's ``--cache-dir``) at a glance.
    """
    from ..exec.store import DiskShardStore

    parser = argparse.ArgumentParser(
        prog="python -m repro.dataset cache",
        description="Inspect an on-disk query-cache root.",
    )
    parser.add_argument("action", choices=("ls",),
                        help="ls: print the manifest (entries in LRU "
                             "order, bytes, cost records)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="store root to inspect (default: "
                             "REPRO_CACHE_DIR)")
    args = parser.parse_args(argv)

    root = settings_from_args(args).cache_dir
    if root is None:
        parser.error("cache ls needs a store root: pass --cache-dir or "
                     "set REPRO_CACHE_DIR")
    if not Path(root).exists():
        parser.error(f"no store at {root}")
    store = DiskShardStore(root)
    print(f"store root: {store.root}")
    print(render_store_table(store))
    return 0


if __name__ == "__main__":
    sys.exit(main())
