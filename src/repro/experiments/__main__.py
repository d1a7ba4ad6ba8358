"""Command-line experiment runner.

Regenerates every table and figure of the paper and writes the rendered
results under ``benchmarks/output/``::

    python -m repro.experiments [--scale 0.12] [--seed 42]
    python -m repro.experiments --only figure8_competition figure9_income
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..dataset.cli import (
    add_backend_arguments,
    add_scheduling_arguments,
    settings_from_args,
)
from . import ALL_EXPERIMENTS, get_context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="block-group scale factor (default: env or 0.12)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--min-samples", type=int, default=None,
                        help="per-block-group sample floor (paper: 30)")
    parser.add_argument("--cities", nargs="*", default=None,
                        help="restrict to specific cities")
    add_backend_arguments(parser)
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="on-disk query-result cache root (default: "
                             "REPRO_CACHE_DIR; unset = memory-only cache). "
                             "A warm cache makes repeat reproductions skip "
                             "curation entirely.")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the query-result cache entirely")
    parser.add_argument("--only", nargs="*", default=None,
                        help="experiment ids to run (default: all)")
    parser.add_argument("--output", type=Path,
                        default=Path("benchmarks/output"))
    add_scheduling_arguments(parser)
    args = parser.parse_args(argv)
    settings = settings_from_args(args)

    names = args.only if args.only else sorted(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown} "
                     f"(available: {sorted(ALL_EXPERIMENTS)})")

    print("building world and curating dataset "
          "(this is the expensive step) ...", flush=True)
    started = time.time()
    context = get_context(
        scale=args.scale,
        seed=args.seed,
        min_samples=args.min_samples,
        cities=tuple(args.cities) if args.cities else None,
        settings=settings,
        use_cache=not args.no_cache,
    )
    print(f"context ready in {time.time() - started:.0f}s: "
          f"{len(context.dataset)} observations\n")
    if args.profile_shards:
        from ..dataset.cli import render_shard_table
        from .context import last_curation_report

        report = last_curation_report()
        if report is not None:
            print(render_shard_table(report))
            print()

    for name in names:
        result = ALL_EXPERIMENTS[name](context)
        print(result.render())
        print()
        result.write(args.output)
    print(f"results written to {args.output}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
