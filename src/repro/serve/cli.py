"""``python -m repro.dataset serve``: the online query endpoint.

Builds a world, assembles the two-tier cache and an executor backend
(every backend the batch CLI accepts, including ``remote``), wraps them
in a :class:`~repro.serve.service.ServeService` behind a PCN-style
:class:`~repro.serve.admission.AdmissionController`, and serves HTTP
until interrupted::

    python -m repro.dataset serve --port 7300 --cities wichita \
        --cache-dir /tmp/serve-cache --rate 20 --slo-ms 500

The startup banner contains ``" listening on "`` and is the first line on
stdout; progress lines go to stderr.  Some launchers wait for the banner
with ``select`` on the pipe and a buffered ``readline``, where a line
written just before the banner can pull it into the reader's buffer and
out of ``select``'s sight.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from ..dataset.cli import add_backend_arguments, settings_from_args
from ..dataset.curation import CurationConfig
from ..dataset.sampling import SamplingConfig
from ..exec.base import build_executor
from ..exec.store import build_result_cache
from ..world import WorldConfig, build_world
from .admission import AdmissionConfig, AdmissionController, CircuitBreaker
from .server import DatasetServeServer
from .service import ServeService

__all__ = ["serve_main"]


def serve_main(argv: list[str]) -> int:
    """Entry point for the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.dataset serve",
        description="Serve (city, ISP) curation shards over HTTP with "
                    "PCN-style admission control: per-client/per-ISP rate "
                    "limits, request classes, pre-congestion batch "
                    "shedding with stale-from-disk fallback, per-request "
                    "deadlines, and a bounded queue with explicit "
                    "429/503 + Retry-After.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: loopback)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (default 0 = let the OS pick; "
                             "the bound address is printed on stdout)")
    # --- world / curation knobs (mirror the batch CLI) -----------------
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="block-group scale factor (1.0 = paper scale)")
    parser.add_argument("--cities", nargs="*", default=None)
    parser.add_argument("--fraction", type=float, default=0.10,
                        help="per-block-group sampling fraction")
    parser.add_argument("--min-samples", type=int, default=30,
                        help="per-block-group sample floor")
    parser.add_argument("--workers", type=int, default=50,
                        help="BQT fleet size per shard (part of the shard "
                             "cache keys — must match any warm cache)")
    add_backend_arguments(parser)
    parser.add_argument("--max-workers", type=int, default=None,
                        help="executor pool width (default: backend's own). "
                             "The thread backend builds one pool per "
                             "re-curation, so this bounds one forced "
                             "request's pool; admission's width + "
                             "--queue-depth bounds how many requests "
                             "curate at once")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="on-disk query-result cache root (default: "
                             "REPRO_CACHE_DIR; unset = memory-only cache). "
                             "The disk tier is also the stale-shard source "
                             "for graceful degradation")
    parser.add_argument("--cache-max-bytes", type=int, default=None)
    # --- admission knobs ------------------------------------------------
    parser.add_argument("--serve-width", type=int, default=None,
                        help="concurrent queries the tier executes "
                             "(default: the executor width)")
    parser.add_argument("--queue-depth", type=int, default=8,
                        help="admitted-but-waiting queries tolerated "
                             "beyond the width before 503 (default 8)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="per-client token rate, requests/second "
                             "(default 50)")
    parser.add_argument("--burst", type=float, default=None,
                        help="per-client token burst (default: rate/2)")
    parser.add_argument("--isp-rate", type=float, default=200.0,
                        help="per-ISP token rate, requests/second")
    parser.add_argument("--slo-ms", type=float, default=0.0,
                        help="default per-request deadline in milliseconds "
                             "(default 0 = none).  Queries can override "
                             "with ?deadline_ms=")
    parser.add_argument("--theta", type=float, default=0.8,
                        help="PCN virtual-queue drain fraction of real "
                             "capacity (default 0.8; the 1-theta gap is "
                             "the early-warning margin)")
    parser.add_argument("--mark-delay", type=float, default=0.5,
                        help="virtual backlog delay (s) that flips the "
                             "tier to pre-congestion (default 0.5)")
    parser.add_argument("--shed-delay", type=float, default=2.0,
                        help="virtual backlog delay (s) that flips "
                             "pre-congestion to overload (default 2.0)")
    parser.add_argument("--est-cost", type=float, default=0.05,
                        help="prior estimate of one cache-missing query's "
                             "work, seconds (default 0.05; refined at "
                             "runtime by an EWMA of observed costs).  The "
                             "contract tests pin this high to force "
                             "congestion states deterministically")
    parser.add_argument("--no-admission", action="store_true",
                        help="baseline mode: no rate limits, no shedding, "
                             "no queue bound, no deadlines.  Exists so "
                             "the load benchmarks have something to "
                             "degrade; do not run it in anger")
    parser.add_argument("--prewarm", action="store_true",
                        help="curate every (city, ISP) shard into the "
                             "cache before accepting traffic")
    parser.add_argument("--fault-profile", default=None,
                        help="chaos knob: fault-injection spec for the "
                             "serving endpoint's frames (overrides "
                             "REPRO_FAULT_PROFILE; 'off' disables)")
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
          f"({len(world.cities)} cities)", file=sys.stderr, flush=True)

    cache = build_result_cache(settings.cache_dir, settings.cache_max_bytes)
    executor = build_executor(settings, max_workers=args.max_workers)
    config = CurationConfig(
        sampling=SamplingConfig(
            fraction=args.fraction, min_samples=args.min_samples
        ),
        n_workers=args.workers,
    )

    admission = None
    if not args.no_admission:
        width = args.serve_width or max(1, executor.width)
        admission = AdmissionController(
            AdmissionConfig(
                width=width,
                queue_depth=args.queue_depth,
                theta=args.theta,
                mark_delay_s=args.mark_delay,
                shed_delay_s=args.shed_delay,
                client_rate=args.rate,
                client_burst=args.burst or max(1.0, args.rate / 2.0),
                isp_rate=args.isp_rate,
                isp_burst=max(1.0, args.isp_rate / 2.0),
                est_cost_s=args.est_cost,
            )
        )

    service = ServeService(
        world,
        config,
        cache=cache,
        executor=executor,
        admission=admission,
        breaker=CircuitBreaker(),
    )

    if args.prewarm:
        # Prewarm bypasses admission: it runs before traffic is accepted,
        # so rate-limiting it would only skip shards silently.
        from .admission import Decision

        prewarmed = 0
        warm_started = time.time()
        for city, city_world in world.cities.items():
            for isp in city_world.info.isps:
                result = service.handle(
                    city, isp, Decision(admitted=True, state="clear")
                )
                if result.status == 200:
                    prewarmed += 1
        print(f"prewarmed {prewarmed} shards in "
              f"{time.time() - warm_started:.0f}s", file=sys.stderr, flush=True)

    server = DatasetServeServer(
        service,
        host=args.host,
        port=args.port,
        default_deadline_ms=args.slo_ms or None,
        fault_profile=args.fault_profile,
    )
    server.start()
    host, port = server.address
    print(
        f"repro serve pid {os.getpid()} listening on {host}:{port} "
        f"(backend {executor.name}, "
        f"admission {'off' if admission is None else 'on'}, "
        f"cache {'disk' if cache is not None and cache.store is not None else 'memory'})",
        flush=True,
    )
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(f"repro serve pid {os.getpid()} stopped", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(serve_main(sys.argv[1:]))
