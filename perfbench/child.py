"""Fresh-process curation children.

``child.py sample [--trace-out F]``
    One ``curate_cold`` sample: import, build the world, then one serial
    ``CurationPipeline.curate()`` with no result cache.  Every memo starts
    cold, as in a CLI run.
``child.py fill --store DIR``
    The ``recurate_disk`` store fill: the same cold curation, through a
    ``QueryResultCache`` over a ``DiskShardStore`` at DIR, as a first CLI
    run with ``--cache-dir`` would do.

Both print one JSON line with their timings, digest and peak memory.
The process is pinned to one core (``--core``, modulo the cores there
are) and a :class:`speed.Sampler` on that core times the reference loop
every 0.2 s; each phase is reported both as measured and scaled by the
median reference time over that phase.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402
import speed  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("sample", "fill"))
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--store", default=None)
    parser.add_argument("--core", type=int, default=0)
    args = parser.parse_args(argv)

    harness.isolate_this_process()
    speed.pin_to_one_core(args.core)
    with speed.Sampler(interval=0.2) as sampler:
        tracer = None
        if args.trace_out:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)

        import inputs
        from repro.dataset.curation import CurationPipeline
        from repro.exec.cache import QueryResultCache
        from repro.exec.store import DiskShardStore
        from repro.world import build_world

        world = build_world(inputs.world_config())
        world_built = time.monotonic()
        cache = None
        if args.mode == "fill":
            cache = QueryResultCache(DiskShardStore(args.store))
        pipeline = CurationPipeline(
            world, inputs.curation_config(), executor="serial", cache=cache
        )
        dataset = pipeline.curate()
        curated = time.monotonic()

    if tracer is not None:
        tracer.dump(args.trace_out)
    setup_window = (STARTED, world_built)
    run_window = (world_built, curated)
    setup_ref = speed.window_reference(sampler.samples, [setup_window])
    run_ref = speed.window_reference(sampler.samples, [run_window])
    print(json.dumps({
        "setup_s": speed.scale(world_built - STARTED, setup_ref),
        "curate_s": speed.scale(curated - world_built, run_ref),
        "raw_setup_s": world_built - STARTED,
        "raw_curate_s": curated - world_built,
        "reference_s": [setup_ref, run_ref],
        "observations": len(dataset),
        "digest": dataset.content_digest(),
        "peak_rss_mb": harness.own_peak_rss_mb(),
        "setup_window": setup_window,
        "run_window": run_window,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
