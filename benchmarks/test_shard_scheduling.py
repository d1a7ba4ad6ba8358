"""Bench E-X4: straggler-aware shard scheduling under realistic pacing.

The paper's Section 4.1 scaling result assumes the container fleet stays
busy to the end of the run.  PR 3's curation layer dispatched whole
(city, ISP) shards in enumeration order, so a single outsized shard — a
Spectrum deployment covering a big city — could land on a busy pool late
and serialize the whole tail.  This bench reproduces that regime
faithfully and measures the fix:

* **Regime**: shards run with ``pacing_time_scale`` set, so every request
  *blocks* for its scaled virtual latency — wall time tracks BAT render
  time, exactly as the paper's fleet experienced it (Spectrum's ~109 s
  virtual medians are ~2.3x Frontier's), rather than CPU speed.  The
  dataset is byte-identical at any pacing; only real time changes.
* **Workload**: a Spectrum-weighted straggler mix — six small cities plus
  Los Angeles restricted to its Spectrum shard, which alone is ~58% of
  all sampled addresses and sits *last* in enumeration order (the
  adversarial case unordered dispatch cannot avoid).
* **Baseline**: PR 3 behavior — ``schedule="fifo"``, no chunking — on a
  four-wide thread pool.
* **Contender**: the scheduler — LPT ordering by politeness x tasks
  (``shard_price``) plus ``chunk_tasks="auto"`` sub-shard chunking — on
  the *same* pool.

The contender must win >= 1.5x on wall clock while producing the
byte-identical dataset (digest-checked here, and at test granularity in
``tests/test_shard_scheduler.py``).  Alongside the text report the bench
writes machine-readable ``BENCH_shard_scheduling.json``, uploaded by CI
as a perf trajectory artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.exec import ThreadPoolBackend
from repro.world import WorldConfig, build_world

# Small cities first, the Spectrum straggler last: unordered whole-shard
# dispatch starts it when the pool is already drained of other work.
CITIES = (
    "santa-barbara",
    "fort-wayne",
    "durham",
    "virginia-beach-city",
    "billings",
    "fargo",
    "los-angeles",
)
# Keeps exactly one (big) Los Angeles shard: AT&T is filtered out, so the
# city contributes only its Spectrum deployment.
ISPS = ("spectrum", "cox", "frontier", "centurylink")

POOL_WIDTH = 4
SEED = 7
SCALE = 0.06
PACING = 8e-5  # a 100 s Spectrum page render becomes an 8 ms real block

CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.10, min_samples=6),
    n_workers=20,
    pacing_time_scale=PACING,
)

OUTPUT_DIR = Path(__file__).parent / "output"
TEXT_PATH = OUTPUT_DIR / "shard_scheduling.txt"
JSON_PATH = OUTPUT_DIR / "BENCH_shard_scheduling.json"


@pytest.fixture(scope="module")
def straggler_world():
    return build_world(WorldConfig(seed=SEED, scale=SCALE, cities=CITIES))


def _timed_run(world, schedule, chunk_tasks):
    pipeline = CurationPipeline(
        world,
        CONFIG,
        executor=ThreadPoolBackend(max_workers=POOL_WIDTH),
        schedule=schedule,
        chunk_tasks=chunk_tasks,
    )
    started = time.monotonic()
    dataset = pipeline.curate(isps=ISPS)
    return time.monotonic() - started, dataset, pipeline.last_run


@pytest.mark.slow
def test_shard_scheduling_speedup(straggler_world):
    unscheduled_s, unscheduled, base_run = _timed_run(
        straggler_world, schedule="fifo", chunk_tasks=None
    )
    scheduled_s, scheduled, sched_run = _timed_run(
        straggler_world, schedule="lpt", chunk_tasks="auto"
    )

    # Scheduling is byte-transparent: same digest, same record order.
    assert scheduled.content_digest() == unscheduled.content_digest()

    timings = {(t.city, t.isp): t for t in sched_run.shard_timings}
    straggler = max(sched_run.shard_timings, key=lambda t: t.tasks)
    total_tasks = sum(t.tasks for t in sched_run.shard_timings)
    speedup = unscheduled_s / scheduled_s

    lines = [
        "Bench E-X4: straggler-aware shard scheduling, "
        f"{POOL_WIDTH}-wide thread pool, pacing={PACING}",
        f"cities={len(CITIES)} shards={base_run.executed_shards} "
        f"tasks={total_tasks} straggler={straggler.city}/{straggler.isp} "
        f"({straggler.tasks} tasks, "
        f"{100 * straggler.tasks / total_tasks:.0f}% of the workload)",
        f"{'dispatch':24s}{'units':>7s}{'wall_s':>9s}{'vs fifo':>9s}",
        f"{'fifo whole-shard (PR 3)':24s}{base_run.dispatched_units:>7d}"
        f"{unscheduled_s:>9.2f}{1.0:>8.1f}x",
        f"{'lpt + auto chunks':24s}{sched_run.dispatched_units:>7d}"
        f"{scheduled_s:>9.2f}{speedup:>8.1f}x",
        f"straggler ran as {timings[(straggler.city, straggler.isp)].chunks} "
        f"chunks under lpt (1 chunk under fifo)",
    ]
    report_text = "\n".join(lines)
    print("\n" + report_text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    TEXT_PATH.write_text(report_text + "\n")
    JSON_PATH.write_text(
        json.dumps(
            {
                "bench": "shard_scheduling",
                "backend": "thread",
                "pool_width": POOL_WIDTH,
                "seed": SEED,
                "scale": SCALE,
                "pacing_time_scale": PACING,
                "shards": base_run.executed_shards,
                "tasks_total": total_tasks,
                "straggler": {
                    "city": straggler.city,
                    "isp": straggler.isp,
                    "tasks": straggler.tasks,
                    "chunks_scheduled": timings[
                        (straggler.city, straggler.isp)
                    ].chunks,
                },
                "wall_seconds": {
                    "fifo_whole_shard": round(unscheduled_s, 3),
                    "lpt_chunked": round(scheduled_s, 3),
                },
                "dispatch_units": {
                    "fifo_whole_shard": base_run.dispatched_units,
                    "lpt_chunked": sched_run.dispatched_units,
                },
                "speedup": round(speedup, 3),
                "digest_equal": True,
            },
            indent=1,
        )
        + "\n"
    )

    # The tentpole claim: scheduled + chunked dispatch clears 1.5x over
    # PR 3's unordered whole-shard dispatch at the same pool width.
    assert speedup >= 1.5, (unscheduled_s, scheduled_s)
