"""Bench E-X5: distributed curation over loopback workers vs one process.

The remote backend's pitch is that shard throughput should scale with
*total fleet width*, not with one process's pool.  This bench pins that
on the same paced straggler workload as Bench E-X4:

* **Regime**: ``pacing_time_scale`` makes every request block for its
  scaled virtual latency, so shard wall time tracks BAT render time —
  the regime the paper's container fleet ran in — rather than CPU speed.
* **Workload**: the Spectrum-weighted straggler mix (six small cities
  plus Los Angeles restricted to Spectrum, ~58% of sampled addresses in
  one shard), scheduled LPT with ``auto`` chunking on both sides so the
  *only* variable is where dispatch units execute.
* **Baseline**: the best single-process configuration from E-X4 — a
  four-wide thread pool.
* **Contender**: ``DistributedExecutor`` over two loopback
  ``python -m repro.dataset worker`` processes, four connections each
  (total fleet width 8).

Both sides get one untimed warm-up pass (city ground truth + task-sample
memos; no query-result caching anywhere), mirroring a long-running
fleet's steady state.  The contender must clear >= 1.5x on wall clock
while producing the byte-identical dataset.  Machine-readable results go
to ``BENCH_distributed.json``, uploaded by the ``distributed-backend``
CI job as a perf trajectory artifact.

**Bench E-X7 (elasticity)** rides in the same file and JSON: the same
paced regime on one chunked Los Angeles/Spectrum shard, run through the
*elastic* backend twice — once degraded (a worker crashes mid-bench and
nothing replaces it) and once healed (same crash, but a fresh worker is
hot-added the moment the victim dies).  Both runs must complete with the
thread baseline's byte-identical digest, and the healed fleet must beat
the degraded one by a clear margin: the hot-added worker genuinely
shares load mid-run, it does not just register.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.exec import (
    DistributedExecutor,
    ThreadPoolBackend,
    local_worker_pool,
    start_local_worker,
    stop_local_worker,
)
from repro.exec.membership import FleetCoordinator
from repro.exec.remote import _await_worker_banner
from repro.world import WorldConfig, build_world

CITIES = (
    "santa-barbara",
    "fort-wayne",
    "durham",
    "virginia-beach-city",
    "billings",
    "fargo",
    "los-angeles",
)
ISPS = ("spectrum", "cox", "frontier", "centurylink")

THREAD_WIDTH = 4
N_WORKERS = 2
WORKER_WIDTH = 4
SEED = 7
SCALE = 0.06
# Heavier pacing than E-X4: the point here is fleet-width scaling of the
# *paced* (I/O-shaped) portion, which must dominate CPU-bound replay for
# the comparison to measure dispatch rather than the host's core count —
# a 100 s Spectrum page render becomes a 50 ms real block.
PACING = 5e-4

_SAMPLING = SamplingConfig(fraction=0.10, min_samples=6)
CONFIG = CurationConfig(
    sampling=_SAMPLING, n_workers=20, pacing_time_scale=PACING,
)
# Pacing-free twin for warm-up passes: identical worlds, samples, and
# memo keys, none of the deliberate blocking.
WARM_CONFIG = CurationConfig(
    sampling=_SAMPLING, n_workers=20, pacing_time_scale=0.0,
)

OUTPUT_DIR = Path(__file__).parent / "output"
TEXT_PATH = OUTPUT_DIR / "distributed_scaling.txt"
JSON_PATH = OUTPUT_DIR / "BENCH_distributed.json"


@pytest.fixture(scope="module")
def straggler_world():
    return build_world(WorldConfig(seed=SEED, scale=SCALE, cities=CITIES))


def _timed_run(world, executor, config=CONFIG, isps=ISPS):
    pipeline = CurationPipeline(
        world, config, executor=executor, schedule="lpt", chunk_tasks="auto"
    )
    started = time.monotonic()
    dataset = pipeline.curate(isps=isps)
    return time.monotonic() - started, dataset, pipeline.last_run


@pytest.mark.slow
def test_distributed_scaling_speedup(straggler_world):
    # Warm-up (unpaced) + timed pass on the thread baseline.
    _timed_run(
        straggler_world, ThreadPoolBackend(max_workers=THREAD_WIDTH),
        config=WARM_CONFIG,
    )
    thread_s, thread_dataset, thread_run = _timed_run(
        straggler_world, ThreadPoolBackend(max_workers=THREAD_WIDTH)
    )

    with local_worker_pool(count=N_WORKERS, width=WORKER_WIDTH) as addresses:
        executor = DistributedExecutor(workers=addresses)
        assert executor.width == N_WORKERS * WORKER_WIDTH
        # Warm-up (unpaced): workers build the seven cities and their
        # task samples once; a steady-state fleet has long since paid
        # this, and pacing adds nothing to memo warmth.
        _timed_run(straggler_world, executor, config=WARM_CONFIG)
        remote_s, remote_dataset, remote_run = _timed_run(
            straggler_world, executor
        )

    assert remote_dataset.content_digest() == thread_dataset.content_digest()
    speedup = thread_s / remote_s
    total_tasks = sum(t.tasks for t in remote_run.shard_timings)

    lines = [
        "Bench E-X5: distributed curation, "
        f"{N_WORKERS} loopback workers x width {WORKER_WIDTH} vs "
        f"{THREAD_WIDTH}-wide thread pool, pacing={PACING}",
        f"cities={len(CITIES)} shards={remote_run.executed_shards} "
        f"tasks={total_tasks} dispatch=lpt+auto-chunks on both sides",
        f"{'backend':32s}{'width':>7s}{'units':>7s}{'wall_s':>9s}"
        f"{'vs thread':>11s}",
        f"{'thread (single process)':32s}{THREAD_WIDTH:>7d}"
        f"{thread_run.dispatched_units:>7d}{thread_s:>9.2f}{1.0:>10.1f}x",
        f"{'remote (2 worker processes)':32s}"
        f"{N_WORKERS * WORKER_WIDTH:>7d}"
        f"{remote_run.dispatched_units:>7d}{remote_s:>9.2f}"
        f"{speedup:>10.1f}x",
    ]
    report_text = "\n".join(lines)
    print("\n" + report_text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    TEXT_PATH.write_text(report_text + "\n")
    _merge_bench_json(
        {
            "bench": "distributed_scaling",
            "seed": SEED,
            "scale": SCALE,
            "pacing_time_scale": PACING,
            "shards": remote_run.executed_shards,
            "tasks_total": total_tasks,
            "thread": {
                "width": THREAD_WIDTH,
                "wall_seconds": round(thread_s, 3),
                "dispatch_units": thread_run.dispatched_units,
            },
            "remote": {
                "workers": N_WORKERS,
                "width_per_worker": WORKER_WIDTH,
                "wall_seconds": round(remote_s, 3),
                "dispatch_units": remote_run.dispatched_units,
            },
            "speedup": round(speedup, 3),
            "digest_equal": True,
        }
    )

    # The tentpole claim: doubling fleet width across process boundaries
    # clears 1.5x over the best single-process backend at width 4.
    assert speedup >= 1.5, (thread_s, remote_s)


def _merge_bench_json(fields: dict) -> None:
    """Fold ``fields`` into ``BENCH_distributed.json`` without clobbering
    sections other tests in this file wrote (the static-scaling numbers
    and the elasticity scenario land in one artifact)."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    existing: dict = {}
    if JSON_PATH.exists():
        try:
            existing = json.loads(JSON_PATH.read_text())
        except (json.JSONDecodeError, ValueError):
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing.update(fields)
    existing.setdefault("bench", "distributed_scaling")
    JSON_PATH.write_text(json.dumps(existing, indent=1) + "\n")


# ----------------------------------------------------------------------
# Bench E-X7: elasticity — kill and hot-add workers mid-bench
# ----------------------------------------------------------------------
ELASTIC_CITY = ("los-angeles",)
ELASTIC_ISPS = ("spectrum",)
ELASTIC_CONFIG = CurationConfig(
    sampling=_SAMPLING, n_workers=20, pacing_time_scale=PACING,
)
CRASH_AFTER = 2  # the victim answers 2 of ~16 chunks, then dies hard


@pytest.fixture(scope="module")
def la_world():
    return build_world(WorldConfig(seed=SEED, scale=SCALE, cities=ELASTIC_CITY))


def _elastic_scenario(world, heal: bool) -> tuple[float, object]:
    """One elastic run: two workers, one crashes mid-bench; with
    ``heal`` a replacement is hot-added the moment the victim exits.
    Returns (wall_seconds, dataset)."""
    coordinator = FleetCoordinator(
        port=0, heartbeat_interval=0.1, suspect_misses=3, dead_after=1.0
    ).start()
    host, port = coordinator.address
    join = ["--join", f"{host}:{port}"]
    doomed = start_local_worker(
        width=WORKER_WIDTH,
        extra_args=join + ["--crash-after", str(CRASH_AFTER)],
    )
    steady = start_local_worker(width=WORKER_WIDTH, extra_args=join)
    added: list = []

    def hot_add_on_death():
        doomed.wait()  # react to the crash, not a fixed delay
        proc = start_local_worker(width=WORKER_WIDTH, extra_args=join)
        added.append(proc)

    healer = threading.Thread(target=hot_add_on_death, daemon=True)
    try:
        for proc in (doomed, steady):
            _await_worker_banner(proc, 60.0)
        directory = coordinator.directory
        deadline = time.monotonic() + 30.0
        while (
            len(directory.dispatchable_workers()) < 2
            and time.monotonic() < deadline
        ):
            directory.wait_for_change(directory.version, timeout=0.2)
        executor = DistributedExecutor(coordinator=coordinator)
        if heal:
            healer.start()
        wall, dataset, _run = _timed_run(
            world, executor, config=ELASTIC_CONFIG, isps=ELASTIC_ISPS
        )
        if heal:
            healer.join(timeout=60.0)
        return wall, dataset
    finally:
        stop_local_worker(doomed)
        stop_local_worker(steady)
        for proc in added:
            stop_local_worker(proc)
        coordinator.stop()


@pytest.mark.slow
def test_elasticity_kill_and_hot_add_mid_bench(la_world):
    # Reference digest + baseline: the four-wide thread pool on the same
    # chunked single-shard workload (warmed like E-X5).
    _timed_run(
        la_world, ThreadPoolBackend(max_workers=THREAD_WIDTH),
        config=WARM_CONFIG,
    )
    pipeline = CurationPipeline(
        la_world, ELASTIC_CONFIG,
        executor=ThreadPoolBackend(max_workers=THREAD_WIDTH),
        schedule="lpt", chunk_tasks="auto",
    )
    started = time.monotonic()
    thread_dataset = pipeline.curate(isps=ELASTIC_ISPS)
    thread_s = time.monotonic() - started

    degraded_s, degraded_dataset = _elastic_scenario(la_world, heal=False)
    healed_s, healed_dataset = _elastic_scenario(la_world, heal=True)

    reference = thread_dataset.content_digest()
    assert degraded_dataset.content_digest() == reference
    assert healed_dataset.content_digest() == reference
    heal_speedup = degraded_s / healed_s

    lines = [
        "Bench E-X7: elasticity — worker crashes mid-bench "
        f"(--crash-after {CRASH_AFTER}), hot-add on death, "
        f"pacing={PACING}",
        f"{'scenario':34s}{'fleet':>14s}{'wall_s':>9s}",
        f"{'thread baseline':34s}{'1x' + str(THREAD_WIDTH):>14s}"
        f"{thread_s:>9.2f}",
        f"{'degraded (crash, no heal)':34s}{'2x4 -> 1x4':>14s}"
        f"{degraded_s:>9.2f}",
        f"{'healed (crash + hot-add)':34s}{'2x4 -> 2x4':>14s}"
        f"{healed_s:>9.2f}",
        f"hot-add speedup over degraded: {heal_speedup:.2f}x "
        "(digests byte-identical everywhere)",
    ]
    report_text = "\n".join(lines)
    print("\n" + report_text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    with TEXT_PATH.open("a") as handle:
        handle.write("\n" + report_text + "\n")
    _merge_bench_json(
        {
            "elasticity": {
                "city": ELASTIC_CITY[0],
                "isp": ELASTIC_ISPS[0],
                "pacing_time_scale": PACING,
                "crash_after_units": CRASH_AFTER,
                "thread_wall_seconds": round(thread_s, 3),
                "degraded_wall_seconds": round(degraded_s, 3),
                "healed_wall_seconds": round(healed_s, 3),
                "heal_speedup": round(heal_speedup, 3),
                "digest_equal": True,
            }
        }
    )

    # The elasticity claim: a worker hot-added mid-run genuinely shares
    # load — the healed fleet clearly beats the degraded one.  (Perfect
    # linearity would be ~2x; the hot joiner pays a cold city-memo
    # build, so the bar is deliberately conservative for CI runners.)
    assert heal_speedup >= 1.15, (degraded_s, healed_s)
