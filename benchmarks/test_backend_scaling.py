"""Bench E-X2: execution backends on a paced curation (and dataset parity).

Unpaced, curation runs at CPU speed on virtual clocks, so parallel
backends cannot beat a serial loop on one core — the parallelism the
paper exploits (Section 4.1: 50-200 containers) only pays when queries
*block*.  This bench reproduces that regime at the layer that does the
parallel work: one (city, ISP) shard curated with ``pacing_time_scale``
set, so every request blocks for its scaled virtual latency, split
``chunk_tasks="auto"`` by the executor width and run on the serial,
thread and process backends.  The parallel backends must win on
wall-clock while producing the byte-identical dataset.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import pytest

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.exec import ProcessPoolBackend, SerialExecutor, ThreadPoolBackend
from repro.world import WorldConfig, build_world

CITY = "new-orleans"
ISP = "cox"
N_WORKERS = 25  # enough exit IPs that no worker trips the rate limiter
POOL_WIDTH = 8
PACING = 8e-5  # a 40 s page render becomes a 3.2 ms real block

CONFIG = CurationConfig(
    sampling=SamplingConfig(0.1, 10),
    n_workers=N_WORKERS,
    politeness_seconds=0.0,
    pacing_time_scale=PACING,
)

OUTPUT_PATH = Path(__file__).parent / "output" / "exec_backends.txt"


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig(seed=42, scale=0.05, cities=(CITY,)))


def _timed_run(world, executor):
    pipeline = CurationPipeline(world, CONFIG, executor=executor, chunk_tasks="auto")
    # Pay the collector's debt before the clock starts.  Late in a full
    # test session the process holds ~0.5M tracked objects, and a full
    # collection over them (~0.3 s) otherwise lands in whichever run
    # crosses its threshold, charged to that backend.
    gc.collect()
    started = time.monotonic()
    dataset = pipeline.curate(isps=(ISP,))
    return time.monotonic() - started, dataset, pipeline.last_run


def test_exec_backends_scaling(world):
    runs = {
        "serial": _timed_run(world, SerialExecutor()),
        "thread": _timed_run(world, ThreadPoolBackend(max_workers=POOL_WIDTH)),
        "process": _timed_run(world, ProcessPoolBackend(max_workers=POOL_WIDTH)),
    }
    serial_s = runs["serial"][0]

    lines = [
        "Bench E-X2: execution backends, one paced curation shard",
        f"shard={CITY}/{ISP} tasks={len(runs['serial'][1])} "
        f"fleet_workers={N_WORKERS} pool_width={POOL_WIDTH} pacing={PACING}",
        f"{'backend':10s}{'units':>7s}{'wall_s':>9s}{'vs serial':>11s}",
    ] + [
        f"{name:10s}{run.dispatched_units:>7d}{wall_s:>9.2f}"
        f"{serial_s / wall_s:>10.1f}x"
        for name, (wall_s, _dataset, run) in runs.items()
    ]
    report_text = "\n".join(lines)
    print("\n" + report_text)
    OUTPUT_PATH.write_text(report_text + "\n")

    # Same shard, same seeds: the datasets are byte-identical everywhere.
    digests = {name: dataset.content_digest() for name, (_, dataset, _) in runs.items()}
    assert len(set(digests.values())) == 1, digests

    # Parallelism must pay on wall-clock (observed ~3-5x on two cores;
    # the 25% floor keeps the assertion robust on loaded CI machines).
    assert runs["thread"][0] < serial_s * 0.75, (runs["thread"][0], serial_s)
    assert runs["process"][0] < serial_s * 0.75, (runs["process"][0], serial_s)
