"""The two batch workloads: ``curate_cold`` and ``recurate_disk``."""

from __future__ import annotations

import gc
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import harness
import inputs
import spans
import speed
from percentiles import tail, throughput
from report import NEVER_MS, Outcome


def _rate(latencies: list[float]) -> float:
    return throughput([(inputs.OBSERVATIONS, latencies)]) if latencies else 0.0


def _latency_metrics(outcome: Outcome, p50_of: list[float], tail_of: list[float]) -> None:
    """``p50_ms`` and ``tail_ms`` of the operations that succeeded."""
    if not p50_of or not tail_of:
        outcome.metrics.update(p50_ms=NEVER_MS, tail_ms=NEVER_MS)
        return
    value, outcome.notes["tail"] = tail(tail_of)
    outcome.metrics.update(p50_ms=median(p50_of) * 1000.0, tail_ms=value * 1000.0)


# ----------------------------------------------------------------------
# curate_cold
# ----------------------------------------------------------------------


def _sample(outcome: Outcome, tmp: Path, core: int, traced: bool = False) -> dict | None:
    """One fresh-process cold curation on ``core``; None when it failed."""
    args = ["sample", "--core", str(core)]
    if traced:
        args += ["--trace-out", str(tmp / "sample-spans.json")]
    try:
        sample = harness.run_json_child(harness.python_child("child.py", *args), timeout=150)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        outcome.check(False, f"cold curation: {exc}")
        return None
    ok = outcome.check(
        sample["digest"] == inputs.DATASET_DIGEST
        and sample["observations"] == inputs.OBSERVATIONS,
        f"cold curation digest {sample['digest'][:12]} ({sample['observations']} obs)",
    )
    return sample if ok else None


def curate_cold(seed: int, seconds: int, tmp: Path, trace: bool) -> Outcome:
    """Fresh-process cold curations, back to back for ``seconds``.

    Each sample process imports, builds the world (its set-up) and runs
    one serial ``curate()`` with no result cache, pinned to one core, the
    cores taken in turn.  Times are scaled to the host's uncontended speed
    (:mod:`speed`).  Traced: one untraced sample, then one traced sample,
    for the overhead.
    """
    del seed  # the world is fixed; nothing else to generate
    outcome = Outcome()
    if trace:
        plain = _sample(outcome, tmp, 0)
        traced = _sample(outcome, tmp, 0, traced=True)
        if plain is None or traced is None:
            raise RuntimeError("; ".join(outcome.problems))
        outcome.metrics = spans.summarize(
            spans.load_spans(tmp / "sample-spans.json"),
            [traced["run_window"]], [traced["setup_window"]],
        )
        outcome.metrics.update(spans.idle_loadgen())
        outcome.metrics["trace.overhead_frac"] = traced["curate_s"] / plain["curate_s"] - 1.0
        outcome.samples = {"untraced": [plain], "traced": [traced]}
        return outcome

    samples = []
    started = time.monotonic()
    while not outcome.attempted or time.monotonic() - started < seconds:
        sample = _sample(outcome, tmp, outcome.attempted)
        if sample is not None:
            samples.append(sample)
    curate_s = [s["curate_s"] for s in samples]
    outcome.metrics = {
        "setup_s": median([s["setup_s"] for s in samples]) if samples else NEVER_MS,
        "peak_rss_mb": max((s["peak_rss_mb"] for s in samples), default=0.0),
        "obs_per_s": _rate(curate_s),
        "replay_obs_per_s": _rate(curate_s),
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
    }
    _latency_metrics(outcome, curate_s, curate_s)
    outcome.notes["samples"] = len(samples)
    outcome.samples = {"curations": samples}
    return outcome


# ----------------------------------------------------------------------
# recurate_disk
# ----------------------------------------------------------------------

#: Set-ups per run: each fills a fresh store and rebuilds the world.
RECURATE_ROUNDS = 2


@dataclass
class _Round:
    """What one set-up and its timed passes measured."""

    setup_window: tuple[float, float]
    #: Set-up time scaled to the uncontended speed: the slower of the
    #: world build here and the store fill in the child.
    setup_s: float
    #: ``(start, end)`` of every timed pass.
    run_windows: list[tuple[float, float]] = field(default_factory=list)
    #: Scaled pass times, seconds.
    warm: list[float] = field(default_factory=list)
    incremental: list[float] = field(default_factory=list)

    def cost(self) -> float:
        """Median warm pass plus median incremental pass, seconds."""
        return median(self.warm) + median(self.incremental)


class _Recurator:
    """Checked re-curations of one world against one disk store."""

    def __init__(self, world, store_dir: Path, outcome: Outcome) -> None:
        self.world = world
        self.store_dir = store_dir
        self.outcome = outcome
        self.config = inputs.curation_config()
        self.base_shards: dict[tuple[str, str], list] = {}
        #: ``(time, seconds)`` reference loops run between passes.
        self.references: list[tuple[float, float]] = []

    def scaled(self, window: tuple[float, float]) -> float:
        """A pass's time scaled by the reference loops within a second of it."""
        reference = speed.window_reference(self.references, [window], margin=1.0)
        return speed.scale(window[1] - window[0], reference)

    def curate(self, config):
        """One re-curation with a fresh store handle and result cache.

        Returns ``((start, end), dataset)``, or None when it raised.
        Timed from opening the store (manifest read) to the dataset, as a
        re-run of the CLI would pay it.  The heap is collected first,
        untimed: otherwise the full collections that earlier passes'
        garbage triggers land on every third pass or so (~+90 ms each)
        and the median depends on where they fall.
        """
        from repro.dataset.curation import CurationPipeline
        from repro.exec.cache import QueryResultCache
        from repro.exec.store import DiskShardStore

        gc.collect()
        self.references.append((time.monotonic(), speed.reference()))
        started = time.monotonic()
        try:
            cache = QueryResultCache(DiskShardStore(self.store_dir))
            pipeline = CurationPipeline(self.world, config, executor="serial", cache=cache)
            dataset = pipeline.curate()
        except Exception as exc:  # noqa: BLE001 - a pass that raises is a failed operation
            self.outcome.check(False, f"re-curation raised {exc!r}")
            return None
        return (started, time.monotonic()), dataset

    def warm(self) -> tuple[float, float] | None:
        """A re-curation under the base config, checked against the pin."""
        done = self.curate(self.config)
        if done is None:
            return None
        window, dataset = done
        if not self.outcome.check(dataset.content_digest() == inputs.DATASET_DIGEST,
                                  "warm re-curation digest"):
            return None
        if not self.base_shards:
            self.base_shards = _by_shard(dataset)
        return window

    def incremental(self, value: float):
        """A re-curation under a fresh override of the incremental ISP.

        Returns ``(window, config, digest)`` for :meth:`check`, or None.
        """
        config = self.config.with_isp_override(
            inputs.INCREMENTAL_ISP, politeness_seconds=value
        )
        done = self.curate(config)
        if done is None:
            return None
        window, dataset = done
        return window, config, dataset.content_digest()

    def check(self, config, digest: str) -> bool:
        """Compare with a cold curation under ``config``: the override
        ISP's shards curated with no cache, the rest from the verified
        base run (an override changes no other shard's config digest)."""
        from repro.dataset.container import BroadbandDataset
        from repro.dataset.curation import CurationPipeline

        replayed = _by_shard(
            CurationPipeline(self.world, config, executor="serial")
            .curate(isps=(inputs.INCREMENTAL_ISP,))
        )
        merged = []
        for shard, observations in self.base_shards.items():
            merged.extend(replayed.get(shard, observations))
        expected = BroadbandDataset(tuple(merged)).content_digest()
        return self.outcome.check(digest == expected, "incremental re-curation digest")


def _by_shard(dataset) -> dict[tuple[str, str], list]:
    """Observations grouped by ``(city, isp)``, in dataset order."""
    shards: dict[tuple[str, str], list] = {}
    for obs in dataset:
        shards.setdefault((obs.city, obs.isp), []).append(obs)
    return shards


def _fill_and_build(store_dir: Path, core: int):
    """Set-up: a cold CLI-style curation fills the store in another
    process, on the next core, while this one builds its own world."""
    from repro.world import build_world

    started = time.monotonic()
    fill = subprocess.Popen(
        harness.python_child("child.py", "fill", "--store", str(store_dir),
                             "--core", str(core + 1)),
        env=harness.child_env(), cwd=harness.ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        world = build_world(inputs.world_config())
        out, err = fill.communicate(timeout=150)
    finally:
        if fill.poll() is None:
            fill.kill()
            fill.wait()
    if fill.returncode != 0:
        raise RuntimeError(f"store fill exited {fill.returncode}: {err.strip()[-2000:]}")
    return world, json.loads(out.strip().splitlines()[-1]), (started, time.monotonic())


def _round(outcome: Outcome, seconds: float, store_dir: Path, overrides, core: int) -> _Round:
    """One set-up, an untimed warm-up, then the timed warm and
    incremental phases, each ``seconds / 2`` long, pinned to ``core``."""
    speed.pin_to_one_core(core)
    with speed.Sampler(interval=0.2) as sampler:
        world, fill, setup_window = _fill_and_build(store_dir, core)
    build_s = speed.scale(setup_window[1] - setup_window[0],
                          speed.window_reference(sampler.samples, [setup_window]))
    measured = _Round(setup_window, max(build_s, fill["setup_s"] + fill["curate_s"]))
    outcome.check(fill["digest"] == inputs.DATASET_DIGEST,
                  f"store fill digest {fill['digest'][:12]}")
    recurator = _Recurator(world, store_dir, outcome)
    # Untimed: the first warm pass pins the base shards; one incremental
    # pass builds the override ISP's address indexes, as they are in a
    # long-lived process.
    if recurator.warm() is None:
        raise RuntimeError("; ".join(outcome.problems))
    done = recurator.incremental(next(overrides))
    if done is not None:
        recurator.check(*done[1:])
    # The world and the memos are long-lived: frozen, the collection before
    # each pass only walks what the passes allocate.
    gc.freeze()

    warm = []
    deadline = time.monotonic() + seconds / 2.0
    while time.monotonic() < deadline:
        window = recurator.warm()
        if window is not None:
            warm.append(window)
    pending = []
    deadline = time.monotonic() + seconds / 2.0
    while time.monotonic() < deadline:
        done = recurator.incremental(next(overrides))
        if done is not None:
            pending.append(done)
    recurator.references.append((time.monotonic(), speed.reference()))
    for window in warm:
        measured.run_windows.append(window)
        measured.warm.append(recurator.scaled(window))
    # Checked after the phase: the oracle curations are not timed work.
    for window, config, digest in pending:
        if recurator.check(config, digest):
            measured.run_windows.append(window)
            measured.incremental.append(recurator.scaled(window))
    return measured


def recurate_disk(seed: int, seconds: int, tmp: Path, trace: bool) -> Outcome:
    """Warm and incremental re-curations over a disk store.

    Traced: one untraced round, then one traced round (wrappers installed
    before its set-up), for the overhead.
    """
    outcome = Outcome()
    overrides = iter(inputs.override_values(seed, 10_000))
    if trace:
        plain = _round(outcome, seconds, tmp / "store-0", overrides, 0)
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = _round(outcome, seconds, tmp / "store-1", overrides, 0)
        outcome.metrics = spans.summarize(
            tracer.spans, traced.run_windows, [traced.setup_window]
        )
        outcome.metrics.update(spans.idle_loadgen())
        outcome.metrics["trace.overhead_frac"] = traced.cost() / plain.cost() - 1.0
        outcome.samples = {"warm": [plain.warm, traced.warm],
                           "incremental": [plain.incremental, traced.incremental]}
        return outcome

    rounds = [
        _round(outcome, seconds / RECURATE_ROUNDS, tmp / f"store-{index}", overrides, index)
        for index in range(RECURATE_ROUNDS)
    ]
    warm = [wall for measured in rounds for wall in measured.warm]
    incremental = [wall for measured in rounds for wall in measured.incremental]
    outcome.metrics = {
        "setup_s": median([measured.setup_s for measured in rounds]),
        "peak_rss_mb": harness.own_peak_rss_mb(),
        "obs_per_s": _rate(warm),
        "replay_obs_per_s": _rate(incremental),
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
    }
    _latency_metrics(outcome, warm, warm + incremental)
    outcome.notes.update(warm_passes=len(warm), incremental_passes=len(incremental))
    outcome.samples = {
        "setup_s": [measured.setup_s for measured in rounds],
        "warm": warm,
        "incremental": incremental,
        # As measured, before scaling: each round's warm passes, then its
        # incremental passes.
        "raw_s": [hi - lo for measured in rounds for lo, hi in measured.run_windows],
    }
    return outcome
