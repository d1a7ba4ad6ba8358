"""The benchmark's shared inputs: one world, one curation config, pinned outputs.

Every workload curates or serves the same four-city world.  The world is
fixed at seed 42 so that every run does the same amount of work and its
outputs can be pinned; the ``--seed`` argument seeds the inputs a
workload generates on top of it (the request schedule and the override
values of incremental re-curations).
"""

from __future__ import annotations

import random

WORLD_SEED = 42
SCALE = 0.10
CITIES = ("wichita", "baltimore", "billings", "durham")
FRACTION = 0.10
MIN_SAMPLES = 10
FLEET = 50

#: Dataset digest (``BroadbandDataset.content_digest``) of a serial cold
#: curation of the world above.
DATASET_DIGEST = "75a9b1ca706c8f5a2c064110d5a153a6231afb45d551f8e0d310ec230cf32392"
OBSERVATIONS = 4152

#: ``shard_payload_digest`` of each shard as the serial ``run_shard_spec``
#: oracle produces it, and the shard's observation count, in curation
#: order.
SHARDS = {
    ("wichita", "att"): (
        "37fffbcf20ba1866a291f8478128bb0fa8cab5ef0565aaeecf3b9d59cdc92cff", 360),
    ("wichita", "cox"): (
        "a2061e51bba260b1e56c2e8d715eab9307b19090dd3497297ccd9fdd5208a5d0", 360),
    ("baltimore", "verizon"): (
        "97110cbb1feadcd841410d26348be0aa258379a230403f02e44f7ba16e1d4eed", 1428),
    ("baltimore", "xfinity"): (
        "f03e1592fa97b6bf4e35a35782a3c75e3d8f10ee06eefc5fb0af2b5d36601ba9", 1428),
    ("billings", "centurylink"): (
        "644117845184f1ee39672be2946a7a720de7817f5659e3ee4ecd5853ac688891", 120),
    ("billings", "spectrum"): (
        "0b54536d0dc1b85bc051dc77992eebc030ca676792d77f695193dc56a405c9c2", 120),
    ("durham", "frontier"): (
        "5e59ea80aa6567fc9bfe0d2e9dd3017c1f43795765fbe0ae5d39b0f9c3d0eee1", 168),
    ("durham", "spectrum"): (
        "0901908bada20f98e3972c3620a753c63a0f1b9e67ee5bbd43f73741ae583c24", 168),
}

#: The ISP whose override changes between incremental re-curations: two
#: small shards (billings, durham), so a pass replays ~7% of the tasks.
INCREMENTAL_ISP = "spectrum"

#: Serving load: a constant open-loop rate, chosen well below what the
#: server sustains on a 2-core host (hits cost ~25 us per observation),
#: and never derived from the code under test.
SERVE_RATE = 42.0
#: Share of requests that force a re-curation, and the shards they force:
#: the small shards, whose re-curation fits well inside the SLO.
SERVE_FORCED_SHARE = 0.10
SERVE_FORCED_SHARDS = (
    ("billings", "centurylink"),
    ("billings", "spectrum"),
    ("durham", "frontier"),
    ("durham", "spectrum"),
)
SLO_MS = 500.0
#: Load-generator threads, each with one keep-alive connection.
SERVE_CONNECTIONS = 2


def world_config():
    from repro.world import WorldConfig

    return WorldConfig(seed=WORLD_SEED, scale=SCALE, cities=CITIES)


def curation_config():
    from repro.dataset.curation import CurationConfig
    from repro.dataset.sampling import SamplingConfig

    return CurationConfig(
        sampling=SamplingConfig(fraction=FRACTION, min_samples=MIN_SAMPLES),
        n_workers=FLEET,
    )


def override_values(seed: int, count: int) -> list[float]:
    """Distinct politeness overrides for ``count`` incremental passes.

    Politeness only moves the simulated clock between queries, so every
    value costs the same work while giving the ISP's shards a config
    digest no earlier pass has used.
    """
    rng = random.Random(f"perfbench-overrides-{seed}")
    return [5.0 + step / 1000.0 for step in rng.sample(range(1, 1_000_000), count)]


def build_schedule(seed: int, rate: float, seconds: float) -> list[tuple[float, str, str, bool]]:
    """The open-loop request schedule: ``(due_s, city, isp, force)``.

    Requests are due at a constant rate.  The mix is fixed by the request
    count alone: ``SERVE_FORCED_SHARE`` forced re-curations, evenly spaced
    and taking the forced shards in turn, and warm hits over all eight
    shards in inverse proportion to their size, so that every shard
    serves the same volume of observations, each shard's hits evenly
    interleaved.  The seed sets where the forced requests fall and where
    the interleaving starts, so every seed offers the same work in the
    same proportions at every point of the run.
    """
    rng = random.Random(f"perfbench-schedule-{seed}")
    count = int(rate * seconds)
    forced = round(count * SERVE_FORCED_SHARE)
    phase = rng.random()
    forced_at = {int((j + phase) * count / forced) for j in range(forced)} if forced else set()
    forced_kinds = iter(
        SERVE_FORCED_SHARDS[j % len(SERVE_FORCED_SHARDS)] for j in range(forced)
    )
    hits = _interleave(_apportion(count - len(forced_at)))
    offset = rng.randrange(len(hits)) if hits else 0
    hit_kinds = iter(list(SHARDS)[i] for i in hits[offset:] + hits[:offset])
    schedule = []
    for index in range(count):
        force = index in forced_at
        city, isp = next(forced_kinds if force else hit_kinds)
        schedule.append((index / rate, city, isp, force))
    return schedule


def _apportion(total: int) -> list[int]:
    """``total`` hits over :data:`SHARDS` in inverse proportion to their
    observation counts (largest remainder, so the counts sum exactly)."""
    weights = [1.0 / count for _digest, count in SHARDS.values()]
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _interleave(counts: list[int]) -> list[int]:
    """Indexes with each ``i`` appearing ``counts[i]`` times, evenly spread
    (smooth weighted round robin)."""
    total = sum(counts)
    current = [0] * len(counts)
    order = []
    for _ in range(total):
        for i, weight in enumerate(counts):
            current[i] += weight
        best = max(range(len(counts)), key=current.__getitem__)
        current[best] -= total
        order.append(best)
    return order
