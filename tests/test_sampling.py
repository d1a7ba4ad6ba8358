"""``sample_city`` against its reference: one fresh generator per block group.

``sample_city`` seeds every block group's generator in one pass and reuses
one ``Generator`` object.  Its samples must equal the loop it replaced,
``np.random.default_rng(derive_seed(seed, "sample", isp, geoid))`` per
block group, bit for bit; a numpy release that changed PCG64 seeding or
``Generator.choice(replace=False)`` fails here instead of silently moving
every sample.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset.sampling import SamplingConfig, sample_city
from repro.seeding import derive_seed
from repro.world import WorldConfig, build_world


@lru_cache(maxsize=None)
def _book(city: str):
    """A small city's address book, built once and shared by every example."""
    world = build_world(WorldConfig(seed=3, scale=0.08, cities=(city,)))
    return world.city(city).book


def _reference_sample_city(book, config, seed, isp):
    """The per-block-group loop ``sample_city`` replaced."""
    samples = {}
    for geoid in book.block_groups:
        entries = book.feed_in(geoid)
        rng = np.random.default_rng(derive_seed(seed, "sample", isp, geoid))
        size = config.sample_size(len(entries))
        if size >= len(entries):
            samples[geoid] = entries
            continue
        chosen = rng.choice(len(entries), size=size, replace=False)
        samples[geoid] = tuple(entries[i] for i in sorted(map(int, chosen)))
    return samples


@settings(max_examples=60, deadline=None)
@given(
    city=st.sampled_from(["wichita", "billings"]),
    seed=st.integers(min_value=0, max_value=2**63 - 1)
    | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1]),
    isp=st.sampled_from(["att", "cox", "spectrum"]) | st.text(max_size=6),
    fraction=st.floats(min_value=0.01, max_value=1.0),
    min_samples=st.integers(min_value=1, max_value=12),
)
@example(city="wichita", seed=42, isp="cox", fraction=0.10, min_samples=10)
@example(city="billings", seed=42, isp="spectrum", fraction=1.0, min_samples=1)
def test_sample_city_equals_fresh_generator_per_block_group(
    city, seed, isp, fraction, min_samples
):
    book = _book(city)
    config = SamplingConfig(fraction=fraction, min_samples=min_samples)
    samples = sample_city(book, config, seed, isp)
    expected = _reference_sample_city(book, config, seed, isp)
    assert list(samples) == list(expected)
    assert samples == expected
