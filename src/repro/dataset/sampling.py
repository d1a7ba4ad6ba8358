"""Stratified street-address sampling.

The paper samples uniformly at the census-block-group level: "for each
(ISP, city) pair ... we randomly sample 10% of street addresses for each
such block group", with the floor that every block group contributes at
least thirty samples so block-group statistics are meaningful
(Section 4.1).

Each block group draws from its own generator,
``np.random.default_rng(derive_seed(seed, "sample", isp, geoid))``.
:func:`sample_city` hashes the ``(seed, "sample", isp)`` prefix once per
city and takes the generators from :func:`~repro.seeding.seeded_generators`,
which seeds them all in one pass and reuses one ``Generator``; the draws
are those of a fresh generator per block group, bit for bit
(``tests/test_sampling.py`` keeps that loop as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..addresses.generator import CityAddressBook
from ..addresses.noise import NoisyAddress
from ..errors import ConfigurationError
from ..seeding import seed_deriver, seeded_generators

__all__ = ["SamplingConfig", "sample_block_group", "sample_city"]


@dataclass(frozen=True)
class SamplingConfig:
    """Stratified-sampling knobs (paper defaults)."""

    fraction: float = 0.10
    min_samples: int = 30

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")

    def sample_size(self, population: int) -> int:
        """Number of addresses to draw from a block group of given size."""
        target = int(round(population * self.fraction))
        return min(population, max(self.min_samples, target))


def sample_block_group(
    entries: tuple[NoisyAddress, ...],
    config: SamplingConfig,
    rng: np.random.Generator,
) -> tuple[NoisyAddress, ...]:
    """Draw the stratified sample for one block group."""
    size = config.sample_size(len(entries))
    if size >= len(entries):
        return entries
    chosen = rng.choice(len(entries), size=size, replace=False)
    return tuple([entries[i] for i in sorted(chosen.tolist())])


def sample_city(
    book: CityAddressBook,
    config: SamplingConfig,
    seed: int,
    isp: str,
) -> dict[str, tuple[NoisyAddress, ...]]:
    """Stratified sample for every block group of a city, for one ISP.

    The draw is independent per (ISP, city, block group), as in the paper
    (each ISP's query set is sampled separately).
    """
    geoids = book.block_groups
    derive = seed_deriver(seed, "sample", isp)
    generators = seeded_generators([derive(geoid) for geoid in geoids])
    return {
        geoid: sample_block_group(book.feed_in(geoid), config, rng)
        for geoid, rng in zip(geoids, generators)
    }
