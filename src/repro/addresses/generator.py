"""Synthetic residential address generation.

Builds the two views of a city's addresses that the pipeline needs:

* the **canonical registry** — the ground-truth address stock, which seeds
  every ISP's serviceability database; and
* the **residential feed** — the noisy crowdsourced view (our stand-in for
  the Zillow ZTRAX dataset) from which the curation pipeline samples.

Street names are unique within each ZIP code so that canonical keys are
unambiguous; multi-dwelling units get per-unit canonical records while the
feed frequently lists only the building address (driving the paper's MDU
workflow).

Every draw, the noise model's included, comes from a
:class:`~repro.seeding.DrawStream`, which serves ``np.random.default_rng``'s
scalar draws bit for bit from bulk PCG64 words at a fraction of a
``Generator`` call's cost.  A city's records are therefore the ones a loop
of scalar ``Generator`` calls builds; ``tests/test_addresses.py`` keeps
that loop as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import AddressError, ConfigurationError
from ..geo.grid import CityGrid
from ..seeding import DrawStream, derive_seed
from .model import Address
from .noise import NoiseConfig, NoiseModel, NoisyAddress
from .streetnames import BASE_NAMES, SUFFIXES, UNIT_STYLES

__all__ = ["AddressGeneratorConfig", "CityAddressBook", "generate_city_addresses"]

_STATE_ZIP_PREFIX: dict[str, int] = {
    "AL": 35, "AZ": 85, "CA": 90, "FL": 33, "GA": 30, "IL": 60, "IN": 46,
    "KS": 67, "KY": 40, "LA": 70, "MA": 2, "MD": 21, "MO": 64, "MT": 59,
    "NC": 27, "ND": 58, "NE": 68, "NM": 87, "NV": 89, "NY": 10, "OH": 44,
    "OK": 73, "PA": 19, "TX": 78, "VA": 23, "WA": 98, "WI": 53,
}


@dataclass(frozen=True)
class AddressGeneratorConfig:
    """Tunable knobs for per-city address generation.

    Attributes:
        addresses_per_block_group: Number of building addresses generated in
            each block group (the feed and registry sizes scale with this).
        block_groups_per_zip: How many contiguous block groups share a ZIP.
        mdu_fraction: Fraction of buildings that are multi-dwelling.
        max_units: Maximum units in one multi-dwelling building (2-26).
        noise: Crowdsourced-noise configuration for the feed.
    """

    addresses_per_block_group: int = 120
    block_groups_per_zip: int = 8
    mdu_fraction: float = 0.12
    max_units: int = 8
    noise: NoiseConfig = NoiseConfig()

    def __post_init__(self) -> None:
        if self.addresses_per_block_group < 1:
            raise ConfigurationError("addresses_per_block_group must be >= 1")
        if self.block_groups_per_zip < 1:
            raise ConfigurationError("block_groups_per_zip must be >= 1")
        if not 0.0 <= self.mdu_fraction <= 1.0:
            raise ConfigurationError("mdu_fraction must be a probability")
        if self.max_units < 2:
            raise ConfigurationError("max_units must be >= 2")
        if self.max_units > 26:
            # "Apt {letter}" names units A-Z; a 27th would repeat one.
            raise ConfigurationError("max_units must be <= 26")


class CityAddressBook:
    """All canonical addresses and feed entries for one city."""

    def __init__(
        self,
        city: str,
        canonical: tuple[Address, ...],
        feed: tuple[NoisyAddress, ...],
    ) -> None:
        self.city = city
        self.canonical = canonical
        self.feed = feed
        self._canonical_by_bg: dict[str, list[Address]] = {}
        for address in canonical:
            self._canonical_by_bg.setdefault(address.block_group, []).append(address)
        self._feed_by_bg: dict[str, list[NoisyAddress]] = {}
        for entry in feed:
            self._feed_by_bg.setdefault(entry.truth.block_group, []).append(entry)

    @property
    def block_groups(self) -> tuple[str, ...]:
        return tuple(self._feed_by_bg)

    def canonical_in(self, block_group: str) -> tuple[Address, ...]:
        try:
            return tuple(self._canonical_by_bg[block_group])
        except KeyError:
            raise AddressError(
                f"no addresses generated for block group {block_group!r}"
            ) from None

    def feed_in(self, block_group: str) -> tuple[NoisyAddress, ...]:
        try:
            return tuple(self._feed_by_bg[block_group])
        except KeyError:
            raise AddressError(
                f"no feed entries for block group {block_group!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.feed)


def _zip_for(city_index: int, state: str, zip_ordinal: int) -> str:
    prefix = _STATE_ZIP_PREFIX.get(state, 50)
    # Compose a plausible 5-digit ZIP: state prefix, city digit, ordinal.
    value = prefix * 1000 + (city_index % 10) * 100 + (zip_ordinal % 100)
    return f"{value:05d}"


def generate_city_addresses(
    grid: CityGrid,
    config: AddressGeneratorConfig,
    seed: int,
) -> CityAddressBook:
    """Generate the canonical registry and noisy feed for one city.

    Generation is deterministic in ``(grid, config, seed)``.  Each block
    group receives 3-6 streets; street (name, suffix) pairs are sampled
    without replacement within each ZIP so canonical keys stay unique.
    """
    city = grid.city
    rng = DrawStream(derive_seed(seed, "addresses", city.name))
    noise_model = NoiseModel(
        config.noise, DrawStream(derive_seed(seed, "feed-noise", city.name))
    )
    city_index = sum(map(ord, city.name))
    per_block_group = config.addresses_per_block_group
    max_units = config.max_units
    # Each style's unit designators 1..max_units, formatted once.
    style_units = [
        tuple(_format_unit(style, unit_index) for unit_index in range(1, max_units + 1))
        for style in UNIT_STYLES
    ]

    all_name_pairs = [(base, suffix) for base in BASE_NAMES for suffix in SUFFIXES]
    canonical: list[Address] = []
    feed: list[NoisyAddress] = []

    zip_ordinal = -1
    available_pairs: list[tuple[str, str]] = []
    current_zip = ""

    for bg in grid:
        if bg.index % config.block_groups_per_zip == 0:
            # Start a new ZIP: refresh the street-name pool.
            zip_ordinal += 1
            current_zip = _zip_for(city_index, city.state, zip_ordinal)
            order = rng.permutation(len(all_name_pairs))
            available_pairs = [all_name_pairs[i] for i in order]

        n_streets = rng.integers(3, 7)
        buildings_per_street = math.ceil(per_block_group / n_streets)
        built = 0
        for street_index in range(n_streets):
            if not available_pairs:
                raise AddressError(
                    f"street-name pool exhausted in ZIP {current_zip} "
                    f"({city.name}); lower block_groups_per_zip"
                )
            base_name, suffix = available_pairs.pop()
            start_number = rng.integers(1, 40) * 100
            for building in range(buildings_per_street):
                if built >= per_block_group:
                    break
                house_number = start_number + building * 2 + rng.integers(0, 2)
                if rng.random() < config.mdu_fraction:
                    n_units = rng.integers(2, max_units + 1)
                    units = style_units[rng.integers(0, len(UNIT_STYLES))][:n_units]
                else:
                    units = (None,)
                for unit in units:
                    canonical.append(
                        Address(
                            house_number, base_name, suffix, unit,
                            city.name, city.state, current_zip, bg.geoid,
                        )
                    )
                # The feed lists one entry per *building*; for MDUs the entry
                # is tied to the first unit (which noise may then strip).
                building_address = canonical[-len(units)]
                feed.append(noise_model.corrupt(building_address))
                built += 1
            if built >= per_block_group:
                break

    return CityAddressBook(city.name, tuple(canonical), tuple(feed))


def _format_unit(style: str, unit_index: int) -> str:
    if "{letter}" in style:
        return style.format(letter=chr(ord("A") + (unit_index - 1) % 26))
    return style.format(n=unit_index)
