"""Crowdsourced-noise model for the residential address feed.

The Zillow-like feed our curation pipeline samples from is crowdsourced and
imperfect (paper Section 3.1): abbreviation variants, typos, missing
apartment units, occasionally a wrong ZIP.  Each noise class triggers a
different path through the BAT querying workflow:

================  =============================================
Noise class       BAT behaviour it triggers
================  =============================================
variant           none (normalization absorbs it)
typo              "incorrect address" page with suggestions
wrong_number      "incorrect address" page with suggestions
missing_unit      "multi-dwelling unit" picker page
wrong_zip         suggestion list fails the ZIP sanity check
garbage           unrecoverable miss (no suggestions)
================  =============================================

The class probabilities are configurable so tests can force specific paths
and the ablation benches can turn noise off entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..seeding import DrawStream
from .model import Address
from .normalize import SUFFIX_ABBREVIATIONS

__all__ = ["NoiseClass", "NoiseConfig", "NoiseModel", "NoisyAddress"]


class NoiseClass:
    """Enumeration of feed-noise classes (plain strings for serializability)."""

    CLEAN = "clean"
    VARIANT = "variant"
    TYPO = "typo"
    WRONG_NUMBER = "wrong_number"
    MISSING_UNIT = "missing_unit"
    WRONG_ZIP = "wrong_zip"
    GARBAGE = "garbage"

    ALL = (CLEAN, VARIANT, TYPO, WRONG_NUMBER, MISSING_UNIT, WRONG_ZIP, GARBAGE)


@dataclass(frozen=True)
class NoiseConfig:
    """Probabilities of each noise class (remainder is CLEAN).

    Defaults are tuned so the end-to-end BQT hit rate lands in the paper's
    observed 82-96% band, with the exact per-ISP value determined by each
    BAT's matcher strictness.
    """

    p_variant: float = 0.30
    p_typo: float = 0.08
    p_wrong_number: float = 0.04
    p_missing_unit: float = 0.50  # applied only to multi-dwelling addresses
    p_wrong_zip: float = 0.015
    p_garbage: float = 0.01

    def __post_init__(self) -> None:
        total = (
            self.p_variant
            + self.p_typo
            + self.p_wrong_number
            + self.p_wrong_zip
            + self.p_garbage
        )
        if total > 1.0:
            raise ConfigurationError(
                f"noise probabilities sum to {total:.3f} > 1"
            )
        for name in (
            "p_variant",
            "p_typo",
            "p_wrong_number",
            "p_missing_unit",
            "p_wrong_zip",
            "p_garbage",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be a probability")

    @classmethod
    def noiseless(cls) -> "NoiseConfig":
        """A configuration with no noise at all (ablation/testing)."""
        return cls(
            p_variant=0.0,
            p_typo=0.0,
            p_wrong_number=0.0,
            p_missing_unit=0.0,
            p_wrong_zip=0.0,
            p_garbage=0.0,
        )


@dataclass(frozen=True)
class NoisyAddress:
    """One feed entry: the noisy public spelling of a true address.

    ``truth`` is retained for pipeline validation only — the curation
    pipeline and analysis layer never read it.
    """

    street_line: str
    zip_code: str
    city: str
    state: str
    noise_class: str
    truth: Address

    def line(self) -> str:
        display_city = " ".join(w.capitalize() for w in self.city.split("-"))
        return f"{self.street_line}, {display_city}, {self.state} {self.zip_code}"


_VARIANT_SPELLINGS: dict[str, tuple[str, ...]] = {
    full: (abbr, abbr.capitalize(), f"{abbr.capitalize()}.", full.upper())
    for full, abbr in SUFFIX_ABBREVIATIONS.items()
}


class NoiseModel:
    """Applies crowdsourced noise to canonical addresses.

    ``rng`` is anything with ``numpy.random.Generator``'s ``random()``,
    ``integers(low, high)`` and ``choice(seq)``: the generator passes a
    :class:`~repro.seeding.DrawStream`, which draws exactly what a
    ``Generator`` of its seed would.
    """

    def __init__(
        self, config: NoiseConfig, rng: np.random.Generator | DrawStream
    ) -> None:
        self.config = config
        self._rng = rng
        # A roll picks the first class whose cumulative bound exceeds it;
        # the bounds are summed once, in this order.
        self._bounds: list[tuple[float, str]] = []
        cumulative = 0.0
        for probability, noise_class in (
            (config.p_garbage, NoiseClass.GARBAGE),
            (config.p_wrong_zip, NoiseClass.WRONG_ZIP),
            (config.p_wrong_number, NoiseClass.WRONG_NUMBER),
            (config.p_typo, NoiseClass.TYPO),
            (config.p_variant, NoiseClass.VARIANT),
        ):
            cumulative += probability
            self._bounds.append((cumulative, noise_class))

    def _pick_class(self, address: Address) -> str:
        cfg = self.config
        # Unit-dropping applies independently to MDU addresses first: a
        # crowdsourced record for an apartment frequently lacks the unit.
        if address.is_multi_dwelling and self._rng.random() < cfg.p_missing_unit:
            return NoiseClass.MISSING_UNIT
        roll = self._rng.random()
        for bound, noise_class in self._bounds:
            if roll < bound:
                return noise_class
        return NoiseClass.CLEAN

    def corrupt(self, address: Address) -> NoisyAddress:
        """Produce the feed entry for one canonical address."""
        noise_class = self._pick_class(address)
        # Address.street_line() and, without the unit, the building's line.
        building_line = (
            f"{address.house_number} {address.street_name} {address.street_suffix}"
        )
        street_line = (
            f"{building_line} {address.unit}" if address.unit else building_line
        )
        zip_code = address.zip_code

        if noise_class == NoiseClass.VARIANT:
            street_line = self._apply_variant(address)
        elif noise_class == NoiseClass.TYPO:
            street_line = self._apply_typo(address)
        elif noise_class == NoiseClass.WRONG_NUMBER:
            street_line = self._apply_wrong_number(address)
        elif noise_class == NoiseClass.MISSING_UNIT:
            street_line = building_line
        elif noise_class == NoiseClass.WRONG_ZIP:
            zip_code = self._apply_wrong_zip(address)
        elif noise_class == NoiseClass.GARBAGE:
            street_line = self._apply_garbage(address)

        return NoisyAddress(
            street_line=street_line,
            zip_code=zip_code,
            city=address.city,
            state=address.state,
            noise_class=noise_class,
            truth=address,
        )

    def _apply_variant(self, address: Address) -> str:
        variants = _VARIANT_SPELLINGS.get(address.street_suffix.upper())
        if not variants:
            return address.street_line()
        suffix = variants[self._rng.integers(0, len(variants))]
        parts = [str(address.house_number), address.street_name, suffix]
        if address.unit:
            unit = address.unit
            if unit.lower().startswith("apt ") and self._rng.random() < 0.5:
                unit = "#" + unit[4:]
            parts.append(unit)
        return " ".join(parts)

    def _apply_typo(self, address: Address) -> str:
        name = list(address.street_name)
        position = int(self._rng.integers(0, len(name)))
        operation = self._rng.random()
        if operation < 0.4 and len(name) > 3:
            del name[position]  # deletion
        elif operation < 0.7:
            name.insert(position, name[position])  # duplication
        else:
            swap = min(position + 1, len(name) - 1)
            name[position], name[swap] = name[swap], name[position]  # transposition
        mangled = "".join(name)
        parts = [str(address.house_number), mangled, address.street_suffix]
        if address.unit:
            parts.append(address.unit)
        return " ".join(parts)

    def _apply_wrong_number(self, address: Address) -> str:
        delta = int(self._rng.choice([-4, -2, 2, 4]))
        wrong = max(1, address.house_number + delta)
        parts = [str(wrong), address.street_name, address.street_suffix]
        if address.unit:
            parts.append(address.unit)
        return " ".join(parts)

    def _apply_wrong_zip(self, address: Address) -> str:
        digits = list(address.zip_code)
        digits[-1] = str((int(digits[-1]) + 1 + int(self._rng.integers(0, 8))) % 10)
        return "".join(digits)

    def _apply_garbage(self, address: Address) -> str:
        # Truncate the street name beyond recognizability.
        stub = address.street_name[:2]
        return f"{address.house_number} {stub}"
