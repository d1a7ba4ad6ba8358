"""Address database with lookup and fuzzy-candidate APIs.

Two consumers use this database:

* The **BAT backends** (ISP side) look up normalized canonical keys and,
  on a miss, retrieve fuzzy candidates to present as suggestions — the
  behaviour BQT's "incorrect address" workflow relies on.
* The **sampling layer** (measurement side) enumerates feed entries per
  block group for the stratified sample.

The fuzzy-candidate index buckets canonical records by ``(zip, house-number
band)`` and, separately, by ``(zip, street-name prefix)`` so a single noisy
query never scans an entire city.
"""

from __future__ import annotations

from collections import defaultdict
from difflib import SequenceMatcher

from ..errors import AddressError
from .generator import CityAddressBook
from .model import Address
from .normalize import (
    address_keys,
    canonical_key,
    normalize_street_line,
    normalize_zip,
)

__all__ = ["AddressIndex", "build_city_index"]

_NUMBER_BAND = 10  # house numbers within +/- band land in the same bucket


class AddressIndex:
    """Searchable index over a set of canonical addresses."""

    def __init__(self, addresses: tuple[Address, ...]) -> None:
        self._addresses = addresses
        self._by_key: dict[str, Address] = {}
        self._units_by_building: dict[str, list[Address]] = defaultdict(list)
        self._by_number_band: dict[tuple[str, int], list[Address]] = defaultdict(list)
        self._by_name_prefix: dict[tuple[str, str], list[Address]] = defaultdict(list)
        # Normalized "NAME SUFFIX" per distinct (street_name, street_suffix),
        # filled by address_keys: candidate ranking reads it too.
        self._streets: dict[tuple[str, str], str] = {}

        keys, building_keys = address_keys(addresses, self._streets)
        for address, key, building_key in zip(addresses, keys, building_keys):
            self._by_key[key] = address
            if address.unit is not None:  # is_multi_dwelling, inlined
                self._units_by_building[building_key].append(address)
            band = address.house_number // _NUMBER_BAND
            self._by_number_band[(address.zip_code, band)].append(address)
            prefix = address.street_name[:3].upper()
            self._by_name_prefix[(address.zip_code, prefix)].append(address)

    def __len__(self) -> int:
        return len(self._addresses)

    @property
    def addresses(self) -> tuple[Address, ...]:
        return self._addresses

    def lookup(self, street_line: str, zip_code: str) -> Address | None:
        """Exact lookup after normalization; None if absent."""
        return self._by_key.get(canonical_key(street_line, zip_code))

    def lookup_canonical(self, key: str) -> Address | None:
        """Exact lookup by an already-computed ``canonical_key``.

        The columnar hot path normalizes each queried address once (the
        flaky-roll key) and reuses that key here, instead of paying
        ``canonical_key`` twice per task like ``lookup`` would.
        """
        return self._by_key.get(key)

    def units_at(self, street_line: str, zip_code: str) -> tuple[Address, ...]:
        """All unit-level records for a building-level street line."""
        building_key = canonical_key(street_line, zip_code)
        return tuple(self._units_by_building.get(building_key, ()))

    def candidates(
        self, street_line: str, zip_code: str, limit: int = 25
    ) -> tuple[Address, ...]:
        """Fuzzy candidates for a mis-spelled or mis-numbered street line.

        Pulls from both the house-number-band bucket and the street-name
        prefix bucket of the query ZIP, dedupes, ranks by relevance (house
        number match, then street-name similarity — real BATs surface the
        most plausible corrections first), and caps at ``limit``.
        """
        zip5 = normalize_zip(zip_code)
        tokens = normalize_street_line(street_line).split()
        found: dict[str, Address] = {}

        query_number = tokens[0] if tokens and tokens[0].isdigit() else ""
        if query_number:
            band = int(query_number) // _NUMBER_BAND
            for nearby_band in (band - 1, band, band + 1):
                for address in self._by_number_band.get((zip5, nearby_band), ()):
                    found.setdefault(address.street_line() + zip5, address)

        name_token = next((t for t in tokens if not t.isdigit()), "")
        if name_token:
            prefix = name_token[:3]
            for address in self._by_name_prefix.get((zip5, prefix), ()):
                found.setdefault(address.street_line() + zip5, address)

        query_name = " ".join(t for t in tokens if not t.isdigit())
        # Buckets hold many addresses per street: score each street once.
        name_scores: dict[str, float] = {}

        def relevance(address: Address) -> tuple[float, float, str]:
            number_match = 1.0 if str(address.house_number) == query_number else 0.0
            candidate_name = self._streets[address.street_name, address.street_suffix]
            name_score = name_scores.get(candidate_name)
            if name_score is None:
                name_score = name_scores[candidate_name] = SequenceMatcher(
                    None, query_name, candidate_name
                ).ratio()
            # Negative scores sort best-first; street line breaks ties
            # deterministically.
            return (-number_match, -name_score, address.street_line())

        ordered = sorted(found.values(), key=relevance)
        return tuple(ordered[:limit])

    def restricted_to(self, block_groups: set[str]) -> "AddressIndex":
        """A sub-index covering only the given block groups.

        This is how per-ISP serviceability databases are derived: an ISP's
        BAT only knows the addresses inside its deployment footprint.
        """
        subset = tuple(a for a in self._addresses if a.block_group in block_groups)
        return AddressIndex(subset)


def build_city_index(book: CityAddressBook) -> AddressIndex:
    """Index every canonical address of a city."""
    if not book.canonical:
        raise AddressError(f"address book for {book.city} is empty")
    return AddressIndex(book.canonical)
