r"""USPS-style street-address normalization.

The paper notes that "for the same street address, some databases might use
'Ave' instead of Avenue and 'CT' or 'Ct' instead of Court" (Section 3.3).
This module implements the normalization layer both sides use: the ISP-side
BAT normalizes incoming queries before matching against its serviceability
database, and BQT normalizes suggestion strings before string-matching them
against the input address.

The abbreviation table follows USPS Publication 28, Appendix C (the common
subset covering the suffixes our street generator produces).

Normalization runs once per cache key, per address-index entry and per
BQT suggestion, so it is written as plain ``str`` methods rather than
regular expressions: ``str.upper``, ``str.replace`` for the punctuation,
``str.split()`` for whitespace, one dict lookup per token and
``str.isdecimal`` for ZIP digits.  Each is exact on every code point
(``tests/test_addresses.py`` checks all 1,114,112): ``str.upper`` is
idempotent, so a token never needs upper-casing twice, ``str.split()``
splits on exactly the characters ``\s`` matches, and ``str.isdecimal``
accepts exactly the characters ``\d`` matches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .model import Address

__all__ = [
    "SUFFIX_ABBREVIATIONS",
    "UNIT_DESIGNATORS",
    "normalize_token",
    "normalize_street_line",
    "normalize_zip",
    "canonical_key",
    "address_keys",
    "tokenize",
]

# Full suffix name -> USPS standard abbreviation.
SUFFIX_ABBREVIATIONS: dict[str, str] = {
    "ALLEY": "ALY",
    "AVENUE": "AVE",
    "BOULEVARD": "BLVD",
    "CIRCLE": "CIR",
    "COURT": "CT",
    "DRIVE": "DR",
    "EXPRESSWAY": "EXPY",
    "HIGHWAY": "HWY",
    "LANE": "LN",
    "PARKWAY": "PKWY",
    "PLACE": "PL",
    "ROAD": "RD",
    "SQUARE": "SQ",
    "STREET": "ST",
    "TERRACE": "TER",
    "TRAIL": "TRL",
    "WAY": "WAY",
}

# Every spelling (full, standard, and common variants) -> standard form.
_SUFFIX_VARIANTS: dict[str, str] = {}
for _full, _abbr in SUFFIX_ABBREVIATIONS.items():
    _SUFFIX_VARIANTS[_full] = _abbr
    _SUFFIX_VARIANTS[_abbr] = _abbr
_SUFFIX_VARIANTS.update(
    {
        "AV": "AVE",
        "AVE.": "AVE",
        "BOUL": "BLVD",
        "BLVD.": "BLVD",
        "CRT": "CT",
        "CT.": "CT",
        "DRV": "DR",
        "DR.": "DR",
        "LA": "LN",
        "LN.": "LN",
        "PKY": "PKWY",
        "RD.": "RD",
        "STR": "ST",
        "ST.": "ST",
        "TERR": "TER",
        "TR": "TRL",
    }
)

# Unit designator variants -> standard form.
UNIT_DESIGNATORS: dict[str, str] = {
    "APARTMENT": "APT",
    "APT": "APT",
    "APT.": "APT",
    "#": "APT",
    "UNIT": "UNIT",
    "STE": "STE",
    "SUITE": "STE",
    "FL": "FL",
    "FLOOR": "FL",
}

# Every token spelling that folds, to its standard form.  Suffix variants
# take precedence over unit designators.
_TOKEN_FORMS: dict[str, str] = {**UNIT_DESIGNATORS, **_SUFFIX_VARIANTS}


def tokenize(text: str) -> list[str]:
    """Upper-case and split a street line into clean tokens.

    ``.``, ``,`` and ``;`` separate tokens; ``#`` is a token of its own,
    so ``#3`` still reads as a unit marker.

    >>> tokenize("12  Magnolia Ave., Apt 3")
    ['12', 'MAGNOLIA', 'AVE', 'APT', '3']
    """
    return (
        text.upper()
        .replace(".", " ")
        .replace(",", " ")
        .replace(";", " ")
        .replace("#", " # ")
        .split()
    )


def normalize_token(token: str) -> str:
    """Normalize one token: suffix and unit-designator variants collapse."""
    upper = token.upper().rstrip(".")
    return _TOKEN_FORMS.get(upper, upper)


def normalize_street_line(line: str) -> str:
    """Normalize a full street line to its canonical comparable form.

    A token from :func:`tokenize` is already upper-case and holds no
    ``.``, so it goes straight to the variant table.

    >>> normalize_street_line("12 Magnolia Avenue Apt 3")
    '12 MAGNOLIA AVE APT 3'
    >>> normalize_street_line("12 magnolia ave. #3")
    '12 MAGNOLIA AVE APT 3'
    """
    forms = _TOKEN_FORMS
    return " ".join([forms.get(token, token) for token in tokenize(line)])


def normalize_zip(zip_code: str) -> str:
    """Reduce a ZIP or ZIP+4 to its five-digit base: its first five digits."""
    if zip_code.isdecimal():
        return zip_code[:5]
    return "".join(filter(str.isdecimal, zip_code))[:5]


def canonical_key(street_line: str, zip_code: str) -> str:
    """The key under which an address is stored and matched.

    Two spellings of the same address (modulo USPS abbreviation variants,
    case, and punctuation) map to the same key.  Typos, wrong house numbers
    and missing units do NOT — those are the noise BQT must handle through
    the suggestion workflow.
    """
    return f"{normalize_street_line(street_line)}|{normalize_zip(zip_code)}"


def address_keys(
    addresses: "Iterable[Address]",
    streets: dict[tuple[str, str], str] | None = None,
) -> tuple[list[str], list[str]]:
    """Each address's key and building key: two lists, in address order.

    A key equals ``canonical_key(address.street_line(),
    address.zip_code)`` and a building key the same for the address
    without its unit (so the two are equal when it has none).  A city has
    thousands of addresses on a few hundred streets, a few dozen unit
    names and ZIPs, so each distinct ``(street_name, street_suffix)``,
    unit and ZIP is normalized once; ``streets``, when given, is filled
    with each street's normalized ``NAME SUFFIX``.  Two lists of strings,
    not a list of pairs, so a city's keys add no objects for the garbage
    collector to track.

    Tokenizing works per character (``str.upper``, the punctuation
    replaces) and per whitespace-separated token (``str.split()``), and
    ``street_line()`` joins its parts with spaces, so a normalized line
    is the space-join of its normalized parts, leaving out the parts that
    normalize to nothing.  A house number, ``str`` of an ``int``, is its
    own normal form.
    """
    if streets is None:
        streets = {}
    units: dict[str, str] = {}
    zips: dict[str, str] = {}
    keys: list[str] = []
    buildings: list[str] = []
    for address in addresses:
        street_id = (address.street_name, address.street_suffix)
        street = streets.get(street_id)
        if street is None:
            street = streets[street_id] = normalize_street_line(
                f"{address.street_name} {address.street_suffix}"
            )
        zip5 = zips.get(address.zip_code)
        if zip5 is None:
            zip5 = zips[address.zip_code] = normalize_zip(address.zip_code)
        building = (
            f"{address.house_number} {street}" if street else str(address.house_number)
        )
        building_key = f"{building}|{zip5}"
        unit = address.unit
        if unit:
            normal_unit = units.get(unit)
            if normal_unit is None:
                normal_unit = units[unit] = normalize_street_line(unit)
            if normal_unit:
                keys.append(f"{building} {normal_unit}|{zip5}")
                buildings.append(building_key)
                continue
        keys.append(building_key)
        buildings.append(building_key)
    return keys, buildings
