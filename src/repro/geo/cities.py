"""City registry reconstructed from Table 2 of the paper.

The paper studies thirty US cities in 27 states.  For each city, Table 2
reports the number of census block groups, the number of street addresses
queried (thousands), population density (thousands per square mile), median
household income (thousands of dollars), and which of the seven major ISPs
serve the city.

The per-city ISP assignment in the published table is a bullet matrix whose
column totals are (AT&T=14, Verizon=5, CenturyLink=7, Frontier=4,
Spectrum=13, Cox=8, Xfinity=6).  We reconstruct an assignment that matches
those totals exactly, respects the paper's market-structure facts (at most
two major ISPs per city, never two cable or two DSL/fiber ISPs competing),
and follows the real-world footprints of the providers (e.g. Cox in New
Orleans, Fios in the Northeast corridor).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UnknownCityError

__all__ = [
    "CityInfo",
    "CITIES",
    "CITY_NAMES",
    "get_city",
    "cities_served_by",
    "total_block_groups",
    "total_addresses_thousands",
]


@dataclass(frozen=True)
class CityInfo:
    """Static description of one study city (one row of Table 2).

    Attributes:
        name: Canonical lower-case hyphenated city key, e.g. ``"new-orleans"``.
        display_name: Human-readable name, e.g. ``"New Orleans"``.
        state: Two-letter state code.
        block_groups: Number of census block groups covered (Table 2).
        addresses_thousands: Street addresses queried, in thousands (Table 2).
        population_density_thousands: Population density in thousands per
            square mile (Table 2).
        median_income_thousands: Median yearly household income in $k.
        isps: Names of major ISPs active in the city (1 or 2 entries).
        latitude / longitude: Approximate city-center coordinates, used to
            lay out the synthetic block-group grid on a plausible map.
    """

    name: str
    display_name: str
    state: str
    block_groups: int
    addresses_thousands: float
    population_density_thousands: float
    median_income_thousands: float
    isps: tuple[str, ...]
    latitude: float
    longitude: float

    @property
    def addresses(self) -> int:
        """Approximate number of queried street addresses (not thousands)."""
        return int(round(self.addresses_thousands * 1000))

    @property
    def cable_isps(self) -> tuple[str, ...]:
        from ..isp.providers import is_cable

        return tuple(isp for isp in self.isps if is_cable(isp))

    @property
    def dsl_fiber_isps(self) -> tuple[str, ...]:
        from ..isp.providers import is_cable

        return tuple(isp for isp in self.isps if not is_cable(isp))


def _city(
    display_name: str,
    state: str,
    block_groups: int,
    addresses_thousands: float,
    density: float,
    income: float,
    isps: tuple[str, ...],
    lat: float,
    lon: float,
) -> CityInfo:
    name = display_name.lower().replace(" ", "-").replace(".", "")
    return CityInfo(
        name=name,
        display_name=display_name,
        state=state,
        block_groups=block_groups,
        addresses_thousands=addresses_thousands,
        population_density_thousands=density,
        median_income_thousands=income,
        isps=isps,
        latitude=lat,
        longitude=lon,
    )


# Table 2, one entry per row.  ISP keys: att, verizon, centurylink, frontier,
# spectrum, cox, xfinity.
CITIES: dict[str, CityInfo] = {
    city.name: city
    for city in (
        _city("Albuquerque", "NM", 387, 14, 1.8, 53, ("centurylink",), 35.0844, -106.6504),
        _city("Atlanta", "GA", 389, 12, 1.2, 65, ("att", "xfinity"), 33.7490, -84.3880),
        _city("Austin", "TX", 487, 25, 1.7, 74, ("att", "spectrum"), 30.2672, -97.7431),
        _city("Baltimore", "MD", 1188, 42, 1.7, 81, ("verizon", "xfinity"), 39.2904, -76.6122),
        _city("Billings", "MT", 98, 3, 1.1, 61, ("centurylink", "spectrum"), 45.7833, -108.5007),
        _city("Birmingham", "AL", 354, 24, 0.716, 47, ("att", "spectrum"), 33.5186, -86.8104),
        _city("Boston", "MA", 373, 17, 8.4, 72, ("verizon", "xfinity"), 42.3601, -71.0589),
        _city("Charlotte", "NC", 472, 21, 2.0, 73, ("att", "spectrum"), 35.2271, -80.8431),
        _city("Chicago", "IL", 1933, 86, 3.8, 64, ("att", "xfinity"), 41.8781, -87.6298),
        _city("Cleveland", "OH", 754, 35, 4.8, 31, ("att", "spectrum"), 41.4993, -81.6944),
        _city("Columbus", "OH", 662, 20, 1.9, 58, ("att", "spectrum"), 39.9612, -82.9988),
        _city("Durham", "NC", 138, 5, 1.0, 59, ("frontier", "spectrum"), 35.9940, -78.8986),
        _city("Fargo", "ND", 67, 5, 1.5, 62, ("centurylink",), 46.8772, -96.7898),
        _city("Fort Wayne", "IN", 209, 11, 0.9, 54, ("frontier", "xfinity"), 41.0793, -85.1394),
        _city("Kansas City", "MO", 305, 15, 1.2, 51, ("att", "spectrum"), 39.0997, -94.5786),
        _city("Los Angeles", "CA", 1787, 90, 8.5, 67, ("att", "spectrum"), 34.0522, -118.2437),
        _city("Las Vegas", "NV", 881, 38, 1.0, 65, ("centurylink", "cox"), 36.1699, -115.1398),
        _city("Louisville", "KY", 505, 41, 1.6, 56, ("att", "spectrum"), 38.2527, -85.7585),
        _city("Milwaukee", "WI", 560, 27, 2.9, 50, ("att", "spectrum"), 43.0389, -87.9065),
        _city("New Orleans", "LA", 439, 67, 2.9, 41, ("att", "cox"), 29.9511, -90.0715),
        _city("New York City", "NY", 1567, 51, 41.7, 96, ("verizon", "spectrum"), 40.7128, -74.0060),
        _city("Oklahoma City", "OK", 493, 20, 1.3, 50, ("att", "cox"), 35.4676, -97.5164),
        _city("Omaha", "NE", 455, 28, 1.7, 62, ("centurylink", "cox"), 41.2565, -95.9345),
        _city("Philadelphia", "PA", 981, 32, 8.0, 46, ("verizon", "xfinity"), 39.9526, -75.1652),
        _city("Phoenix", "AZ", 802, 32, 1.9, 64, ("centurylink", "cox"), 33.4484, -112.0740),
        _city("Santa Barbara", "CA", 211, 6, 2.0, 79, ("frontier", "cox"), 34.4208, -119.6982),
        _city("Seattle", "WA", 634, 28, 2.1, 101, ("centurylink",), 47.6062, -122.3321),
        _city("Tampa", "FL", 536, 25, 1.5, 57, ("frontier", "spectrum"), 27.9506, -82.4572),
        _city("Virginia Beach City", "VA", 112, 4, 1.8, 80, ("verizon", "cox"), 36.8529, -75.9780),
        _city("Wichita", "KS", 304, 13, 1.3, 50, ("att", "cox"), 37.6872, -97.3301),
    )
}

CITY_NAMES: tuple[str, ...] = tuple(CITIES)


def get_city(name: str) -> CityInfo:
    """Look up a city by canonical key or display name.

    Raises:
        UnknownCityError: If the city is not one of the thirty study cities.
    """
    key = name.lower().replace(" ", "-").replace(".", "")
    try:
        return CITIES[key]
    except KeyError:
        raise UnknownCityError(name) from None


def cities_served_by(isp_name: str) -> tuple[CityInfo, ...]:
    """Return the study cities in which ``isp_name`` is active."""
    return tuple(city for city in CITIES.values() if isp_name in city.isps)


def total_block_groups() -> int:
    """Total block groups across all thirty cities (paper: ~18k)."""
    return sum(city.block_groups for city in CITIES.values())


def total_addresses_thousands() -> float:
    """Total queried addresses in thousands (paper: 837k)."""
    return sum(city.addresses_thousands for city in CITIES.values())
