"""World builder: assemble the full simulated measurement environment.

A :class:`World` contains everything the paper's study environment had:

* thirty cities of synthetic census geography and ACS demographics;
* a noisy residential address feed per city (the Zillow stand-in);
* ground-truth ISP deployments, market structure and plan offers;
* one simulated BAT web application per ISP, registered on a shared
  in-process transport (``World.bats`` and ``World.transport``).

The apps and the transport are built on first use.  Direct BQT clients
read them (the examples, the scaling experiment, tests); the measurement
pipeline (:mod:`repro.dataset`) never does.  Each (city, ISP) shard
builds its own address index and BAT app from the city's ground truth:
the scalar engine queries that app through a fresh transport, and the
columnar path synthesizes the same walks from the same index and offers
(:mod:`repro.dataset.columnar`).  Tests and ablations read the ground
truth directly to validate what the pipeline recovers.

``WorldConfig.scale`` shrinks every city's block-group count
proportionally, so a laptop-scale world preserves the paper-scale
structure.  Everything is deterministic in ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .addresses.database import AddressIndex
from .addresses.generator import (
    AddressGeneratorConfig,
    CityAddressBook,
    generate_city_addresses,
)
from .addresses.model import Address
from .bat.app import BatApplication
from .bat.profiles import profile_for
from .errors import ConfigurationError, UnknownCityError
from .geo.acs import AcsTable, build_acs_table
from .geo.cities import CITIES, CityInfo, get_city
from .geo.grid import CityGrid, scaled_block_group_count
from .isp.deployment import (
    CityDeployment,
    DeploymentConfig,
    build_city_deployment,
)
from .isp.market import CityMarket, build_city_market
from .isp.offers import CityOffers, OfferConfig
from .isp.plans import Plan
from .isp.providers import ISP_NAMES
from .net.latency import LatencyModel
from .net.transport import InProcessTransport
from .seeding import derive_seed

__all__ = [
    "WorldConfig",
    "CityWorld",
    "World",
    "build_world",
    "build_city_world",
    "offer_resolver",
]


@dataclass(frozen=True)
class WorldConfig:
    """Configuration of a simulated world.

    Attributes:
        seed: Master seed; every component derives from it.
        scale: Block-group scale factor (1.0 = paper scale, ~18k BGs).
        cities: City keys to build (default: all thirty).
        addresses: Address-generation knobs (feed size, noise).
        deployment: Ground-truth deployment knobs (ablation hooks).
        offers: Offer-rule knobs (ablation hooks).
        latency: Network RTT model for the in-process transport.
    """

    seed: int = 42
    scale: float = 0.05
    cities: tuple[str, ...] | None = None
    addresses: AddressGeneratorConfig = field(default_factory=AddressGeneratorConfig)
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    offers: OfferConfig = field(default_factory=OfferConfig)
    latency: LatencyModel = field(default_factory=LatencyModel.residential_proxy)

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")

    def city_infos(self) -> tuple[CityInfo, ...]:
        if self.cities is None:
            return tuple(CITIES.values())
        return tuple(get_city(name) for name in self.cities)


@dataclass
class CityWorld:
    """Everything belonging to one city."""

    info: CityInfo
    grid: CityGrid
    acs: AcsTable
    book: CityAddressBook
    deployments: dict[str, CityDeployment]
    market: CityMarket
    offers: CityOffers


class World:
    """The assembled simulation: cities + BAT servers on a transport.

    ``bats`` and ``transport`` are built on first access, not by
    :func:`build_world`.  Make that first access on one thread, before
    the world is shared across threads.
    """

    def __init__(self, config: WorldConfig, cities: dict[str, CityWorld]) -> None:
        self.config = config
        self.cities = cities

    @cached_property
    def bats(self) -> dict[str, BatApplication]:
        """One BAT app per active ISP, serving all of that ISP's cities."""
        bats: dict[str, BatApplication] = {}
        for isp_name in sorted(self.active_isps()):
            canonical: list[Address] = []
            for cw in self.cities.values():
                if isp_name in cw.info.isps:
                    canonical.extend(cw.book.canonical)
            bats[isp_name] = BatApplication(
                profile=profile_for(isp_name),
                index=AddressIndex(tuple(canonical)),
                offers=offer_resolver(self.cities, isp_name),
                seed=self.config.seed,
            )
        return bats

    @cached_property
    def transport(self) -> InProcessTransport:
        """An in-process transport with every app of :attr:`bats` registered."""
        transport = InProcessTransport(
            latency=self.config.latency, seed=derive_seed(self.config.seed, "transport")
        )
        for app in self.bats.values():
            transport.register(app)
        return transport

    @property
    def seed(self) -> int:
        return self.config.seed

    def city(self, name: str) -> CityWorld:
        try:
            return self.cities[name]
        except KeyError:
            raise UnknownCityError(name) from None

    def active_isps(self) -> tuple[str, ...]:
        """ISPs present in at least one built city."""
        active = {isp for cw in self.cities.values() for isp in cw.info.isps}
        return tuple(name for name in ISP_NAMES if name in active)

    def cities_of(self, isp_name: str) -> tuple[str, ...]:
        return tuple(
            name for name, cw in self.cities.items() if isp_name in cw.info.isps
        )

    def ground_truth_offers(self, isp_name: str, address: Address) -> tuple[Plan, ...]:
        """Validation helper — never used by the measurement pipeline."""
        return self.cities[address.city].offers.offers_at(isp_name, address)


def _build_city(config: WorldConfig, info: CityInfo) -> CityWorld:
    grid = CityGrid(info, scaled_block_group_count(info, config.scale), seed=config.seed)
    acs = build_acs_table(grid, config.seed)
    book = generate_city_addresses(grid, config.addresses, config.seed)
    deployments = {
        isp: build_city_deployment(isp, grid, acs, config.seed, config.deployment)
        for isp in info.isps
    }
    market = build_city_market(grid, deployments)
    offers = CityOffers(grid, acs, deployments, market, config.seed, config.offers)
    return CityWorld(
        info=info,
        grid=grid,
        acs=acs,
        book=book,
        deployments=deployments,
        market=market,
        offers=offers,
    )


def build_city_world(config: WorldConfig, city: str) -> CityWorld:
    """Build one city's ground truth in isolation.

    Construction is a pure function of ``(config, city)`` — the same city
    built inside :func:`build_world` or here is identical, regardless of
    which other cities the configuration names.  The process-pool curation
    backend relies on this to rebuild a shard's city inside a worker
    process instead of pickling live world objects.
    """
    return _build_city(config, get_city(city))


def offer_resolver(world_cities: dict[str, CityWorld], isp_name: str):
    """BAT-side offer lookup over a set of cities for one ISP.

    Returns the resolver a :class:`~repro.bat.app.BatApplication` consumes:
    an empty tuple for any address outside the given cities or the ISP's
    deployments (the "no service" page).  Used both by :attr:`World.bats`
    (all of an ISP's cities) and by the curation pipeline's per-shard BAT
    instances (a single city).
    """

    def resolve(address: Address) -> tuple[Plan, ...]:
        city_world = world_cities.get(address.city)
        if city_world is None or isp_name not in city_world.deployments:
            return ()
        return city_world.offers.offers_at(isp_name, address)

    return resolve


def build_world(config: WorldConfig | None = None) -> World:
    """Build a complete simulated world from a configuration."""
    config = config or WorldConfig()
    cities = {info.name: _build_city(config, info) for info in config.city_infos()}
    return World(config=config, cities=cities)
