"""Per-address plan offers — what a BAT ultimately displays.

Given the ground-truth deployment and market structure, this module decides
which subset of an ISP's national catalog is offered at a concrete street
address.  The rules encode the paper's observed pricing structure:

* **Cable ISPs** offer the same plans to every address in a block group,
  but the *best* tier varies by block group, and in cable-fiber-duopoly
  block groups they respond to competition with discounted high-carriage
  tiers (Section 5.4: Cox's fiber-competition median is ~30% above its
  monopoly median).
* **DSL/fiber ISPs** offer fiber tiers where fiber passes the address and
  otherwise the best attainable DSL tier, which is bounded by the block
  group's loop-quality class (the source of the 600% intra-city spread and
  the Figure 4 long tail).
* In the lowest-income block groups, cable ISPs offer an ACP-subsidized
  variant (the long high-cv tail the paper prunes from Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..addresses.model import Address
from ..errors import IspError
from ..geo.acs import AcsTable
from ..geo.grid import CityGrid
from ..seeding import derive_seed
from .deployment import CityDeployment
from .market import MODE_CABLE_FIBER_DUOPOLY, CityMarket
from .plans import Plan, catalog_for, dsl_plans, fiber_plans
from .providers import get_isp

__all__ = ["OfferConfig", "CityOffers"]


@dataclass(frozen=True)
class OfferConfig:
    """Knobs of the offer-generation rules.

    Attributes:
        competition_response: If False (ablation), cable ISPs ignore fiber
            competition and price every block group like a monopoly; this
            erases the Figure 8 separation.
        acp_enabled: Offer ACP-subsidized variants in the poorest block
            groups (bottom ``acp_income_quantile`` of city income).
        acp_discount: Monthly ACP subsidy in dollars (the FCC program is $30).
        acp_price_floor: Minimum post-subsidy price.
    """

    competition_response: bool = True
    acp_enabled: bool = True
    acp_income_quantile: float = 0.10
    acp_discount: float = 30.0
    acp_price_floor: float = 10.0

    def without_competition_response(self) -> "OfferConfig":
        return OfferConfig(
            competition_response=False,
            acp_enabled=self.acp_enabled,
            acp_income_quantile=self.acp_income_quantile,
            acp_discount=self.acp_discount,
            acp_price_floor=self.acp_price_floor,
        )


# Cable best-tier pools.  Weights are per-city perturbed; the plan ids refer
# to the catalogs in plans.py.
_CABLE_BASE_TIERS: dict[str, tuple[tuple[str, float], ...]] = {
    "cox": (
        ("cox-essential", 0.55),   # cv 11.36 — the Figure 8 monopoly median
        ("cox-turbo", 0.20),       # cv 12.50
        ("cox-preferred", 0.13),   # cv 10.53
        ("cox-gigablast", 0.12),   # cv 10.00
    ),
    "spectrum": (
        ("sp-promo", 0.70),        # cv 11.11
        ("sp-ultra", 0.15),        # cv 7.14
        ("sp-standard", 0.15),     # cv 6.00
    ),
}

_CABLE_FIBER_TIERS: dict[str, tuple[tuple[str, float], ...]] = {
    "cox": (
        ("cox-giga-promo", 0.80),   # cv 14.60 — fiber-competition response
        ("cox-giga-special", 0.20),  # cv 28.57 — aggressive promo pockets
    ),
    "spectrum": (
        ("sp-gig", 1.00),           # cv 14.29
    ),
}

# Always-offered low tiers shown alongside the block group's best tier.
_CABLE_FLOOR_TIERS: dict[str, tuple[str, ...]] = {
    "cox": ("cox-essential", "cox-preferred"),
    "spectrum": ("sp-assist", "sp-standard"),
    "xfinity": ("xf-essentials", "xf-fast", "xf-gigextra"),
}

# DSL loop class -> highest offered DSL tier index (tiers sorted by speed).
_DSL_CLASS_MAX_TIER: dict[int, int] = {0: 0, 1: 2, 2: 4, 3: 5, 4: 6}

# Frontier's single DSL plan advertises the attainable speed directly.
_FRONTIER_DSL_SPEEDS: tuple[float, ...] = (0.2, 1.5, 6.0, 25.0, 115.0)


def _perturbed_weights(
    base: tuple[tuple[str, float], ...], rng: np.random.Generator
) -> tuple[tuple[str, float], ...]:
    """Jitter tier weights so each city has its own plan mix (Figure 5b)."""
    raw = np.array([w for _, w in base])
    jitter = rng.uniform(0.6, 1.6, size=len(raw))
    weights = raw * jitter
    weights /= weights.sum()
    return tuple((plan_id, float(w)) for (plan_id, _), w in zip(base, weights))


class CityOffers:
    """Offer engine for one city: (isp, address) -> offered plans."""

    def __init__(
        self,
        grid: CityGrid,
        acs: AcsTable,
        deployments: dict[str, CityDeployment],
        market: CityMarket,
        seed: int,
        config: OfferConfig | None = None,
    ) -> None:
        self.grid = grid
        self.acs = acs
        self.deployments = deployments
        self.market = market
        self.config = config or OfferConfig()
        self._seed = seed
        self._plans_by_id: dict[str, dict[str, Plan]] = {}
        self._cable_tier_by_bg: dict[str, dict[str, str]] = {}
        incomes = acs.incomes()
        self._acp_threshold = float(
            np.quantile(incomes, self.config.acp_income_quantile)
        )
        for isp_name in deployments:
            self._plans_by_id[isp_name] = {
                p.plan_id: p for p in catalog_for(isp_name)
            }
            if get_isp(isp_name).is_cable and isp_name in _CABLE_BASE_TIERS:
                self._cable_tier_by_bg[isp_name] = self._assign_cable_tiers(isp_name)

    # ------------------------------------------------------------------
    # Tier assignment
    # ------------------------------------------------------------------
    def _assign_cable_tiers(self, isp_name: str) -> dict[str, str]:
        """Choose each block group's best cable tier for this city.

        Tier choice is driven by spatially correlated uniform fields (one
        for the base pool, one for the competitive pool), so contiguous
        neighborhoods receive the same tier — the cable-side spatial
        clustering the paper measures in Table 3.
        """
        from ..geo.fields import correlated_uniform_field, field_to_grid_values

        rng = np.random.default_rng(
            derive_seed(self._seed, "cable-tier", isp_name, self.grid.city.name)
        )
        base_pool = _perturbed_weights(_CABLE_BASE_TIERS[isp_name], rng)
        fiber_pool = _perturbed_weights(_CABLE_FIBER_TIERS[isp_name], rng)
        base_values = field_to_grid_values(
            correlated_uniform_field(
                self.grid.rows, self.grid.cols, rng, smoothing_radius=1
            ),
            self.grid,
        )
        fiber_values = field_to_grid_values(
            correlated_uniform_field(
                self.grid.rows, self.grid.cols, rng, smoothing_radius=1
            ),
            self.grid,
        )

        def pick(pool: tuple[tuple[str, float], ...], quantile: float) -> str:
            edges = np.cumsum([w for _, w in pool])
            edges = edges / edges[-1]
            index = int(np.searchsorted(edges, quantile, side="right"))
            return pool[min(index, len(pool) - 1)][0]

        deployment = self.deployments[isp_name]
        tiers: dict[str, str] = {}
        for bg in self.grid:
            if not deployment.covers(bg.geoid):
                continue
            mode = self.market.mode(bg.geoid)
            competitive = (
                mode == MODE_CABLE_FIBER_DUOPOLY and self.config.competition_response
            )
            if competitive:
                tiers[bg.geoid] = pick(fiber_pool, float(fiber_values[bg.index]))
            else:
                tiers[bg.geoid] = pick(base_pool, float(base_values[bg.index]))
        return tiers

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def offers_at(self, isp_name: str, address: Address) -> tuple[Plan, ...]:
        """The plans the ISP's BAT displays for this address.

        Returns an empty tuple when the ISP does not serve the address's
        block group (the BAT shows a "no service" page).
        """
        isp = get_isp(isp_name)
        if isp_name not in self.deployments:
            raise IspError(
                f"{isp.display_name} is not active in {self.grid.city.name}"
            )
        deployment = self.deployments[isp_name]
        bg = deployment.at(address.block_group)
        if not bg.covered:
            return ()
        if isp.is_cable:
            plans = self._cable_offers(isp_name, address.block_group)
        else:
            plans = self._telco_offers(isp_name, address)
        return self._with_acp(plans, address)

    def best_cv_at(self, isp_name: str, address: Address) -> float | None:
        """Ground-truth best carriage value at an address (for validation)."""
        offers = self.offers_at(isp_name, address)
        if not offers:
            return None
        return max(plan.cv for plan in offers)

    # ------------------------------------------------------------------
    # Cable rules
    # ------------------------------------------------------------------
    def _cable_offers(self, isp_name: str, geoid: str) -> tuple[Plan, ...]:
        plans_by_id = self._plans_by_id[isp_name]
        offered: dict[str, Plan] = {}
        for plan_id in _CABLE_FLOOR_TIERS.get(isp_name, ()):
            offered[plan_id] = plans_by_id[plan_id]
        tier = self._cable_tier_by_bg.get(isp_name, {}).get(geoid)
        if tier is not None:
            offered[tier] = plans_by_id[tier]
        return tuple(offered.values())

    # ------------------------------------------------------------------
    # DSL / fiber rules
    # ------------------------------------------------------------------
    def _address_gets_fiber(self, isp_name: str, address: Address) -> bool:
        """Deterministic per-address fiber pass within a fiber block group."""
        bg = self.deployments[isp_name].at(address.block_group)
        if bg.technology != "fiber":
            return False
        draw = derive_seed(
            self._seed, "fiber-pass", isp_name, address.street_line(), address.zip_code
        )
        uniform = (draw % 10_000_000) / 10_000_000.0
        return uniform < bg.fiber_address_fraction

    def _telco_offers(self, isp_name: str, address: Address) -> tuple[Plan, ...]:
        bg = self.deployments[isp_name].at(address.block_group)
        if bg.technology == "fiber" and self._address_gets_fiber(isp_name, address):
            offered = fiber_plans(isp_name)
            # The entry fiber tier is only marketed where copper is poor.
            if isp_name == "att" and bg.dsl_speed_class > 1:
                offered = tuple(p for p in offered if p.plan_id != "att-fiber-100")
            return offered
        return self._dsl_offers(isp_name, bg.dsl_speed_class)

    def _dsl_offers(self, isp_name: str, speed_class: int) -> tuple[Plan, ...]:
        tiers = sorted(dsl_plans(isp_name), key=lambda p: p.download_mbps)
        if not tiers:
            return ()
        if isp_name == "frontier":
            plan = tiers[0]
            down = _FRONTIER_DSL_SPEEDS[min(speed_class, len(_FRONTIER_DSL_SPEEDS) - 1)]
            up = min(plan.upload_mbps, max(0.2, round(down * 0.06, 2)))
            return (plan.with_speed(down, up),)
        if isp_name == "verizon":
            return (tiers[0],)
        max_tier = min(_DSL_CLASS_MAX_TIER[min(speed_class, 4)], len(tiers) - 1)
        # ISPs sell a single "up to X" DSL product per address: the fastest
        # tier the loop supports.
        return (tiers[max_tier],)

    # ------------------------------------------------------------------
    # ACP subsidy
    # ------------------------------------------------------------------
    def _with_acp(self, plans: tuple[Plan, ...], address: Address) -> tuple[Plan, ...]:
        if not plans or not self.config.acp_enabled:
            return plans
        # Xfinity's BAT does not surface ACP pricing — its offerings are
        # location-invariant in the paper's data (Section 4.1), which is
        # also what makes its Table 3 Moran's I exactly zero.
        if plans[0].isp == "xfinity":
            return plans
        if self.acs.income(address.block_group) > self._acp_threshold:
            return plans
        best = max(plans, key=lambda p: p.cv)
        discounted_price = max(
            self.config.acp_price_floor, best.monthly_price - self.config.acp_discount
        )
        if discounted_price >= best.monthly_price:
            return plans
        subsidized = Plan(
            isp=best.isp,
            plan_id=best.plan_id + "-acp",
            name=best.name + " (ACP)",
            download_mbps=best.download_mbps,
            upload_mbps=best.upload_mbps,
            monthly_price=discounted_price,
            technology=best.technology,
        )
        return plans + (subsidized,)
