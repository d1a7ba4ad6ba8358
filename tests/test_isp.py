"""Tests for the ISP substrate: plans, deployment, market, offers."""

import numpy as np
import pytest

from repro.errors import IspError, UnknownIspError
from repro.geo import CityGrid, build_acs_table, get_city
from repro.isp import (
    CABLE_ISPS,
    DSL_FIBER_ISPS,
    ISP_NAMES,
    MODE_CABLE_DSL_DUOPOLY,
    MODE_CABLE_FIBER_DUOPOLY,
    MODE_CABLE_MONOPOLY,
    CityOffers,
    DeploymentConfig,
    OfferConfig,
    build_city_deployment,
    build_city_market,
    carriage_value,
    catalog_for,
    dsl_plans,
    fiber_plans,
    get_isp,
)


class TestProviders:
    def test_seven_isps(self):
        assert len(ISP_NAMES) == 7

    def test_categories(self):
        assert set(CABLE_ISPS) == {"spectrum", "cox", "xfinity"}
        assert set(DSL_FIBER_ISPS) == {"att", "verizon", "centurylink", "frontier"}

    def test_lookup_case_insensitive(self):
        assert get_isp("Cox").name == "cox"

    def test_unknown_raises(self):
        with pytest.raises(UnknownIspError):
            get_isp("starlink")

    def test_bat_hostnames_unique(self):
        hosts = {get_isp(n).bat_hostname for n in ISP_NAMES}
        assert len(hosts) == 7


class TestPlans:
    def test_carriage_value_paper_example(self):
        # Section 1: 100 Mbps at $50 is 2 Mbps/$.
        assert carriage_value(100, 50) == 2.0

    def test_carriage_value_validation(self):
        with pytest.raises(IspError):
            carriage_value(100, 0)
        with pytest.raises(IspError):
            carriage_value(-1, 50)

    def test_table1_plan_counts(self):
        expected = {"att": 11, "verizon": 4, "centurylink": 8, "frontier": 2,
                    "spectrum": 5, "cox": 6, "xfinity": 3}
        for isp, count in expected.items():
            assert len(catalog_for(isp)) == count, isp

    def test_plan_ids_unique(self):
        for isp in ISP_NAMES:
            ids = [p.plan_id for p in catalog_for(isp)]
            assert len(set(ids)) == len(ids)

    def test_cable_plans_all_cable_tech(self):
        for isp in CABLE_ISPS:
            assert all(p.technology == "cable" for p in catalog_for(isp))

    def test_telco_plans_dsl_or_fiber(self):
        for isp in DSL_FIBER_ISPS:
            assert dsl_plans(isp), isp
            assert fiber_plans(isp), isp

    def test_att_new_orleans_example(self):
        # Section 5.1's worked example: AT&T fiber 1000/$80 -> 12.5,
        # 500/$65 -> 7.7, 300/$55 -> 5.5.
        cvs = {p.plan_id: p.cv for p in catalog_for("att")}
        assert cvs["att-fiber-1000"] == pytest.approx(12.5)
        assert cvs["att-fiber-500"] == pytest.approx(7.69, abs=0.01)
        assert cvs["att-fiber-300"] == pytest.approx(5.45, abs=0.01)

    def test_cox_key_tiers(self):
        # The Figure 8 medians: 11.36 (monopoly) and 14.60 (fiber duopoly),
        # plus the 28.6 maximum of Table 1.
        cvs = sorted(round(p.cv, 2) for p in catalog_for("cox"))
        assert 11.36 in cvs
        assert 14.6 in cvs
        assert cvs[-1] == pytest.approx(28.57, abs=0.01)

    def test_fiber_plans_symmetric(self):
        for isp in DSL_FIBER_ISPS:
            for plan in fiber_plans(isp):
                assert plan.upload_mbps / plan.download_mbps > 0.85

    def test_with_speed_override(self):
        plan = dsl_plans("frontier")[0]
        slow = plan.with_speed(0.2, 0.2)
        assert slow.download_mbps == 0.2
        assert slow.monthly_price == plan.monthly_price
        assert slow.cv < plan.cv

    def test_unknown_catalog_raises(self):
        with pytest.raises(IspError):
            catalog_for("starlink")


@pytest.fixture(scope="module")
def city_setup():
    grid = CityGrid(get_city("new-orleans"), 80, seed=11)
    acs = build_acs_table(grid, seed=11)
    deployments = {
        isp: build_city_deployment(isp, grid, acs, seed=11)
        for isp in ("att", "cox")
    }
    market = build_city_market(grid, deployments)
    offers = CityOffers(grid, acs, deployments, market, seed=11)
    return grid, acs, deployments, market, offers


class TestDeployment:
    def test_cable_covers_nearly_all(self, city_setup):
        _, _, deployments, _, _ = city_setup
        covered = len(deployments["cox"].covered_geoids)
        assert covered >= 0.9 * 80

    def test_telco_coverage_lower(self, city_setup):
        _, _, deployments, _, _ = city_setup
        assert len(deployments["att"].covered_geoids) <= len(
            deployments["cox"].covered_geoids
        )

    def test_pinned_fiber_share(self, city_setup):
        _, _, deployments, _, _ = city_setup
        # New Orleans is pinned at 0.49 (Section 5.2 / 5.5 case study).
        assert deployments["att"].fiber_share() == pytest.approx(0.49, abs=0.08)

    def test_cable_has_no_fiber_geoids(self, city_setup):
        _, _, deployments, _, _ = city_setup
        assert deployments["cox"].fiber_geoids == frozenset()

    def test_income_bias(self):
        grid = CityGrid(get_city("chicago"), 150, seed=5)
        acs = build_acs_table(grid, seed=5)
        dep = build_city_deployment(
            "att", grid, acs, seed=5, config=DeploymentConfig(income_weight=0.9)
        )
        incomes = acs.incomes()
        fiber = np.array([g.geoid in dep.fiber_geoids for g in grid])
        covered = np.array([dep.covers(g.geoid) for g in grid])
        mask = covered
        fiber_income = incomes[mask & fiber].mean()
        dsl_income = incomes[mask & ~fiber].mean()
        assert fiber_income > dsl_income

    def test_income_blind_ablation(self):
        config = DeploymentConfig().income_blind()
        assert config.income_weight == 0.0

    def test_unclustered_ablation(self):
        config = DeploymentConfig().unclustered()
        assert config.clustered is False

    def test_dsl_classes_in_range(self, city_setup):
        _, _, deployments, _, _ = city_setup
        for bg in deployments["att"].block_groups:
            assert 0 <= bg.dsl_speed_class <= 4

    def test_deterministic(self):
        grid = CityGrid(get_city("fargo"), 10, seed=2)
        acs = build_acs_table(grid, seed=2)
        a = build_city_deployment("centurylink", grid, acs, seed=2)
        b = build_city_deployment("centurylink", grid, acs, seed=2)
        assert a.fiber_geoids == b.fiber_geoids

    def test_unknown_geoid_raises(self, city_setup):
        _, _, deployments, _, _ = city_setup
        with pytest.raises(IspError):
            deployments["att"].at("nope")


class TestMarket:
    def test_modes_partition(self, city_setup):
        grid, _, _, market, _ = city_setup
        counts = market.mode_counts()
        assert sum(counts.values()) == len(grid)

    def test_fiber_duopoly_matches_deployment(self, city_setup):
        grid, _, deployments, market, _ = city_setup
        for geoid in market.geoids_in_mode(MODE_CABLE_FIBER_DUOPOLY):
            assert deployments["att"].at(geoid).technology == "fiber"
            assert deployments["cox"].covers(geoid)

    def test_monopoly_means_no_telco(self, city_setup):
        _, _, deployments, market, _ = city_setup
        for geoid in market.geoids_in_mode(MODE_CABLE_MONOPOLY):
            assert not deployments["att"].covers(geoid)

    def test_two_cable_isps_rejected(self, city_setup):
        grid, _, deployments, _, _ = city_setup
        fake = {"cox": deployments["cox"], "spectrum": deployments["cox"]}
        with pytest.raises(IspError):
            build_city_market(grid, fake)


class TestOffers:
    def _address_in(self, grid, geoid):
        from tests.test_addresses import make_address

        return make_address(block_group=geoid, city="new-orleans")

    def test_cable_offers_same_within_block_group(self, city_setup):
        grid, _, deployments, market, offers = city_setup
        geoid = next(iter(deployments["cox"].covered_geoids))
        a = offers.offers_at("cox", self._address_in(grid, geoid))
        b = offers.offers_at(
            "cox",
            self._address_in(grid, geoid).with_unit("Apt 9"),
        )
        assert {p.plan_id for p in a} == {p.plan_id for p in b}

    def test_uncovered_returns_empty(self, city_setup):
        grid, _, deployments, _, offers = city_setup
        uncovered = [
            bg.geoid
            for bg in deployments["att"].block_groups
            if not bg.covered
        ]
        if uncovered:
            assert offers.offers_at("att", self._address_in(grid, uncovered[0])) == ()

    def test_fiber_duopoly_gets_competitive_tier(self, city_setup):
        grid, _, _, market, offers = city_setup
        fiber_geoids = market.geoids_in_mode(MODE_CABLE_FIBER_DUOPOLY)
        best = [
            offers.best_cv_at("cox", self._address_in(grid, g))
            for g in fiber_geoids
        ]
        # With competition response, most fiber-duopoly BGs see >= 14.6
        # (modulo the ACP tail which only raises cv further).
        assert np.median([b for b in best if b is not None]) >= 14.0

    def test_monopoly_and_dsl_lower_tier(self, city_setup):
        grid, _, _, market, offers = city_setup
        base_geoids = market.geoids_in_mode(
            MODE_CABLE_MONOPOLY
        ) + market.geoids_in_mode(MODE_CABLE_DSL_DUOPOLY)
        best = [
            offers.best_cv_at("cox", self._address_in(grid, g))
            for g in base_geoids
        ]
        values = [b for b in best if b is not None and b < 20]  # prune ACP
        assert values and np.median(values) < 13.5

    def test_competition_ablation_removes_uplift(self):
        grid = CityGrid(get_city("new-orleans"), 60, seed=13)
        acs = build_acs_table(grid, seed=13)
        deployments = {
            isp: build_city_deployment(isp, grid, acs, seed=13)
            for isp in ("att", "cox")
        }
        market = build_city_market(grid, deployments)
        offers = CityOffers(
            grid, acs, deployments, market, seed=13,
            config=OfferConfig(competition_response=False, acp_enabled=False),
        )
        from tests.test_addresses import make_address

        best = []
        for geoid in market.geoids_in_mode(MODE_CABLE_FIBER_DUOPOLY):
            cv = offers.best_cv_at(
                "cox", make_address(block_group=geoid, city="new-orleans")
            )
            if cv is not None:
                best.append(cv)
        assert best and max(best) < 14.0

    def test_acp_only_in_poorest_block_groups(self, city_setup):
        grid, acs, deployments, _, offers = city_setup
        incomes = acs.incomes()
        threshold = np.quantile(incomes, 0.10)
        for bg in grid:
            if not deployments["cox"].covers(bg.geoid):
                continue
            plans = offers.offers_at(
                "cox", self._address_in(grid, bg.geoid)
            )
            has_acp = any(p.plan_id.endswith("-acp") for p in plans)
            if incomes[bg.index] > threshold:
                assert not has_acp

    def test_telco_dsl_address_gets_single_dsl_plan(self, city_setup):
        grid, _, deployments, _, offers = city_setup
        dsl_geoid = next(
            bg.geoid
            for bg in deployments["att"].block_groups
            if bg.covered and bg.technology == "dsl"
        )
        plans = offers.offers_at("att", self._address_in(grid, dsl_geoid))
        non_acp = [p for p in plans if not p.plan_id.endswith("-acp")]
        assert len(non_acp) == 1
        assert non_acp[0].technology == "dsl"

    def test_fiber_block_group_mixed_addresses(self, city_setup):
        grid, _, deployments, _, offers = city_setup
        fiber_geoid = next(
            bg.geoid
            for bg in deployments["att"].block_groups
            if bg.covered and bg.technology == "fiber"
        )
        from tests.test_addresses import make_address

        techs = set()
        for number in range(1, 120):
            address = make_address(
                house_number=number, block_group=fiber_geoid, city="new-orleans"
            )
            plans = offers.offers_at("att", address)
            if plans:
                techs.add(max(plans, key=lambda p: p.cv).technology)
        # ~85% fiber pass rate: both techs appear in a fiber block group,
        # producing the Figure 4 CoV long tail.
        assert techs == {"fiber", "dsl"}

    def test_inactive_isp_raises(self, city_setup):
        grid, _, _, _, offers = city_setup
        with pytest.raises(IspError):
            offers.offers_at("verizon", self._address_in(grid, "x"))

    def test_xfinity_location_invariant(self):
        grid = CityGrid(get_city("atlanta"), 40, seed=17)
        acs = build_acs_table(grid, seed=17)
        deployments = {
            isp: build_city_deployment(isp, grid, acs, seed=17)
            for isp in ("att", "xfinity")
        }
        market = build_city_market(grid, deployments)
        offers = CityOffers(grid, acs, deployments, market, seed=17)
        from tests.test_addresses import make_address

        plan_sets = set()
        for bg in grid:
            if deployments["xfinity"].covers(bg.geoid):
                plans = offers.offers_at(
                    "xfinity",
                    make_address(block_group=bg.geoid, city="atlanta"),
                )
                plan_sets.add(tuple(sorted(p.plan_id for p in plans)))
        assert len(plan_sets) == 1  # identical everywhere (Section 4.1)
