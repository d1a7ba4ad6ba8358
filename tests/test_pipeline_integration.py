"""End-to-end integration: the pipeline recovers ground-truth structure.

The curation pipeline only ever touches the HTTP transport; these tests
compare what it *measured* against the world's ground truth — the
validation that the whole measurement chain (sampling -> BQT -> parsing ->
aggregation -> analysis) is honest and accurate.
"""

import numpy as np
import pytest

from repro.analysis import (
    competition_analysis,
    fiber_by_income,
    infer_market_modes,
    morans_i,
)
from repro.geo import queen_weights
from repro.isp.market import (
    MODE_CABLE_DSL_DUOPOLY,
    MODE_CABLE_FIBER_DUOPOLY,
)


class TestMeasurementAccuracy:
    def test_measured_cv_matches_ground_truth(self, tiny_world, tiny_dataset):
        """Block-group median cv from scraping == ground-truth offers."""
        city = tiny_world.city("new-orleans")
        medians = tiny_dataset.block_group_median_cv("new-orleans", "cox")
        checked = 0
        for geoid, measured in medians.items():
            truth_cvs = []
            for address in city.book.canonical_in(geoid)[:5]:
                offers = city.offers.offers_at("cox", address)
                if offers:
                    truth_cvs.append(max(p.cv for p in offers))
            if truth_cvs:
                # Cable plans are uniform within a block group, so the
                # measured median must equal the per-address truth.
                assert measured == pytest.approx(truth_cvs[0], rel=0.01)
                checked += 1
        assert checked >= 10

    def test_fiber_detection_matches_deployment(self, tiny_world, tiny_dataset):
        """Measured fiber presence matches the ground-truth footprint."""
        deployment = tiny_world.city("new-orleans").deployments["att"]
        measured = tiny_dataset.block_group_has_fiber("new-orleans", "att")
        agree = 0
        total = 0
        for geoid, has_fiber in measured.items():
            truth = geoid in deployment.fiber_geoids
            total += 1
            agree += has_fiber == truth
        assert total >= 20
        assert agree / total > 0.85

    def test_market_mode_inference_matches_truth(self, tiny_world, tiny_dataset):
        truth_market = tiny_world.city("new-orleans").market
        inferred = infer_market_modes(tiny_dataset, "new-orleans", "cox", "att")
        agree = 0
        total = 0
        for geoid, mode in inferred.items():
            total += 1
            agree += mode == truth_market.mode(geoid)
        assert total >= 20
        assert agree / total > 0.85

    def test_coverage_measured_correctly(self, tiny_world, tiny_dataset):
        """Block groups the telco does not cover show up as no-service."""
        deployment = tiny_world.city("new-orleans").deployments["att"]
        uncovered = {
            bg.geoid for bg in deployment.block_groups if not bg.covered
        }
        for obs in tiny_dataset.for_city_isp("new-orleans", "att"):
            if obs.block_group in uncovered and obs.is_hit:
                assert obs.status == "no_service"


class TestHeadlineFindings:
    """The paper's four key insights, recovered from measurement."""

    def test_competition_effect(self, tiny_dataset):
        report = competition_analysis(tiny_dataset, "new-orleans")
        fiber_test = report.test_for(MODE_CABLE_FIBER_DUOPOLY)
        assert fiber_test is not None
        assert fiber_test.conclusion == "duopoly_better"
        # ~30% uplift (paper: 14.63 vs 11.38).
        assert 10.0 < fiber_test.median_uplift_percent < 60.0

    def test_no_dsl_competition_effect(self, tiny_dataset):
        report = competition_analysis(tiny_dataset, "new-orleans")
        dsl_test = report.test_for(MODE_CABLE_DSL_DUOPOLY)
        if dsl_test is not None:
            assert dsl_test.conclusion != "duopoly_better" or (
                dsl_test.median_uplift_percent < 10.0
            )

    def test_income_fiber_gap(self, tiny_world, tiny_dataset):
        incomes = {
            r.geoid: r.median_household_income
            for r in tiny_world.city("new-orleans").acs
        }
        split = fiber_by_income(tiny_dataset, "new-orleans", "att", incomes)
        # Direction is asserted at bench scale (Figure 9) and against the
        # deployment model in test_isp.py; a 44-block-group world only
        # supports a structural sanity check.
        assert split.n_low + split.n_high >= 20
        assert 0.0 <= split.low_fiber_share <= 1.0
        assert 0.0 <= split.high_fiber_share <= 1.0
        assert split.gap_points == pytest.approx(
            100 * (split.high_fiber_share - split.low_fiber_share)
        )

    def test_spatial_clustering(self, tiny_world, tiny_dataset):
        grid = tiny_world.city("new-orleans").grid
        medians = tiny_dataset.block_group_median_cv("new-orleans", "cox")
        values = np.array([medians.get(bg.geoid, np.nan) for bg in grid])
        values = np.where(np.isnan(values), np.nanmean(values), values)
        result = morans_i(values, queen_weights(grid), n_permutations=99)
        assert result.statistic > 0.1

    def test_cable_dominates_best_of_pair(self, tiny_dataset):
        """Figure 7c: the best-of-pair surface equals the cable surface."""
        att = tiny_dataset.block_group_median_cv("new-orleans", "att")
        cox = tiny_dataset.block_group_median_cv("new-orleans", "cox")
        joint = set(att) & set(cox)
        assert joint
        cox_wins = sum(1 for g in joint if cox[g] >= att[g])
        assert cox_wins / len(joint) > 0.9


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
        from repro.world import WorldConfig, build_world

        def run():
            world = build_world(
                WorldConfig(seed=5, scale=0.05, cities=("wichita",))
            )
            pipeline = CurationPipeline(
                world,
                CurationConfig(
                    sampling=SamplingConfig(fraction=0.1, min_samples=5),
                    n_workers=10,
                ),
            )
            return pipeline.curate()

        a, b = run(), run()
        assert len(a) == len(b)
        for obs_a, obs_b in zip(a, b):
            assert obs_a.address_id == obs_b.address_id
            assert obs_a.status == obs_b.status
            assert obs_a.plans == obs_b.plans
