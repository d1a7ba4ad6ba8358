"""Tests for the container fleet, world builder, and competition analysis
on multi-city datasets."""

from collections import Counter

import numpy as np
import pytest

from repro.addresses.database import AddressIndex
from repro.analysis import city_pair_l1_norms, competition_analysis
from repro.bat.app import BatApplication
from repro.core import ContainerFleet
from repro.dataset.sampling import SamplingConfig, sample_city
from repro.errors import ConfigurationError, UnknownCityError
from repro.isp.market import MODE_CABLE_FIBER_DUOPOLY
from repro.world import WorldConfig, build_world


class TestWorldBuilder:
    def test_city_components_consistent(self, tiny_world):
        city = tiny_world.city("new-orleans")
        assert len(city.acs) == len(city.grid)
        assert set(city.book.block_groups) == {bg.geoid for bg in city.grid}

    def test_bats_registered(self, tiny_world):
        for isp, app in tiny_world.bats.items():
            assert tiny_world.transport.knows_host(app.hostname)

    def test_bats_and_transport_built_on_first_use(self, monkeypatch):
        built = Counter()
        for cls in (AddressIndex, BatApplication):

            def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls.__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        world = build_world(
            WorldConfig(seed=42, scale=0.04, cities=("wichita", "oklahoma-city"))
        )
        assert not built

        bats = world.bats
        assert list(bats) == sorted(world.active_isps())
        transport = world.transport
        for app in bats.values():
            assert transport.knows_host(app.hostname)
        assert sorted(transport.hosts) == sorted(app.hostname for app in bats.values())
        assert world.bats is bats and world.transport is transport
        assert built == {"AddressIndex": len(bats), "BatApplication": len(bats)}

    def test_active_isps(self, tiny_world):
        assert set(tiny_world.active_isps()) == {"att", "cox"}

    def test_unknown_city_raises(self, tiny_world):
        with pytest.raises(UnknownCityError):
            tiny_world.city("gotham")

    def test_bad_scale_raises(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(scale=0.0)

    def test_ground_truth_offers_accessible(self, tiny_world):
        address = tiny_world.city("new-orleans").book.canonical[0]
        offers = tiny_world.ground_truth_offers("cox", address)
        assert isinstance(offers, tuple)

    def test_cities_of(self, two_city_world):
        assert set(two_city_world.cities_of("cox")) == {
            "wichita",
            "oklahoma-city",
        }


class TestContainerFleet:
    @pytest.fixture(scope="class")
    def tasks(self, tiny_world):
        book = tiny_world.city("new-orleans").book
        samples = sample_city(
            book, SamplingConfig(0.1, 5), tiny_world.seed, "cox"
        )
        entries = [e for geoid in sorted(samples) for e in samples[geoid]]
        return [("cox", e.street_line, e.zip_code) for e in entries[:60]]

    def test_all_tasks_answered_in_order(self, tiny_world, tasks):
        fleet = ContainerFleet(tiny_world.transport, n_workers=6, seed=1)
        report = fleet.run(tasks)
        assert report.total_queries == len(tasks)
        for (isp, line, _), result in zip(tasks, report.results):
            assert result.isp == isp
            assert result.input_line == line

    def test_parallel_speedup(self, tiny_world, tasks):
        serial = ContainerFleet(tiny_world.transport, n_workers=1, seed=1).run(tasks)
        parallel = ContainerFleet(tiny_world.transport, n_workers=10, seed=1).run(tasks)
        assert parallel.wall_clock_seconds < serial.wall_clock_seconds / 4
        assert parallel.speedup > 4.0

    def test_response_times_flat_across_fleet_sizes(self, tiny_world, tasks):
        """The Section 4.1 result: per-query time unaffected by fleet size."""
        small = ContainerFleet(tiny_world.transport, n_workers=2, seed=1).run(tasks)
        large = ContainerFleet(tiny_world.transport, n_workers=20, seed=1).run(tasks)
        assert large.mean_query_seconds == pytest.approx(
            small.mean_query_seconds, rel=0.25
        )

    def test_distinct_ips_per_worker(self, tiny_world, tasks):
        fleet = ContainerFleet(tiny_world.transport, n_workers=5, seed=1)
        report = fleet.run(tasks[:10])
        assert report.n_workers == 5

    def test_pool_released_after_run(self, tiny_world, tasks):
        from repro.net import ResidentialProxyPool

        pool = ResidentialProxyPool(4, seed=2)
        fleet = ContainerFleet(
            tiny_world.transport, n_workers=4, seed=1, proxy_pool=pool
        )
        fleet.run(tasks[:8])
        assert pool.available == 4

    def test_zero_workers_rejected(self, tiny_world):
        with pytest.raises(ConfigurationError):
            ContainerFleet(tiny_world.transport, n_workers=0)

    def test_high_hit_rate(self, tiny_world, tasks):
        report = ContainerFleet(tiny_world.transport, n_workers=8, seed=1).run(tasks)
        hits = sum(1 for r in report.results if r.is_hit)
        assert hits / len(tasks) > 0.8


class TestMultiCityAnalyses:
    def test_l1_norms_between_cities(self, two_city_dataset):
        norms = city_pair_l1_norms(two_city_dataset, "cox")
        assert ("oklahoma-city", "wichita") in norms
        assert 0.0 <= norms[("oklahoma-city", "wichita")] <= 2.0

    def test_competition_in_both_cities(self, two_city_dataset):
        for city in ("wichita", "oklahoma-city"):
            report = competition_analysis(two_city_dataset, city)
            assert report.cable_isp == "cox"
            assert report.telco_isp == "att"
            fiber_test = report.test_for(MODE_CABLE_FIBER_DUOPOLY)
            if fiber_test is not None:
                assert fiber_test.duopoly.median() > fiber_test.monopoly.median() * 0.95

    def test_fiber_shares_differ_between_cities(self, two_city_dataset):
        """Figure 5a: the fiber-peak share varies by city."""
        shares = {}
        for city in ("wichita", "oklahoma-city"):
            fiber = two_city_dataset.block_group_has_fiber(city, "att")
            if fiber:
                shares[city] = float(np.mean(list(fiber.values())))
        assert len(shares) == 2
        for share in shares.values():
            assert 0.2 < share < 0.9
