"""Tests for the synthetic census geography substrate."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, GeographyError, UnknownCityError
from repro.geo import (
    CITIES,
    CityGrid,
    build_acs_table,
    cities_served_by,
    distance_band_weights,
    get_city,
    queen_weights,
    rook_weights,
    scaled_block_group_count,
    smoothed_gaussian_field,
    total_addresses_thousands,
    total_block_groups,
)
from repro.geo.fields import (
    _MAXLOG,
    _SQRT1_2,
    correlated_uniform_field,
    field_to_grid_values,
    ndtr,
)


def _assert_ndtr_matches_scipy(values) -> None:
    """Every bit of the port's result equals scipy's, nan included."""
    values = np.asarray(values, dtype=np.float64)
    ported = np.array([ndtr(v) for v in values.tolist()], dtype=np.float64)
    expected = scipy.special.ndtr(values)
    differ = np.flatnonzero(ported.view(np.uint64) != expected.view(np.uint64))
    assert differ.size == 0, [
        (float(values[i]), float(ported[i]), float(expected[i])) for i in differ[:5]
    ]


def _ulp_walk(value: float, steps: int) -> list[float]:
    """``value`` and its ``steps`` float neighbours on each side."""
    below, above, walk = value, value, [value]
    for _ in range(steps):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        walk += [below, above]
    return walk


class TestCityRegistry:
    def test_thirty_cities(self):
        assert len(CITIES) == 30

    def test_paper_totals(self):
        assert total_block_groups() == 18083  # paper: ~18k
        assert total_addresses_thousands() == 837  # paper: 837k

    def test_lookup_by_display_name(self):
        assert get_city("New Orleans").name == "new-orleans"

    def test_unknown_city_raises(self):
        with pytest.raises(UnknownCityError):
            get_city("springfield")

    def test_at_most_two_isps_per_city(self):
        for city in CITIES.values():
            assert 1 <= len(city.isps) <= 2

    def test_no_same_kind_competition(self):
        # The paper: cable ISPs never compete with cable, telcos never
        # compete with telcos.
        for city in CITIES.values():
            assert len(city.cable_isps) <= 1
            assert len(city.dsl_fiber_isps) <= 1

    def test_isp_city_counts_match_table2(self):
        expected = {
            "att": 14, "verizon": 5, "centurylink": 7, "frontier": 4,
            "spectrum": 13, "cox": 8, "xfinity": 6,
        }
        for isp, count in expected.items():
            assert len(cities_served_by(isp)) == count, isp

    def test_case_study_markets(self):
        # New Orleans, Wichita and Oklahoma City are AT&T + Cox markets.
        for name in ("new-orleans", "wichita", "oklahoma-city"):
            assert set(get_city(name).isps) == {"att", "cox"}

    def test_addresses_property(self):
        assert get_city("new-orleans").addresses == 67000


class TestScaling:
    def test_full_scale(self):
        city = get_city("new-orleans")
        assert scaled_block_group_count(city, 1.0) == 439

    def test_proportional(self):
        city = get_city("chicago")
        assert scaled_block_group_count(city, 0.1) == round(1933 * 0.1)

    def test_floor(self):
        city = get_city("fargo")  # 67 block groups
        assert scaled_block_group_count(city, 0.01) == 4

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_bad_scale_raises(self, bad):
        with pytest.raises(ConfigurationError):
            scaled_block_group_count(get_city("fargo"), bad)


class TestCityGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        return CityGrid(get_city("new-orleans"), 44, seed=1)

    def test_length(self, grid):
        assert len(grid) == 44

    def test_near_square_shape(self, grid):
        assert grid.rows * grid.cols >= 44
        assert abs(grid.rows - grid.cols) <= 2

    def test_geoids_unique(self, grid):
        geoids = [bg.geoid for bg in grid]
        assert len(set(geoids)) == len(geoids)

    def test_by_geoid_roundtrip(self, grid):
        bg = grid.by_index(7)
        assert grid.by_geoid(bg.geoid) is bg

    def test_bad_index_raises(self, grid):
        with pytest.raises(GeographyError):
            grid.by_index(44)

    def test_bad_geoid_raises(self, grid):
        with pytest.raises(GeographyError):
            grid.by_geoid("nope")

    def test_populations_census_range(self, grid):
        for bg in grid:
            assert 600 <= bg.population <= 3000

    def test_centroid_near_city(self, grid):
        city = get_city("new-orleans")
        for bg in grid:
            assert abs(bg.latitude - city.latitude) < 1.0
            assert abs(bg.longitude - city.longitude) < 1.0

    def test_polygon_contains_centroid(self, grid):
        bg = grid.by_index(0)
        lons = [p[0] for p in bg.polygon]
        lats = [p[1] for p in bg.polygon]
        assert min(lons) < bg.longitude < max(lons)
        assert min(lats) < bg.latitude < max(lats)

    def test_queen_neighbors_interior(self, grid):
        # An interior cell has 8 queen neighbors.
        interior = grid.cell_index(1, 1)
        assert interior is not None
        assert len(grid.neighbors(interior, queen=True)) == 8

    def test_rook_subset_of_queen(self, grid):
        for i in range(len(grid)):
            rook = set(grid.neighbors(i, queen=False))
            queen = set(grid.neighbors(i, queen=True))
            assert rook <= queen

    def test_corner_has_fewer_neighbors(self, grid):
        corner = grid.cell_index(0, 0)
        assert len(grid.neighbors(corner, queen=True)) <= 3

    def test_deterministic(self):
        a = CityGrid(get_city("fargo"), 10, seed=5)
        b = CityGrid(get_city("fargo"), 10, seed=5)
        assert [bg.population for bg in a] == [bg.population for bg in b]


class TestWeights:
    @pytest.fixture(scope="class")
    def grid(self):
        return CityGrid(get_city("fargo"), 16, seed=1)

    def test_rows_sum_to_one(self, grid):
        weights = queen_weights(grid)
        for i in range(weights.n):
            if len(weights.neighbors[i]):
                assert np.isclose(weights.weights[i].sum(), 1.0)

    def test_symmetric_adjacency(self, grid):
        weights = queen_weights(grid)
        for i in range(weights.n):
            for j in weights.neighbors[i]:
                assert i in weights.neighbors[j]

    def test_no_self_loops(self, grid):
        weights = queen_weights(grid)
        for i in range(weights.n):
            assert i not in weights.neighbors[i]

    def test_no_islands_on_grid(self, grid):
        assert queen_weights(grid).islands == ()

    def test_lag_of_constant_is_constant(self, grid):
        weights = queen_weights(grid)
        lagged = weights.lag(np.full(weights.n, 3.5))
        assert np.allclose(lagged, 3.5)

    def test_lag_shape_mismatch_raises(self, grid):
        weights = queen_weights(grid)
        with pytest.raises(ConfigurationError):
            weights.lag(np.ones(3))

    def test_dense_matches_sparse(self, grid):
        weights = rook_weights(grid)
        dense = weights.dense()
        values = np.arange(weights.n, dtype=float)
        assert np.allclose(dense @ values, weights.lag(values))

    def test_distance_band_equals_queen_at_1_5(self, grid):
        band = distance_band_weights(grid, band_cells=1.5)
        queen = queen_weights(grid)
        for i in range(queen.n):
            assert set(band.neighbors[i]) == set(queen.neighbors[i])

    def test_wider_band_more_links(self, grid):
        narrow = distance_band_weights(grid, 1.5)
        wide = distance_band_weights(grid, 2.5)
        assert wide.n_links > narrow.n_links

    def test_bad_band_raises(self, grid):
        with pytest.raises(ConfigurationError):
            distance_band_weights(grid, 0.0)


class TestFields:
    def test_standardized(self):
        rng = np.random.default_rng(0)
        field = smoothed_gaussian_field(20, 20, rng)
        assert abs(field.mean()) < 1e-9
        assert abs(field.std() - 1.0) < 1e-9

    def test_smoothing_creates_correlation(self):
        rng = np.random.default_rng(0)
        field = smoothed_gaussian_field(30, 30, rng, smoothing_radius=2)
        # Neighboring cells correlate strongly after smoothing.
        left = field[:, :-1].ravel()
        right = field[:, 1:].ravel()
        assert np.corrcoef(left, right)[0, 1] > 0.5

    def test_no_smoothing_white_noise(self):
        rng = np.random.default_rng(0)
        field = smoothed_gaussian_field(30, 30, rng, passes=0)
        left = field[:, :-1].ravel()
        right = field[:, 1:].ravel()
        assert abs(np.corrcoef(left, right)[0, 1]) < 0.15

    def test_uniform_field_in_unit_interval(self):
        rng = np.random.default_rng(0)
        field = correlated_uniform_field(10, 10, rng)
        assert field.min() >= 0.0 and field.max() <= 1.0

    def test_ndtr_matches_scipy_on_dense_grid(self):
        _assert_ndtr_matches_scipy(np.linspace(-40.0, 40.0, 200_001))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(0.0)
    @example(-0.0)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    def test_ndtr_matches_scipy_on_any_float(self, value):
        _assert_ndtr_matches_scipy([value])

    @pytest.mark.parametrize(
        "edge",
        [_SQRT1_2, 1.0, 8.0, math.sqrt(_MAXLOG)],
        ids=["ndtr-erf-vs-erfc", "erf-vs-erfc", "PQ-vs-RS", "underflow"],
    )
    def test_ndtr_matches_scipy_at_branch_edges(self, edge):
        """|a|·√½ at each branch point of cephes' ndtr/erf/erfc, a few
        hundred ulps either side, for both signs of a."""
        centre = edge / _SQRT1_2
        values = [s * v for s in (1.0, -1.0) for v in _ulp_walk(centre, 200)]
        # The walk straddles the branch condition in both directions.
        if edge == math.sqrt(_MAXLOG):
            sides = {-(v * _SQRT1_2) ** 2 < -_MAXLOG for v in values}
        else:
            sides = {abs(v * _SQRT1_2) < edge for v in values}
        assert sides == {True, False}
        _assert_ndtr_matches_scipy(values)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (24, 25)])
    @pytest.mark.parametrize("radius", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_uniform_field_equals_scipy_ndtr(self, shape, radius, seed):
        rows, cols = shape
        ported = correlated_uniform_field(
            rows, cols, np.random.default_rng(seed), smoothing_radius=radius
        )
        expected = scipy.special.ndtr(
            smoothed_gaussian_field(
                rows, cols, np.random.default_rng(seed), smoothing_radius=radius
            )
        )
        assert ported.shape == expected.shape
        assert np.array_equal(ported, expected)

    @pytest.mark.parametrize("module", ["scipy", "asyncio"])
    def test_world_build_does_not_import(self, module, child_env):
        """A fresh interpreter builds a world without loading any scipy
        module (``scipy.special`` alone took ~0.1 s to import, more than
        this world's build) or asyncio, which no module of the package
        needs."""
        script = (
            "import sys\n"
            "from repro.world import WorldConfig, build_world\n"
            "build_world(WorldConfig(scale=0.02, cities=('wichita',)))\n"
            f"print({module!r} in sys.modules)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "False"

    @pytest.fixture(scope="class")
    def serial_curate_modules(self, child_env):
        """Every module a fresh interpreter loads to build a one-city
        world and curate it on the serial backend."""
        script = (
            "import sys\n"
            "from repro.dataset.curation import CurationConfig, CurationPipeline\n"
            "from repro.dataset.sampling import SamplingConfig\n"
            "from repro.world import WorldConfig, build_world\n"
            "world = build_world(WorldConfig(scale=0.02, cities=('wichita',)))\n"
            "config = CurationConfig(sampling=SamplingConfig(0.1, 5), n_workers=5)\n"
            "dataset = CurationPipeline(world, config, executor='serial').curate()\n"
            "assert len(dataset) > 0\n"
            "print('\\n'.join(sys.modules))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        return set(completed.stdout.split())

    @pytest.mark.parametrize(
        "module",
        [
            "repro.exec.remote",
            "repro.exec.membership",
            "repro.exec.processes",
            "repro.net.rpc",
            "repro.net.tcp",
            "multiprocessing",
        ],
    )
    def test_serial_curate_does_not_import(self, module, serial_curate_modules):
        """A serial curation never loads the remote, fleet-membership,
        process-pool, RPC or TCP machinery it does not run: ``repro``,
        ``repro.exec`` and ``repro.net`` resolve their re-exports on
        first access, and ``resolve_executor`` imports only the backend
        it names."""
        assert "repro.dataset.curation" in serial_curate_modules
        assert module not in serial_curate_modules

    def test_field_to_grid_values_partial_row(self):
        grid = CityGrid(get_city("fargo"), 10, seed=1)  # 3x4 grid, 10 cells
        rng = np.random.default_rng(0)
        field = smoothed_gaussian_field(grid.rows, grid.cols, rng)
        values = field_to_grid_values(field, grid)
        assert values.shape == (10,)
        bg = grid.by_index(9)
        assert values[9] == field[bg.row, bg.col]

    def test_shape_mismatch_raises(self):
        grid = CityGrid(get_city("fargo"), 10, seed=1)
        with pytest.raises(ConfigurationError):
            field_to_grid_values(np.zeros((2, 2)), grid)

    def test_bad_shape_raises(self):
        with pytest.raises(ConfigurationError):
            smoothed_gaussian_field(0, 5, np.random.default_rng(0))


class TestAcs:
    @pytest.fixture(scope="class")
    def table(self):
        grid = CityGrid(get_city("new-orleans"), 60, seed=42)
        return build_acs_table(grid, seed=42)

    def test_one_row_per_block_group(self, table):
        assert len(table) == 60

    def test_city_median_matches_table2(self, table):
        # New Orleans: $41k median income (Table 2), pinned by centering.
        assert table.city_median_income() == pytest.approx(41000, rel=0.02)

    def test_income_positive(self, table):
        assert (table.incomes() > 0).all()

    def test_income_spread_realistic(self, table):
        incomes = table.incomes()
        ratio = np.percentile(incomes, 90) / np.percentile(incomes, 10)
        assert 1.5 < ratio < 10.0

    def test_income_class_split(self, table):
        classes = [table.income_class(row.geoid) for row in table]
        low = classes.count("low")
        assert 0.3 * len(table) <= low <= 0.7 * len(table)

    def test_unknown_geoid_raises(self, table):
        with pytest.raises(GeographyError):
            table.income("nope")

    def test_income_spatially_clustered(self, table):
        # The income surface drives Table 3 / Figure 9; it must cluster.
        from repro.analysis import morans_i

        grid = CityGrid(get_city("new-orleans"), 60, seed=42)
        result = morans_i(table.incomes(), queen_weights(grid), n_permutations=99)
        assert result.statistic > 0.2
        assert result.p_value < 0.05

    def test_deterministic(self):
        grid = CityGrid(get_city("fargo"), 12, seed=9)
        a = build_acs_table(grid, seed=9).incomes()
        b = build_acs_table(grid, seed=9).incomes()
        assert np.array_equal(a, b)
