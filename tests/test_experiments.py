"""Tests for the experiment framework and registry (small-scale context)."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, get_context
from repro.experiments.base import ExperimentResult, cdf_rows, render_table


@pytest.fixture(scope="module")
def small_context():
    # Three AT&T/Cox cities keep the curation fast while giving every
    # experiment something to chew on.
    return get_context(
        scale=0.15,
        seed=42,
        min_samples=6,
        cities=("new-orleans", "wichita", "oklahoma-city"),
    )


class TestFramework:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2.5), (10, 33.333)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_cdf_rows(self):
        rows = cdf_rows([1.0, 2.0, 3.0, 4.0])
        assert rows[0] == ("n", 4.0)
        assert any(name == "p50" for name, _ in rows)

    def test_result_column_and_row(self):
        result = ExperimentResult(
            experiment_id="x", title="t", headers=("k", "v"),
            rows=[("a", 1), ("b", 2)],
        )
        assert result.column("v") == [1, 2]
        assert result.row_for("b") == ("b", 2)
        with pytest.raises(KeyError):
            result.row_for("c")

    def test_result_write(self, tmp_path):
        result = ExperimentResult(
            experiment_id="x", title="t", headers=("k",), rows=[("a",)],
        )
        path = result.write(tmp_path)
        assert path.read_text().startswith("== x: t ==")

    def test_registry_complete(self):
        # One experiment per paper table/figure plus the scaling study.
        expected = {
            "table1_plans", "table2_coverage", "table3_moran",
            "figure2_microbench", "figure4_cov", "figure5_intercity",
            "figure6_l1", "figure7_spatial", "figure8_competition",
            "figure9_income", "scaling_workers",
        }
        assert set(ALL_EXPERIMENTS) == expected


class TestExperimentsRunSmall:
    """Every experiment must run and produce rows on a small context."""

    @pytest.mark.parametrize("name", sorted(
        {"table1_plans", "table2_coverage", "table3_moran",
         "figure2_microbench", "figure4_cov", "figure5_intercity",
         "figure7_spatial", "figure8_competition", "figure9_income"}
    ))
    def test_runs_and_has_rows(self, small_context, name):
        result = ALL_EXPERIMENTS[name](small_context)
        assert result.experiment_id == name
        assert result.rows, name
        assert result.render()

    def test_figure6_needs_multiple_cities(self, small_context):
        result = ALL_EXPERIMENTS["figure6_l1"](small_context)
        # att and cox both serve all three cities: pairwise rows exist.
        isps = [row[0] for row in result.rows]
        assert "att" in isps and "cox" in isps

    def test_context_cached(self):
        a = get_context(scale=0.15, seed=42, min_samples=6,
                        cities=("new-orleans", "wichita", "oklahoma-city"))
        b = get_context(scale=0.15, seed=42, min_samples=6,
                        cities=("new-orleans", "wichita", "oklahoma-city"))
        assert a is b

    def test_incomes_by_city(self, small_context):
        incomes = small_context.incomes_by_city()
        assert set(incomes) == {"new-orleans", "wichita", "oklahoma-city"}
        for city_incomes in incomes.values():
            assert all(v > 0 for v in city_incomes.values())


def test_context_follows_a_changed_sample_floor(monkeypatch, fresh_context_cache):
    """The context memo is keyed by the resolved settings, not by the
    call's arguments: a changed ``REPRO_BENCH_MIN_SAMPLES`` curates anew."""
    monkeypatch.setenv("REPRO_BENCH_MIN_SAMPLES", "3")
    at_three = get_context(scale=0.05, seed=5, cities=("wichita",))
    assert at_three.curation.sampling.min_samples == 3
    monkeypatch.setenv("REPRO_BENCH_MIN_SAMPLES", "6")
    at_six = get_context(scale=0.05, seed=5, cities=("wichita",))
    assert at_six.curation.sampling.min_samples == 6
    assert at_six is not at_three
