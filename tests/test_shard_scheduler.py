"""The straggler-aware shard scheduler, locked down by parity.

Four layers of guarantees:

* **Byte-transparency** — chunked + LPT-ordered curation produces a
  dataset with the *identical* ``content_digest()`` as unordered,
  unchunked dispatch, on all four backends.  Scheduling is allowed to
  change wall-clock time and nothing else.
* **Task purity** — the mechanism underneath: a task's observation is a
  pure function of the shard configuration and the task's content, never
  of its position in the shard (content-keyed RTT/render-delay streams,
  offset-free clock intervals).
* **Scheduling algebra** — property tests for LPT ordering and the
  chunk-span planner (permutation, coverage, balance, determinism).
* **Cost model** — observed costs round-trip through the store manifest,
  survive reopening, go stale with the task count, and degrade to the
  politeness estimate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.dataset.cli import render_shard_table
from repro.dataset.curation import ShardTiming, _shard_observations, _shard_tasks
from repro.errors import ConfigurationError, DatasetError
from repro.exec import (
    DiskShardStore,
    ShardCost,
    ShardCostModel,
    ShardCostRecord,
    build_result_cache,
    calibrate_costs,
    chunk_spans,
    lpt_order,
    resolve_chunk_tasks,
)
from repro.settings import RunSettings
from repro.world import WorldConfig, build_world

BACKENDS = ["serial", "thread", "process"]

SMALL_CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.10, min_samples=5), n_workers=10
)


@pytest.fixture(scope="module")
def small_world():
    return build_world(WorldConfig(seed=5, scale=0.05, cities=("wichita",)))


@pytest.fixture(scope="module")
def reference_digest(small_world):
    """Unordered, unchunked serial dispatch — the PR 3 baseline bytes."""
    pipeline = CurationPipeline(
        small_world, SMALL_CONFIG, schedule="fifo", chunk_tasks=None
    )
    return pipeline.curate().content_digest()


# ----------------------------------------------------------------------
# Byte-transparency of scheduling
# ----------------------------------------------------------------------
class TestSchedulingParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunked_lpt_matches_unchunked_fifo(
        self, small_world, reference_digest, backend
    ):
        """Chunked vs unchunked: byte-identical digests on every backend."""
        pipeline = CurationPipeline(
            small_world,
            SMALL_CONFIG,
            executor=backend,
            schedule="lpt",
            chunk_tasks=17,  # uneven on purpose: 180 tasks -> 11 chunks
        )
        assert pipeline.curate().content_digest() == reference_digest
        run = pipeline.last_run
        assert run.dispatched_units > run.executed_shards
        assert run.chunked_shards == run.executed_shards

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_auto_chunking_matches(self, small_world, reference_digest, backend):
        pipeline = CurationPipeline(
            small_world,
            SMALL_CONFIG,
            executor=backend,
            schedule="lpt",
            chunk_tasks="auto",
        )
        assert pipeline.curate().content_digest() == reference_digest

    def test_chunk_of_one_task_matches(self, small_world, reference_digest):
        """The degenerate cap: every task its own dispatch unit."""
        pipeline = CurationPipeline(
            small_world, SMALL_CONFIG, schedule="lpt", chunk_tasks=1
        )
        assert pipeline.curate().content_digest() == reference_digest
        run = pipeline.last_run
        assert run.dispatched_units == sum(t.tasks for t in run.shard_timings)

    def test_caching_composes_with_chunking(self, small_world, reference_digest,
                                            tmp_path):
        """A chunked cold run warms the cache; a whole-shard warm run hits."""
        cold_cache = build_result_cache(cache_dir=tmp_path / "store")
        cold = CurationPipeline(
            small_world, SMALL_CONFIG, cache=cold_cache, chunk_tasks=23
        )
        assert cold.curate().content_digest() == reference_digest

        warm = CurationPipeline(
            small_world,
            SMALL_CONFIG,
            cache=build_result_cache(cache_dir=tmp_path / "store"),
            chunk_tasks=None,
        )
        assert warm.curate().content_digest() == reference_digest
        assert warm.last_run.replayed_queries == 0

    def test_unknown_schedule_mode_rejected(self, small_world):
        with pytest.raises(DatasetError):
            CurationPipeline(small_world, SMALL_CONFIG, schedule="sjf")


# ----------------------------------------------------------------------
# Task purity (the mechanism that makes chunking byte-exact)
# ----------------------------------------------------------------------
class TestTaskPurity:
    def test_slice_replays_exactly(self, small_world):
        """Any task slice reproduces its span of the whole-shard run."""
        config = small_world.config
        city_world = small_world.city("wichita")
        isp = city_world.info.isps[0]
        tasks = _shard_tasks(city_world, isp, SMALL_CONFIG.sampling, config.seed)
        full = _shard_observations(
            config, city_world, isp, SMALL_CONFIG, tasks=list(tasks)
        )
        # Uneven cuts, including a single-task chunk and an empty check.
        cuts = [0, 1, 8, len(tasks) // 2, len(tasks)]
        pieces = []
        for start, stop in zip(cuts, cuts[1:]):
            pieces.extend(
                _shard_observations(
                    config, city_world, isp, SMALL_CONFIG,
                    tasks=list(tasks[start:stop]),
                )
            )
        assert tuple(pieces) == full

    def test_reversed_chunk_execution_order(self, small_world):
        """Chunks executed back to front still merge to the same bytes."""
        config = small_world.config
        city_world = small_world.city("wichita")
        isp = city_world.info.isps[0]
        tasks = _shard_tasks(city_world, isp, SMALL_CONFIG.sampling, config.seed)
        full = _shard_observations(
            config, city_world, isp, SMALL_CONFIG, tasks=list(tasks)
        )
        spans = chunk_spans(len(tasks), 31)
        by_span = {}
        for start, stop in reversed(spans):
            by_span[start] = _shard_observations(
                config, city_world, isp, SMALL_CONFIG,
                tasks=list(tasks[start:stop]),
            )
        merged = tuple(
            obs for start in sorted(by_span) for obs in by_span[start]
        )
        assert merged == full


# ----------------------------------------------------------------------
# Scheduling algebra
# ----------------------------------------------------------------------
class TestLptOrder:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_permutation_and_monotone(self, costs):
        order = lpt_order(costs)
        assert sorted(order) == list(range(len(costs)))
        ordered = [costs[i] for i in order]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    def test_deterministic_tie_break(self):
        costs = [5.0, 5.0, 1.0, 5.0]
        keys = ["c", "a", "z", "b"]
        assert lpt_order(costs, keys) == [1, 3, 0, 2]

    def test_tie_key_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            lpt_order([1.0, 2.0], ["only-one"])


class TestChunkSpans:
    @given(
        st.integers(min_value=0, max_value=5000),
        st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
    )
    @settings(max_examples=300, deadline=None)
    def test_cover_balance_bound(self, n, cap):
        spans = chunk_spans(n, cap)
        # Exact coverage, in order, no overlap.
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in spans]
        if n:
            assert all(size > 0 for size in sizes)
        if cap is not None:
            assert all(size <= cap for size in sizes)
            # Balance: sizes differ by at most one.
            assert max(sizes) - min(sizes) <= 1

    def test_examples(self):
        assert chunk_spans(10, None) == ((0, 10),)
        assert chunk_spans(10, 10) == ((0, 10),)
        assert chunk_spans(10, 4) == ((0, 4), (4, 7), (7, 10))
        assert chunk_spans(0, 4) == ((0, 0),)


class TestResolveChunkTasks:
    def test_none_disables(self):
        assert resolve_chunk_tasks(None, 1000, 8) is None

    def test_explicit_cap(self):
        assert resolve_chunk_tasks(40, 1000, 8) == 40
        with pytest.raises(ConfigurationError):
            resolve_chunk_tasks(0, 1000, 8)

    def test_auto_scales_with_width(self):
        cap = resolve_chunk_tasks("auto", 3200, 8)
        assert cap == 100  # ceil(3200 / (4 * 8))
        # Serial pools gain nothing from chunking.
        assert resolve_chunk_tasks("auto", 3200, 1) is None
        # Tiny totals never chunk below the setup-amortization floor.
        assert resolve_chunk_tasks("auto", 64, 8) >= 12
        with pytest.raises(ConfigurationError):
            resolve_chunk_tasks("never", 100, 8)

    def test_env_knob_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_TASKS", "8x")
        with pytest.raises(ConfigurationError):
            RunSettings.from_env()
        monkeypatch.setenv("REPRO_CHUNK_TASKS", "Auto")
        assert RunSettings.from_env().chunk_tasks == "auto"
        monkeypatch.setenv("REPRO_CHUNK_TASKS", "24")
        assert RunSettings.from_env().chunk_tasks == 24


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestCostModel:
    def test_estimate_without_store(self):
        model = ShardCostModel(None)
        cost = model.cost("wichita", "cox", 120, 5.0)
        assert cost.source == "estimated"
        assert cost.seconds == 120 * 6.0

    def test_estimate_orders_by_task_count_at_zero_politeness(self):
        model = ShardCostModel(None)
        big = model.cost("a", "x", 500, 0.0)
        small = model.cost("b", "y", 20, 0.0)
        assert big.seconds > small.seconds

    def test_calibration_bridges_mixed_units(self):
        """An observed straggler must outrank estimate-priced small shards.

        Observed costs are real seconds (~2 s for a big shard on the
        unpaced transport); estimates are virtual seconds (politeness x
        tasks — hundreds).  Uncalibrated, every estimated shard would
        sort above every observed one.
        """
        costs = [
            ShardCost(seconds=2.0, task_count=1000, source="observed"),
            ShardCost(seconds=300.0, task_count=50, source="estimated"),
            ShardCost(seconds=0.1, task_count=60, source="observed"),
        ]
        prices = calibrate_costs(costs, [5.0, 5.0, 5.0])
        # Observed prices pass through untouched.
        assert prices[0] == 2.0 and prices[2] == 0.1
        # The estimated shard lands on the observed scale: 50 tasks must
        # price far below the 1000-task observed straggler.
        assert prices[1] < prices[0]
        assert lpt_order(prices)[0] == 0
        # Homogeneous sets are untouched.
        all_estimated = [ShardCost(300.0, 50, "estimated")] * 2
        assert calibrate_costs(all_estimated, [5.0, 5.0]) == [300.0, 300.0]
        with pytest.raises(ConfigurationError):
            calibrate_costs(costs, [5.0])

    def test_observed_preferred_and_staleness(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        store.record_cost(
            ShardCostRecord(
                city="wichita", isp="cox", config_digest="d",
                wall_seconds=42.5, task_count=120,
            )
        )
        model = ShardCostModel(store)
        observed = model.cost("wichita", "cox", 120, 5.0)
        assert observed.source == "observed"
        assert observed.seconds == pytest.approx(42.5)
        # The digest-aware caller keeps the observation while its shard
        # config is unchanged...
        assert model.cost("wichita", "cox", 120, 5.0,
                          config_digest="d").source == "observed"
        # ...but a different sample size, a re-configured shard (new
        # digest), or a different pacing regime means it no longer
        # prices this workload: estimate.
        assert model.cost("wichita", "cox", 121, 5.0).source == "estimated"
        assert model.cost("wichita", "cox", 120, 5.0,
                          config_digest="other").source == "estimated"
        assert model.cost("wichita", "cox", 120, 5.0,
                          pacing_time_scale=1e-4).source == "estimated"

    def test_pacing_regime_round_trips(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        store.record_cost(
            ShardCostRecord(
                city="a", isp="x", config_digest="d",
                wall_seconds=9.0, task_count=10, pacing_time_scale=1e-4,
            )
        )
        store.flush()
        model = ShardCostModel(DiskShardStore(tmp_path / "s"))
        paced = model.cost("a", "x", 10, 5.0, pacing_time_scale=1e-4)
        assert paced.source == "observed" and paced.seconds == 9.0
        assert model.cost("a", "x", 10, 5.0).source == "estimated"

    def test_costs_survive_reopen_and_purge_resets(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        store.record_cost(
            ShardCostRecord(
                city="a", isp="x", config_digest="d",
                wall_seconds=1.5, task_count=10,
            )
        )
        store.flush()
        reopened = DiskShardStore(tmp_path / "s")
        record = reopened.cost_for("a", "x")
        assert record is not None and record.wall_seconds == pytest.approx(1.5)
        assert len(reopened.cost_records()) == 1
        reopened.purge()
        assert DiskShardStore(tmp_path / "s").cost_for("a", "x") is None

    def test_mangled_costs_section_degrades(self, tmp_path):
        store = DiskShardStore(tmp_path / "s")
        store.record_cost(
            ShardCostRecord(
                city="a", isp="x", config_digest="d",
                wall_seconds=1.5, task_count=10,
            )
        )
        store.flush()
        manifest = (tmp_path / "s" / "manifest.json")
        blob = manifest.read_text().replace('"wall_seconds": 1.5',
                                            '"wall_seconds": "soon"')
        manifest.write_text(blob)
        assert DiskShardStore(tmp_path / "s").cost_for("a", "x") is None

    def test_pipeline_records_costs(self, small_world, tmp_path):
        cache = build_result_cache(cache_dir=tmp_path / "store")
        pipeline = CurationPipeline(small_world, SMALL_CONFIG, cache=cache)
        pipeline.curate()
        records = cache.store.cost_records()
        assert {(r.city, r.isp) for r in records} == {
            ("wichita", "att"), ("wichita", "cox"),
        }
        assert all(r.wall_seconds > 0 for r in records)
        assert all(r.task_count == 180 for r in records)
        # The next pipeline prices from the observations.
        model = ShardCostModel(DiskShardStore(tmp_path / "store"))
        assert model.cost("wichita", "att", 180, 5.0).source == "observed"


# ----------------------------------------------------------------------
# Run report and profiling surface
# ----------------------------------------------------------------------
class TestRunReport:
    def test_timings_cover_dispatched_shards(self, small_world):
        pipeline = CurationPipeline(
            small_world, SMALL_CONFIG, chunk_tasks=45
        )
        pipeline.curate()
        run = pipeline.last_run
        assert run.schedule == "lpt"
        assert len(run.shard_timings) == run.executed_shards == 2
        timing = run.shard_timings[0]
        assert isinstance(timing, ShardTiming)
        assert timing.chunks == 4  # 180 tasks / cap 45
        assert timing.wall_seconds > 0.0
        assert timing.cost_source == "estimated"
        assert run.dispatched_units == 8

    def test_render_shard_table(self, small_world):
        pipeline = CurationPipeline(small_world, SMALL_CONFIG)
        pipeline.curate()
        table = render_shard_table(pipeline.last_run)
        assert "wichita" in table and "att" in table and "cox" in table
        assert "estimated" in table

    def test_executor_width(self):
        from repro.exec import (
            ProcessPoolBackend,
            SerialExecutor,
            ThreadPoolBackend,
        )

        assert SerialExecutor().width == 1
        assert ThreadPoolBackend(max_workers=7).width == 7
        assert ProcessPoolBackend(max_workers=3).width == 3


# ----------------------------------------------------------------------
# Memoization satellites (content-addressed parsing, compiled selectors)
# ----------------------------------------------------------------------
class TestParseMemoization:
    def test_plans_from_markup_matches_uncached(self):
        from repro.bat.pages import render_plans
        from repro.bat.profiles import profile_for
        from repro.core import parse_html, parse_plans_page, plans_from_markup
        from repro.isp.plans import catalog_for

        markup = render_plans(
            profile_for("att"), "100 Magnolia Avenue", list(catalog_for("att"))
        )
        cached = plans_from_markup(markup)
        assert list(cached) == parse_plans_page(parse_html(markup))
        # Content-addressed: the same markup returns the same immutable
        # tuple object, no re-parse.
        assert plans_from_markup(markup) is cached
        assert isinstance(cached, tuple)

    def test_parse_error_propagates_uncached(self):
        from repro.core.parsing import plans_from_markup
        from repro.errors import PlanParseError

        with pytest.raises(PlanParseError):
            plans_from_markup("<html><body>no plans here</body></html>")
        with pytest.raises(PlanParseError):
            plans_from_markup("<html><body>no plans here</body></html>")

    def test_parse_html_cached_shares_tree(self):
        from repro.core import parse_html_cached

        markup = "<div class='plan-card'><span>x</span></div>"
        assert parse_html_cached(markup) is parse_html_cached(markup)

    def test_selector_cache_equivalence(self):
        from repro.core import parse_html
        from repro.core.dom import Selector, _compile_selector

        markup = (
            "<form id='f'><input name='a' value='1'>"
            "<div class='row'><button name='b' value='2'>go</button></div>"
            "</form>"
        )
        document = parse_html(markup)
        for selector in ("form#f", ".row", "form .row button[name=b]", "input"):
            fresh = Selector(selector).select(document)
            assert document.select(selector) == fresh
        assert _compile_selector("form#f") is _compile_selector("form#f")


class TestStreamScoping:
    def test_begin_task_rederives_streams(self):
        """The same task key yields the same RTT draws at any position."""
        from repro.net.latency import LatencyModel
        from repro.net.transport import InProcessTransport

        def draws(warmup: int) -> list[float]:
            transport = InProcessTransport(latency=LatencyModel(), seed=9)
            rng_draws = []
            transport.begin_task("10.0.0.1", "cox", "1 Elm", "70112")
            for _ in range(warmup):  # consume some of the task stream
                transport._latency.sample_rtt(transport._task_rngs["10.0.0.1"])
            transport.begin_task("10.0.0.1", "cox", "2 Oak", "70112")
            for _ in range(3):
                rng_draws.append(
                    transport._latency.sample_rtt(
                        transport._task_rngs["10.0.0.1"]
                    )
                )
            return rng_draws

        assert draws(0) == draws(7)

    def test_virtual_clock_marks_are_offset_free(self):
        from repro.net.clock import VirtualClock

        deltas = [0.1, 0.2, 0.30000000000000004, 1e-9]
        reference = VirtualClock()
        token = reference.mark()
        for delta in deltas:
            reference.sleep(delta)
        expected = reference.elapsed(token)

        shifted = VirtualClock()
        shifted.sleep(123456.789)  # arbitrary session offset
        token = shifted.mark()
        for delta in deltas:
            shifted.sleep(delta)
        # Bit-for-bit equal, not approximately equal: this is what makes
        # chunked replay byte-identical.
        assert shifted.elapsed(token) == expected

    def test_virtual_clock_advance_to_feeds_marks(self):
        from repro.net.clock import VirtualClock

        clock = VirtualClock()
        token = clock.mark()
        clock.advance_to(5.0)
        clock.advance_to(2.0)  # no-op: already past
        assert clock.elapsed(token) == 5.0
        assert clock.now() == 5.0

    def test_marks_do_not_leak_on_transport_error(self):
        """An aborted fetch must close its mark (and the query's)."""
        from repro.core.webdriver import Browser
        from repro.errors import TransportError
        from repro.net.transport import InProcessTransport

        transport = InProcessTransport()
        browser = Browser(transport, client_ip="10.0.0.9")
        for _ in range(3):
            with pytest.raises(TransportError):
                browser.get("no-such-host.example", "/")
        assert browser.clock._marks == {}
        # A stale token degrades to 0.0 instead of raising.
        assert browser.clock.elapsed(999) == 0.0
