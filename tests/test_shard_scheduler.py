"""The straggler-aware shard scheduler, locked down by parity.

Five layers of guarantees:

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
* **Shard price** — politeness x tasks, the one price LPT sorts by.
* **Dispatch order** — the order in which the pipeline hands specs to
  the executor is a pure function of configuration: LPT by price share
  with (city, ISP, start) tie-breaks, enumeration order under ``fifo``,
  and unmoved by whatever a disk store holds.
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
    SerialExecutor,
    build_result_cache,
    chunk_spans,
    lpt_order,
    resolve_chunk_tasks,
    shard_price,
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

    @pytest.mark.parametrize("chunk_tasks", [0, -3, "bogus", 2.5, True])
    def test_pipeline_rejects_bad_cap_at_construction(
        self, small_world, chunk_tasks
    ):
        """Not at the first dispatch, which a warm cache never reaches."""
        with pytest.raises(ConfigurationError):
            CurationPipeline(small_world, SMALL_CONFIG, chunk_tasks=chunk_tasks)

    def test_env_knob_rejects_garbage(self, monkeypatch):
        for garbage in ("8x", "0", "-3"):
            monkeypatch.setenv("REPRO_CHUNK_TASKS", garbage)
            with pytest.raises(ConfigurationError):
                RunSettings.from_env()
        monkeypatch.setenv("REPRO_CHUNK_TASKS", "Auto")
        assert RunSettings.from_env().chunk_tasks == "auto"
        monkeypatch.setenv("REPRO_CHUNK_TASKS", "24")
        assert RunSettings.from_env().chunk_tasks == 24


# ----------------------------------------------------------------------
# Shard price and dispatch order
# ----------------------------------------------------------------------
class TestShardPrice:
    def test_tasks_times_politeness_plus_one(self):
        assert shard_price(120, 5.0) == 120 * 6.0

    def test_orders_by_task_count_at_zero_politeness(self):
        assert shard_price(500, 0.0) > shard_price(20, 0.0)


class _RecordingExecutor(SerialExecutor):
    """Serial execution that logs each spec's ``(city, isp, start)``."""

    def __init__(self) -> None:
        self.dispatched: list[tuple[str, str, int]] = []

    def map_specs(self, specs):
        self.dispatched.extend((spec.city, spec.isp, spec.start) for spec in specs)
        return super().map_specs(specs)


#: Uneven on purpose: 180 tasks -> four 17-task and seven 16-task chunks,
#: so unit prices differ within a shard.
CHUNK_CAP = 17


def _dispatch_order(world, config, schedule="lpt", cache=None):
    executor = _RecordingExecutor()
    CurationPipeline(
        world, config, executor=executor, cache=cache, schedule=schedule,
        chunk_tasks=CHUNK_CAP,
    ).curate()
    return executor.dispatched


def _units(world, config):
    """Every ``((city, isp, start), price share)`` in enumeration order."""
    units = []
    for city in world.cities:
        city_world = world.city(city)
        for isp in city_world.info.isps:
            n_tasks = len(
                _shard_tasks(city_world, isp, config.sampling, world.config.seed)
            )
            price = shard_price(n_tasks, config.effective_politeness(isp))
            for start, stop in chunk_spans(n_tasks, CHUNK_CAP):
                units.append(((city, isp, start), price * (stop - start) / n_tasks))
    return units


class TestDispatchOrder:
    def test_lpt_sorts_by_price_share_then_coordinates(self, small_world):
        units = _units(small_world, SMALL_CONFIG)
        expected = [
            key for key, _share in sorted(units, key=lambda u: (-u[1], u[0]))
        ]
        assert _dispatch_order(small_world, SMALL_CONFIG) == expected
        # Both shards price alike, so the 17-task chunks of both go first.
        assert [start for _, _, start in expected[:8]] == [0, 17, 34, 51] * 2

    def test_raised_politeness_moves_that_isp_first(self, small_world):
        default = _dispatch_order(small_world, SMALL_CONFIG)
        assert default[0][1] == "att"
        config = SMALL_CONFIG.with_isp_override("cox", politeness_seconds=50.0)
        order = _dispatch_order(small_world, config)
        n_cox = sum(1 for _, isp, _ in order if isp == "cox")
        assert {isp for _, isp, _ in order[:n_cox]} == {"cox"}
        assert sorted(order) == sorted(default)

    def test_fifo_keeps_enumeration_order(self, small_world):
        expected = [key for key, _share in _units(small_world, SMALL_CONFIG)]
        assert _dispatch_order(small_world, SMALL_CONFIG, "fifo") == expected

    def test_store_history_never_moves_the_order(self, small_world, tmp_path):
        """A store filled at one seed matches another seed's shards in
        coordinates, config digest and task count, but holds none of
        their entries: the second curate executes every shard, in the
        order it takes without a store."""
        root = tmp_path / "store"
        CurationPipeline(
            small_world, SMALL_CONFIG, cache=build_result_cache(cache_dir=root),
            chunk_tasks=CHUNK_CAP,
        ).curate()
        other = build_world(WorldConfig(seed=6, scale=0.05, cities=("wichita",)))
        with_store = _dispatch_order(
            other, SMALL_CONFIG, cache=build_result_cache(cache_dir=root)
        )
        without_store = _dispatch_order(other, SMALL_CONFIG)
        assert with_store == without_store
        assert len(with_store) == len(_units(other, SMALL_CONFIG))


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
        assert timing.predicted_seconds == shard_price(180, 5.0)
        assert run.dispatched_units == 8

    def test_render_shard_table(self, small_world):
        pipeline = CurationPipeline(small_world, SMALL_CONFIG)
        pipeline.curate()
        table = render_shard_table(pipeline.last_run)
        assert "wichita" in table and "att" in table and "cox" in table
        assert f"{shard_price(180, 5.0):.1f}" in table

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
