"""Tests of the benchmark's own arithmetic (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import inputs
import report
import spans
import speed
from percentiles import fast_quartile, percentile, spread, tail, throughput

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_p99_refused_below_1000_samples():
    with pytest.raises(ValueError):
        percentile(range(999), 0.99)
    assert percentile(range(1000), 0.99) == 989


def test_percentile_is_nearest_rank():
    assert percentile(range(1, 101), 0.9) == 90
    assert percentile([5.0] * 20 + [1.0] * 20, 0.5) == 1.0


def test_tail_takes_the_highest_supported_level():
    assert tail(range(1000)) == (989, "p99")
    assert tail(range(500)) == (374, "p75")
    assert tail(range(39)) == (38, "max")
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert tail(range(105), levels=(0.9, 0.75)) == (94, "p90")
    assert tail(range(99), levels=(0.9, 0.75)) == (74, "p75")


def test_throughput_takes_each_kind_at_its_fast_quartile():
    assert fast_quartile([2.0]) == 2.0
    assert fast_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    # 100 observations in 2s (the fast quartile of 1..5s) plus 50 in 0.5s.
    kinds = [(100, [5.0, 1.0, 3.0, 2.0, 4.0]), (50, [0.5])]
    assert throughput(kinds) == pytest.approx(150 / 2.5)


def test_spread_is_interquartile_share_of_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def test_scaling_reads_a_time_at_the_reference_speed():
    assert speed.scale(2.0, speed.REFERENCE_S) == pytest.approx(2.0)
    # Measured while the reference loop ran 1.5x slow: 3s reads as 2s.
    assert speed.scale(3.0, 1.5 * speed.REFERENCE_S) == pytest.approx(2.0)


def test_window_reference_takes_the_median_near_the_window():
    samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (5.0, 9.0)]
    assert speed.window_reference(samples, [(0.5, 2.5)]) == pytest.approx(2.5)
    assert speed.window_reference(samples, [(0.5, 2.5)], margin=1.0) == pytest.approx(2.0)
    assert speed.window_reference(samples, [(0.5, 0.6), (4.0, 6.0)]) == pytest.approx(9.0)
    # No sample inside: the median of them all.
    assert speed.window_reference(samples, [(3.0, 4.0)]) == pytest.approx(2.5)


def test_reference_loop_does_fixed_work():
    assert all(0.0 < speed.reference() < 1.0 for _ in range(3))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def _traced_calls():
    """outer (fallback) runs 1s, inner, 3s, inner; inner (address layer)
    runs 2s each and recurses once into itself for 0.5s."""
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner(depth=0):
        clock.now += 1.5
        if depth == 0:
            traced_inner(1)
        clock.now += 0.5 if depth == 0 else 0.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    traced_inner = tracer.wrap(
        lambda depth=0: inner(depth), "addresses.AddressIndex.candidates", "addresses.database"
    )
    traced_outer = tracer.wrap(outer, "core.BroadbandQueryTool.query", "fallback")
    traced_outer()
    return clock, tracer


def test_self_time_subtracts_nested_spans():
    clock, tracer = _traced_calls()
    by_entry = {}
    for entry, _layer, start, end, child_s, *_ in tracer.spans:
        by_entry.setdefault(entry, []).append(end - start - child_s)
    # Outer: 8s total, 2 x 3.5s inside candidates -> 1s + 3s of its own.
    assert clock.now == 11.0
    assert by_entry["core.BroadbandQueryTool.query"] == [pytest.approx(4.0)]
    # Each outer candidates call: 3.5s minus its 1.5s nested self-call.
    assert sorted(by_entry["addresses.AddressIndex.candidates"]) == pytest.approx(
        [1.5, 1.5, 2.0, 2.0]
    )


def test_summary_counts_nested_same_entry_once():
    clock, tracer = _traced_calls()
    metrics = spans.summarize(tracer.spans, [(0.0, clock.now)], [(0.0, 0.0)])
    assert metrics["addresses.AddressIndex.candidates.calls"] == 4
    assert metrics["addresses.AddressIndex.candidates.busy_s"] == pytest.approx(7.0)
    assert metrics["layer.addresses.database.self_s"] == pytest.approx(7.0)
    assert metrics["layer.fallback.busy_s"] == pytest.approx(11.0)
    assert metrics["layer.fallback.self_s"] == pytest.approx(4.0)
    assert metrics["layer.fallback.share"] == pytest.approx(1.0)
    assert metrics["trace.wall_s"] == pytest.approx(11.0)


def test_summary_filters_spans_by_window():
    clock, tracer = _traced_calls()
    metrics = spans.summarize(tracer.spans, [(50.0, 60.0)], [(0.0, clock.now)])
    assert metrics["core.BroadbandQueryTool.query.calls"] == 0
    assert metrics["layer.fallback.busy_s"] == 0.0


def test_failed_call_still_records_its_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    traced = tracer.wrap(boom, "net.rpc.RpcClient.call", "remote", after=spans._failed)
    with pytest.raises(RuntimeError):
        traced()
    metrics = spans.summarize(tracer.spans, [(0.0, 1.0)], [])
    assert metrics["net.rpc.RpcClient.call.failed"] == 1
    assert metrics["net.rpc.RpcClient.call.busy_s"] == pytest.approx(1.0)


def test_request_waits_subtract_the_matching_handler():
    span_list = [
        ["serve.handle", "serve", 1.2, 1.5, 0.0, True, True, "", {
            "city": "durham", "isp": "spectrum", "force": False, "source": "cache"}],
        ["serve.handle", "serve", 1.25, 1.3, 0.0, True, True, "", {
            "city": "durham", "isp": "spectrum", "force": True, "source": "executed"}],
    ]
    requests = [(1.1, 1.6, 0.6, "durham", "spectrum", False)]
    assert spans.request_waits(requests, span_list) == [pytest.approx(300.0)]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def test_one_seed_always_yields_the_same_schedule():
    first = inputs.build_schedule(7, inputs.SERVE_RATE, 25)
    assert first == inputs.build_schedule(7, inputs.SERVE_RATE, 25)
    assert first != inputs.build_schedule(8, inputs.SERVE_RATE, 25)


def test_schedule_mix_does_not_depend_on_the_seed():
    def mix(seed):
        return sorted((c, i, f) for _, c, i, f in inputs.build_schedule(seed, 42.0, 25))

    assert mix(1) == mix(2)
    schedule = inputs.build_schedule(1, 42.0, 25)
    assert len(schedule) == 1050
    assert [due for due, *_ in schedule] == [k / 42.0 for k in range(1050)]
    assert sum(force for *_, force in schedule) == round(1050 * inputs.SERVE_FORCED_SHARE)
    assert {(c, i) for _, c, i, _ in schedule} == set(inputs.SHARDS)


def test_override_values_are_distinct_and_seeded():
    values = inputs.override_values(3, 500)
    assert len(set(values)) == 500 and 5.0 not in values
    assert values == inputs.override_values(3, 500)
    assert values != inputs.override_values(4, 500)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(
        report.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "curate_cold", "recurate_disk", "serve_mixed",
    ]


def test_benchmark_json_keeps_the_format_limits():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert len(BENCHMARK["per_layer"]) <= 128
