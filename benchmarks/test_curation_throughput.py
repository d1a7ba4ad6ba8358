"""Throughput benches for the measurement machinery itself.

Not a paper artifact, but the operational envelope a downstream user cares
about: end-to-end curation throughput, single-query latency (CPU cost, not
virtual seconds), and HTML parse cost.
"""

import pytest

from repro.bat.pages import render_plans
from repro.bat.profiles import profile_for
from repro.core import BroadbandQueryTool, parse_html
from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.isp.plans import catalog_for
from repro.world import WorldConfig, build_world


@pytest.fixture(scope="module")
def small_world():
    return build_world(WorldConfig(seed=3, scale=0.10, cities=("wichita",)))


def test_curation_throughput(benchmark, small_world):
    """End-to-end pipeline on one small city."""

    def curate():
        pipeline = CurationPipeline(
            small_world,
            CurationConfig(sampling=SamplingConfig(fraction=0.10, min_samples=5)),
        )
        return pipeline.curate()

    dataset = benchmark.pedantic(curate, rounds=3, iterations=1)
    assert len(dataset) > 100
    print(f"\ncuration produced {len(dataset)} observations")


def test_single_query_cpu_cost(benchmark, small_world):
    """CPU cost of one full BQT query (all steps, HTML parsing included)."""
    entries = small_world.city("wichita").book.feed
    # Built on first use: read it here so no timed round pays the build.
    transport = small_world.transport
    counter = {"i": 0}

    def one_query():
        # A fresh session per iteration needs a fresh exit IP, or the
        # BAT's per-IP rate limiter (correctly) blocks the hammering.
        i = counter["i"]
        counter["i"] += 1
        tool = BroadbandQueryTool(
            transport,
            client_ip=f"73.{(i // 250) % 250}.{i % 250}.9",
        )
        entry = entries[i % len(entries)]
        return tool.query_address("cox", entry)

    result = benchmark(one_query)
    assert result.status in (
        "plans",
        "no_service",
        "technical_error",
        "not_found",
        "no_suggestion_match",
    )


def test_html_parse_cost(benchmark):
    """DOM parse cost of a typical plans page."""
    markup = render_plans(
        profile_for("att"), "100 Magnolia Avenue", list(catalog_for("att"))
    )
    document = benchmark(parse_html, markup)
    assert document.select("div.plan-card")
