"""Shared fixtures: a tiny deterministic world and a curated dataset.

The fixtures are session-scoped because world construction and curation
dominate test time; individual tests must treat them as read-only.

Both curated-dataset fixtures are a settings edge: they resolve the cache
knobs with :meth:`RunSettings.from_env`, so their pipelines run memory-only
normally and with an on-disk tier when ``REPRO_CACHE_DIR`` is set — which
is exactly what the CI warm-cache job does to make a second suite run skip
every BQT replay.  Caching never
changes the datasets (byte-identical reuse is the cache's contract,
enforced by tests/test_cache_persistence.py), so tests see the same
fixtures either way.

``child_env`` builds the environment a test hands to a ``python`` child
process.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.exec import build_result_cache
from repro.experiments import clear_context_cache
from repro.settings import RunSettings
from repro.world import WorldConfig, build_world

TEST_SEED = 42

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session")
def tiny_world():
    """One small city (New Orleans at 8% scale): fast but structured."""
    return build_world(
        WorldConfig(seed=TEST_SEED, scale=0.08, cities=("new-orleans",))
    )


@pytest.fixture(scope="session")
def nola(tiny_world):
    """The New Orleans CityWorld of the tiny world."""
    return tiny_world.city("new-orleans")


def _env_result_cache():
    settings = RunSettings.from_env()
    return build_result_cache(settings.cache_dir, settings.cache_max_bytes)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_world):
    """A curated dataset over the tiny world (min 8 samples per BG)."""
    pipeline = CurationPipeline(
        tiny_world,
        CurationConfig(
            sampling=SamplingConfig(fraction=0.10, min_samples=8), n_workers=20
        ),
        cache=_env_result_cache(),
    )
    return pipeline.curate()


@pytest.fixture(scope="session")
def two_city_world():
    """Two cities sharing one cable ISP (for inter-city analyses)."""
    return build_world(
        WorldConfig(seed=TEST_SEED, scale=0.10, cities=("wichita", "oklahoma-city"))
    )


@pytest.fixture(scope="session")
def two_city_dataset(two_city_world):
    pipeline = CurationPipeline(
        two_city_world,
        CurationConfig(
            sampling=SamplingConfig(fraction=0.10, min_samples=8), n_workers=20
        ),
        cache=_env_result_cache(),
    )
    return pipeline.curate()


@pytest.fixture(scope="session")
def child_env():
    """``child_env()`` builds the environment of a child ``python``.

    The child inherits the suite's environment with this checkout's
    ``src`` on ``PYTHONPATH``.  When that environment selects an elastic
    fleet, the child drops ``REPRO_EXEC_BACKEND``, ``REPRO_ELASTIC`` and
    ``REPRO_COORDINATOR``: the suite process already holds the
    coordinator's address, and a child binding it again dies.  A static
    ``REPRO_REMOTE_WORKERS`` fleet stays inherited, so children dispatch
    to it as the suite does.
    """

    def build() -> dict[str, str]:
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{SRC}{os.pathsep}{existing}" if existing else SRC
        )
        if RunSettings.from_env().elastic:
            for name in (
                "REPRO_EXEC_BACKEND", "REPRO_ELASTIC", "REPRO_COORDINATOR"
            ):
                env.pop(name, None)
        return env

    return build


@pytest.fixture
def fresh_context_cache():
    """Isolate a test that builds experiment contexts with unusual cache
    settings (e.g. monkeypatched ``REPRO_CACHE_DIR``).

    Clears the memoized contexts and the shared result cache's memory
    tier on entry *and* exit, so state built under the test's environment
    can neither leak into later tests nor be polluted by earlier ones.
    """
    clear_context_cache()
    yield
    clear_context_cache()
