"""The columnar fast path, locked down by golden digests and properties.

Four layers of guarantees:

* **Golden parity** — the pinned seed configurations must produce the
  checked-in digests with the columnar path forced on and forced off,
  cold, warm-from-disk, and incrementally re-curated, on every backend
  including remote worker processes.  The fast path is only allowed to
  exist because these stay byte-identical.
* **Record-level parity and walk coverage** — shard observations compare
  equal object by object (not just digest) between the two paths, so a
  digest collision can never mask a drift; on a seven-ISP world every
  walk kind BQT takes occurs and no task leaves the fast path.
* **Matching oracles** — the address index's candidates, BQT's
  suggestion matcher and the edit distance under it equal reference
  copies of their pre-optimization code, and the index's keys equal
  ``canonical_key``.
* **Properties (hypothesis)** — batch hashing matches the scalar hash on
  arbitrary strings, the vectorized RNG synthesis reproduces the scalar
  draw sequences element for element, and ``best_suggestion`` equals its
  reference on generated lines and ZIPs.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import replace
from difflib import SequenceMatcher

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addresses.database import AddressIndex
from repro.addresses.normalize import (
    canonical_key,
    normalize_street_line,
    normalize_zip,
)
from repro.core import workflow
from repro.core.matching import (
    DEFAULT_ACCEPT_THRESHOLD,
    address_similarity,
    best_suggestion,
    levenshtein,
    string_similarity,
    token_similarity,
)
from repro.core.templates import TemplateKind
from repro.core.workflow import QueryStatus
from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.dataset import columnar, curation
from repro.dataset.columnar import hash_address_ids, run_shard_columnar
from repro.dataset.curation import (
    _city_address_index,
    _scalar_shard_observations,
    _shard_observations,
    _shard_tasks,
    hash_address_id,
    index_build_seconds,
)
from repro.errors import ConfigurationError
from repro.exec import DiskShardStore, QueryResultCache
from repro.net.latency import LatencyModel
from repro.settings import ambient_columnar
from repro.world import WorldConfig, build_world

COLUMNAR_ENV = "REPRO_COLUMNAR"

BACKENDS = ["serial", "thread", "process"]

SMALL_CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.10, min_samples=5), n_workers=10
)

# The pinned digests from tests/test_cache_persistence.py: the columnar
# path must hit the identical bytes.  (Redefined here — the suites stay
# independently runnable.)
GOLDEN_WICHITA_SEED5 = (
    "20a00c4197b018f9ded3132e95bf1d372ad7d98e87945cc4a7fde6f8a8640def"
)
GOLDEN_NOLA_SEED42 = (
    "15d190878bef7e483cf7c5e82059222566074b6a293edba3245562055c3d67a0"
)


@pytest.fixture(scope="module")
def small_world():
    return build_world(WorldConfig(seed=5, scale=0.05, cities=("wichita",)))


@pytest.fixture(scope="module")
def walk_world():
    """All seven ISPs, both suggestion styles, and every walk kind."""
    return build_world(
        WorldConfig(
            seed=42,
            scale=0.05,
            cities=("wichita", "baltimore", "billings", "durham"),
        )
    )


def _world_shards(world):
    """Each (city world, ISP, sampled tasks) shard of ``world``."""
    for city_world in world.cities.values():
        for isp in city_world.info.isps:
            tasks = _shard_tasks(
                city_world, isp, SMALL_CONFIG.sampling, world.config.seed
            )
            yield city_world, isp, tasks


@pytest.fixture
def columnar_on(monkeypatch):
    monkeypatch.setenv(COLUMNAR_ENV, "1")


@pytest.fixture
def columnar_off(monkeypatch):
    monkeypatch.setenv(COLUMNAR_ENV, "0")


# ----------------------------------------------------------------------
# The environment gate
# ----------------------------------------------------------------------
class TestGate:
    @pytest.mark.parametrize("value", ["0", "off", "OFF", "False", " no "])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(COLUMNAR_ENV, value)
        assert not ambient_columnar()

    @pytest.mark.parametrize("value", ["1", "on", "yes", ""])
    def test_enabled_values(self, monkeypatch, value):
        monkeypatch.setenv(COLUMNAR_ENV, value)
        assert ambient_columnar()

    @pytest.mark.parametrize("value", ["anything", "disabled"])
    def test_malformed_values(self, monkeypatch, value):
        monkeypatch.setenv(COLUMNAR_ENV, value)
        with pytest.raises(ConfigurationError, match=COLUMNAR_ENV):
            ambient_columnar()

    def test_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(COLUMNAR_ENV, raising=False)
        assert ambient_columnar()

    def test_unresolvable_task_gates_whole_shard(self, small_world, monkeypatch):
        """A task the classifier cannot resolve (an empty ZIP renders the
        BAT's empty-form page) sends the whole shard down the scalar path."""
        world_config = small_world.config
        city_world = small_world.city("wichita")
        tasks = _shard_tasks(city_world, "cox", SMALL_CONFIG.sampling, 5)
        tasks[3] = replace(tasks[3], zip_code=" ")
        assert (
            run_shard_columnar(world_config, city_world, "cox", SMALL_CONFIG, tasks)
            is None
        )
        monkeypatch.setenv(COLUMNAR_ENV, "1")
        assert _shard_observations(
            world_config, city_world, "cox", SMALL_CONFIG, tasks
        ) == _scalar_shard_observations(
            world_config, city_world, "cox", SMALL_CONFIG, tasks
        )

    def test_pacing_gates_whole_shard(self, small_world):
        """A paced shard must decline the fast path (it never sleeps)."""
        world_config = small_world.config
        city_world = small_world.city("wichita")
        config = replace(SMALL_CONFIG, pacing_time_scale=8e-5)
        tasks = _shard_tasks(city_world, "cox", config.sampling, 5)
        assert (
            run_shard_columnar(world_config, city_world, "cox", config, tasks)
            is None
        )


# ----------------------------------------------------------------------
# Golden parity, fast tier
# ----------------------------------------------------------------------
def test_cold_run_golden_columnar_on(small_world, columnar_on):
    dataset = CurationPipeline(small_world, SMALL_CONFIG).curate()
    assert dataset.content_digest() == GOLDEN_WICHITA_SEED5


def test_cold_run_golden_columnar_off(small_world, columnar_off):
    dataset = CurationPipeline(small_world, SMALL_CONFIG).curate()
    assert dataset.content_digest() == GOLDEN_WICHITA_SEED5


def test_shard_observations_identical_records(small_world, monkeypatch):
    """Object-level parity per shard: equality of every observation, both
    ISPs, not just of the dataset digest."""
    world_config = small_world.config
    city_world = small_world.city("wichita")
    for isp in city_world.info.isps:
        monkeypatch.setenv(COLUMNAR_ENV, "1")
        fast = _shard_observations(world_config, city_world, isp, SMALL_CONFIG)
        monkeypatch.setenv(COLUMNAR_ENV, "0")
        slow = _shard_observations(world_config, city_world, isp, SMALL_CONFIG)
        assert fast == slow
        # The fast path must actually have synthesized something here,
        # or this parity test is vacuous.
        assert len(fast) > 0


def test_fallback_subset_matches_full_scalar(small_world):
    """The scalar engine replays any task subset byte-identically — the
    property sub-shard chunking rests on."""
    world_config = small_world.config
    city_world = small_world.city("wichita")
    tasks = _shard_tasks(city_world, "att", SMALL_CONFIG.sampling, 5)
    full = _scalar_shard_observations(
        world_config, city_world, "att", SMALL_CONFIG, tasks
    )
    subset = [tasks[i] for i in range(1, len(tasks), 3)]
    replayed = _scalar_shard_observations(
        world_config, city_world, "att", SMALL_CONFIG, subset
    )
    assert replayed == tuple(full[i] for i in range(1, len(tasks), 3))


# ----------------------------------------------------------------------
# Walk coverage (slow tier)
# ----------------------------------------------------------------------
_PICK_PAGES = (TemplateKind.SUGGESTIONS, TemplateKind.MDU)

#: Each walk kind a miss can start, as the scalar engine's visited
#: templates (``QueryResult.steps``) and terminal status show it.
_WALK_KINDS = {
    "suggestion pick": lambda steps, status: (
        steps[1:2] == (TemplateKind.SUGGESTIONS,) and len(steps) > 2
    ),
    "no_suggestion_match": lambda steps, status: (
        status == QueryStatus.NO_SUGGESTION_MATCH
    ),
    "MDU pick": lambda steps, status: steps[1:2] == (TemplateKind.MDU,),
    "technical error after a pick": lambda steps, status: (
        steps[1:2] in [(kind,) for kind in _PICK_PAGES]
        and steps[2:] == (TemplateKind.TECHNICAL_ERROR,)
    ),
    "interstitial after a pick": lambda steps, status: (
        steps[1:2] in [(kind,) for kind in _PICK_PAGES]
        and steps[2:3] == (TemplateKind.EXISTING_CUSTOMER,)
    ),
    "not_found": lambda steps, status: status == QueryStatus.NOT_FOUND,
}


def _recording(pick, sink):
    def recorded(street_line, zip_code, texts):
        sink.append((street_line, zip_code, list(texts)))
        return pick(street_line, zip_code, texts)

    return recorded


@pytest.mark.slow
def test_every_walk_is_synthesized(walk_world, monkeypatch):
    """No task of a seven-ISP world replays through the fleet.

    Every shard's fast-path records equal the scalar oracle's over the
    same tasks, every walk kind occurs (so this cannot pass vacuously),
    and on every suggestion page the texts the classifier scores are the
    ones BQT reads back from the rendered, parsed page, in both the
    ``select`` and ``list`` styles.
    """
    from repro.bat.profiles import profile_for

    walks: Counter = Counter()

    class RecordingFleet(curation.ContainerFleet):
        def run(self, tasks):
            report = super().run(tasks)
            walks.update((r.steps, r.status) for r in report.results)
            return report

    def no_fleet(*args, **kwargs):
        raise AssertionError("a shard left the columnar path")

    monkeypatch.setattr(curation, "ContainerFleet", RecordingFleet)
    monkeypatch.setenv(COLUMNAR_ENV, "1")
    pick_suggestion = workflow.pick_suggestion
    styles = set()
    for city_world, isp, tasks in _world_shards(walk_world):
        scored: list = []
        read: list = []
        monkeypatch.setattr(
            columnar, "pick_suggestion", _recording(pick_suggestion, scored)
        )
        monkeypatch.setattr(curation, "_scalar_shard_observations", no_fleet)
        fast = _shard_observations(
            walk_world.config, city_world, isp, SMALL_CONFIG, tasks
        )
        monkeypatch.setattr(
            workflow, "pick_suggestion", _recording(pick_suggestion, read)
        )
        oracle = _scalar_shard_observations(
            walk_world.config, city_world, isp, SMALL_CONFIG, tasks
        )
        assert fast == oracle, (city_world.info.name, isp)
        assert scored == read, (city_world.info.name, isp)
        if read:
            styles.add(profile_for(isp).suggestion_style)

    assert styles == {"select", "list"}
    missing = [
        name
        for name, occurs in _WALK_KINDS.items()
        if not any(occurs(steps, status) for steps, status in walks)
    ]
    assert not missing, (missing, walks)


# ----------------------------------------------------------------------
# Golden parity, full matrix (slow tier)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("columnar", ["0", "1"])
@pytest.mark.parametrize("backend", BACKENDS)
class TestGoldenParityMatrix:
    def test_cold_run(self, small_world, backend, columnar, monkeypatch):
        monkeypatch.setenv(COLUMNAR_ENV, columnar)
        dataset = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend
        ).curate()
        assert dataset.content_digest() == GOLDEN_WICHITA_SEED5

    def test_warm_disk_run(
        self, small_world, backend, columnar, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(COLUMNAR_ENV, columnar)
        cold_cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        cold = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=cold_cache
        )
        assert cold.curate().content_digest() == GOLDEN_WICHITA_SEED5
        assert cold.last_run.replayed_queries > 0

        warm_cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        warm = CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=warm_cache
        )
        assert warm.curate().content_digest() == GOLDEN_WICHITA_SEED5
        assert warm.last_run.replayed_queries == 0

    def test_incremental_run(
        self, small_world, backend, columnar, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(COLUMNAR_ENV, columnar)
        cache = QueryResultCache(store=DiskShardStore(tmp_path / "c"))
        CurationPipeline(
            small_world, SMALL_CONFIG, executor=backend, cache=cache
        ).curate()

        changed = SMALL_CONFIG.with_isp_override("cox", politeness_seconds=4.0)
        pipeline = CurationPipeline(
            small_world, changed, executor=backend, cache=cache
        )
        incremental = pipeline.curate()
        assert pipeline.last_run.executed_shards == 1
        assert pipeline.last_run.cached_shards == 1
        scratch = CurationPipeline(small_world, changed).curate()
        assert incremental.observations == scratch.observations


@pytest.mark.slow
@pytest.mark.parametrize("columnar", ["0", "1"])
class TestRemoteGoldenParity:
    """Remote worker processes inherit the coordinator's REPRO_COLUMNAR
    at spawn, so each parametrization boots its own loopback fleet."""

    def test_cold_run(self, small_world, columnar, monkeypatch):
        from repro.exec import DistributedExecutor, local_worker_pool

        monkeypatch.setenv(COLUMNAR_ENV, columnar)
        with local_worker_pool(count=2, width=2) as addresses:
            dataset = CurationPipeline(
                small_world,
                SMALL_CONFIG,
                executor=DistributedExecutor(workers=addresses),
            ).curate()
        assert dataset.content_digest() == GOLDEN_WICHITA_SEED5


# ----------------------------------------------------------------------
# Batched address-id hashing (hypothesis)
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.text(max_size=40).filter(lambda s: "|" not in s),
            st.text(max_size=10).filter(lambda s: "|" not in s),
        ),
        max_size=20,
    ),
    salt=st.text(max_size=16).filter(lambda s: "|" not in s),
)
def test_batch_hash_matches_scalar(pairs, salt):
    streets = [street for street, _ in pairs]
    zips = [zip5 for _, zip5 in pairs]
    assert hash_address_ids(streets, zips, salt) == [
        hash_address_id(street, zip5, salt)
        for street, zip5 in zip(streets, zips)
    ]


# ----------------------------------------------------------------------
# Matching oracles: the index and matcher before per-street scoring
# ----------------------------------------------------------------------
def _reference_candidates(index, street_line, zip_code, limit=25):
    """``AddressIndex.candidates`` as it was: every address re-scored."""
    zip5 = normalize_zip(zip_code)
    tokens = normalize_street_line(street_line).split()
    found = {}

    query_number = tokens[0] if tokens and tokens[0].isdigit() else ""
    if query_number:
        band = int(query_number) // 10
        for nearby_band in (band - 1, band, band + 1):
            for address in index._by_number_band.get((zip5, nearby_band), ()):
                found.setdefault(address.street_line() + zip5, address)

    name_token = next((t for t in tokens if not t.isdigit()), "")
    if name_token:
        prefix = name_token[:3]
        for address in index._by_name_prefix.get((zip5, prefix), ()):
            found.setdefault(address.street_line() + zip5, address)

    query_name = " ".join(t for t in tokens if not t.isdigit())

    def relevance(address):
        number_match = 1.0 if str(address.house_number) == query_number else 0.0
        candidate_name = normalize_street_line(
            f"{address.street_name} {address.street_suffix}"
        )
        name_score = SequenceMatcher(None, query_name, candidate_name).ratio()
        return (-number_match, -name_score, address.street_line())

    ordered = sorted(found.values(), key=relevance)
    return tuple(ordered[:limit])


def _reference_levenshtein(a, b):
    """``levenshtein`` as it was: the classic two-row dynamic program."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (char_a != char_b)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


def _reference_string_similarity(a, b):
    if not a and not b:
        return 1.0
    return 1.0 - _reference_levenshtein(a, b) / max(len(a), len(b))


def _reference_address_similarity(query_line, candidate_line):
    """``address_similarity`` as it was: both lines normalized per call."""
    query = normalize_street_line(query_line)
    candidate = normalize_street_line(candidate_line)
    if query == candidate:
        return 1.0

    query_tokens = query.split()
    candidate_tokens = candidate.split()
    query_number = query_tokens[0] if query_tokens and query_tokens[0].isdigit() else ""
    candidate_number = (
        candidate_tokens[0] if candidate_tokens and candidate_tokens[0].isdigit() else ""
    )
    number_score = 1.0 if query_number == candidate_number else 0.0

    query_street = " ".join(t for t in query_tokens if t != query_number)
    candidate_street = " ".join(t for t in candidate_tokens if t != candidate_number)
    street_score = 0.5 * _reference_string_similarity(
        query_street, candidate_street
    ) + 0.5 * token_similarity(query_street, candidate_street)
    return 0.35 * number_score + 0.65 * street_score


def _reference_best_suggestion(
    query_line, query_zip, suggestions, threshold=DEFAULT_ACCEPT_THRESHOLD
):
    """``best_suggestion`` as it was: every suggestion scored afresh."""
    query_zip5 = normalize_zip(query_zip)
    best_index = None
    best_score = threshold
    for index, (line, zip_code) in enumerate(suggestions):
        if normalize_zip(zip_code) != query_zip5:
            continue
        score = _reference_address_similarity(query_line, line)
        if score > best_score:
            best_score = score
            best_index = index
    return best_index


@pytest.mark.slow
def test_candidates_match_reference(walk_world):
    """Every sampled query ranks exactly as before, under its own ZIP and
    under the next ZIP the city's queries use."""
    for city_world in walk_world.cities.values():
        index = AddressIndex(tuple(city_world.book.canonical))
        queries = sorted(
            {
                (entry.street_line.strip(), entry.zip_code.strip())
                for shard_world, _, tasks in _world_shards(walk_world)
                if shard_world is city_world
                for entry in tasks
            }
        )
        zips = sorted({zip5 for _, zip5 in queries})
        neighbour = {zip5: zips[(i + 1) % len(zips)] for i, zip5 in enumerate(zips)}
        swapped = [(line, neighbour[zip5]) for line, zip5 in queries]
        limit = len(index)  # the whole ranking, not just its head
        for line, zip5 in queries + swapped:
            assert index.candidates(line, zip5, limit=limit) == (
                _reference_candidates(index, line, zip5, limit=limit)
            ), (line, zip5)


def test_index_keys_equal_canonical_key(walk_world):
    """``lookup`` and ``units_at`` find every canonical address under the
    keys ``canonical_key`` builds."""
    for city_world in walk_world.cities.values():
        addresses = city_world.book.canonical
        index = AddressIndex(tuple(addresses))
        by_key = {}
        units = defaultdict(list)
        for address in addresses:
            by_key[canonical_key(address.street_line(), address.zip_code)] = address
            if address.is_multi_dwelling:
                building = address.without_unit().street_line()
                units[canonical_key(building, address.zip_code)].append(address)
        assert units, "the world must have multi-dwelling buildings"
        for address in addresses:
            key = canonical_key(address.street_line(), address.zip_code)
            assert index.lookup(address.street_line(), address.zip_code) is by_key[key]
            assert index.lookup_canonical(key) is by_key[key]
            if address.is_multi_dwelling:
                building = address.without_unit().street_line()
                assert index.units_at(building, address.zip_code) == tuple(
                    units[canonical_key(building, address.zip_code)]
                )
        assert index._by_key == by_key


_NUMBERS = st.sampled_from(["", "12", "012", "120", "125", "7", "12B"])
_WORDS = st.sampled_from(
    ["Magnolia", "MAGNOLIA", "Magnola", "Oak", "Oakk", "12th", "Main",
     "Avenue", "Ave.", "AV", "St", "Street", "Apt", "#", "Unit", "3", "12"]
)
_LINES = st.builds(
    lambda number, words: " ".join([number, *words]).strip(),
    _NUMBERS,
    st.lists(_WORDS, max_size=5),
) | st.text(max_size=24)
_ZIPS = st.sampled_from(["70112", "70112-1234", " 70112", "70113", "7011", ""])


@settings(max_examples=200, deadline=None)
@given(
    query_line=_LINES,
    query_zip=_ZIPS,
    suggestions=st.lists(st.tuples(_LINES, _ZIPS), max_size=10),
    threshold=st.sampled_from([DEFAULT_ACCEPT_THRESHOLD, 0.0, 0.5, 0.99]),
)
def test_best_suggestion_matches_reference(
    query_line, query_zip, suggestions, threshold
):
    assert best_suggestion(
        query_line, query_zip, suggestions, threshold
    ) == _reference_best_suggestion(query_line, query_zip, suggestions, threshold)
    for line, _ in suggestions:
        # Bit-identical scores, not just the same winner.
        assert address_similarity(query_line, line) == (
            _reference_address_similarity(query_line, line)
        )


#: Alphabets small enough that random strings share characters, one of
#: them beyond ASCII and the Basic Multilingual Plane.
_ALPHABETS = st.sampled_from(["AB ", "ABCDEFGH 12", "aéß漢🙂 x"])


@st.composite
def _edit_pairs(draw):
    """Two strings around a shared prefix and suffix.  What differs may
    run to 90 characters: past one 64-bit word of the bit-parallel
    distance."""
    alphabet = draw(_ALPHABETS)
    affix = st.text(alphabet=alphabet, max_size=20)
    core = st.text(alphabet=alphabet, max_size=90)
    prefix, suffix = draw(affix), draw(affix)
    return (prefix + draw(core) + suffix, prefix + draw(core) + suffix)


@settings(max_examples=300, deadline=None)
@given(pair=_edit_pairs() | st.tuples(st.text(), st.text()))
@example(pair=("MAGNOLIA ST", "MAGNOLA ST"))
@example(pair=("AB" * 40 + "C", "BA" * 45))
@example(pair=("漢🙂" * 35 + "x", "x" + "🙂漢" * 33))
def test_levenshtein_matches_reference(pair):
    a, b = pair
    assert levenshtein(a, b) == _reference_levenshtein(a, b)
    assert string_similarity(a, b) == _reference_string_similarity(a, b)


# ----------------------------------------------------------------------
# RNG synthesis equivalence (hypothesis)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       k=st.integers(min_value=0, max_value=8))
def test_batched_normals_match_sequential_draws(seed, k):
    """standard_normal(k) is the same stream as k scalar draws — the fact
    that lets one vectorized call per task replace per-request draws."""
    batched = np.random.default_rng(seed).standard_normal(k)
    rng = np.random.default_rng(seed)
    sequential = [rng.standard_normal() for _ in range(k)]
    assert batched.tolist() == sequential


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       base=st.floats(min_value=0.001, max_value=5.0),
       sigma=st.floats(min_value=0.0, max_value=3.0),
       k=st.integers(min_value=1, max_value=8))
def test_vectorized_rtt_matches_sample_rtt(seed, base, sigma, k):
    """base * exp(sigma * z) vectorized == sample_rtt per element, bitwise."""
    model = LatencyModel(base_rtt=base, sigma=sigma)
    rng = np.random.default_rng(seed)
    scalar = [model.sample_rtt(rng) for _ in range(k)]
    z = np.random.default_rng(seed).standard_normal(k)
    vectorized = model.base_rtt * np.exp(model.sigma * z)
    assert vectorized.tolist() == scalar


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       median=st.floats(min_value=0.0, max_value=120.0),
       sigma=st.floats(min_value=0.0, max_value=1.0),
       k=st.integers(min_value=1, max_value=8))
def test_vectorized_render_delay_matches_scalar(seed, median, sigma, k):
    """round(median * exp(sigma*z), 3) on vectorized spreads == the app's
    per-request _render_delay arithmetic."""
    rng = np.random.default_rng(seed)
    scalar = [
        round(median * float(np.exp(sigma * rng.standard_normal())), 3)
        for _ in range(k)
    ]
    spreads = np.exp(sigma * np.random.default_rng(seed).standard_normal(k))
    vectorized = [
        round(median * spread, 3) for spread in spreads.tolist()
    ]
    assert vectorized == scalar


# ----------------------------------------------------------------------
# Run-report instrumentation
# ----------------------------------------------------------------------
def test_index_build_time_is_recorded():
    """A cold city records index-build wall time; a rerun on the memoized
    index records (approximately) none."""
    world = build_world(WorldConfig(seed=987, scale=0.02, cities=("wichita",)))
    cold = CurationPipeline(world, SMALL_CONFIG)
    cold.curate(isps=("cox",))
    assert cold.last_run.index_build_s > 0.0

    warm = CurationPipeline(world, SMALL_CONFIG)
    warm.curate(isps=("cox",))
    assert warm.last_run.index_build_s == 0.0


def test_concurrent_cold_index_is_built_once(monkeypatch):
    """Threads missing on one cold key share a single build (single
    flight), and the build time is counted once."""
    world = build_world(WorldConfig(seed=988, scale=0.02, cities=("wichita",)))
    city_world = world.city("wichita")
    durations = []

    def slow_index(addresses):
        started = time.perf_counter()
        time.sleep(0.2)  # hold the build open while the other threads miss
        index = AddressIndex(addresses)
        durations.append(time.perf_counter() - started)
        return index

    monkeypatch.setattr(curation, "AddressIndex", slow_index)
    threads = 8
    barrier = threading.Barrier(threads)
    indexes = []

    def fetch():
        barrier.wait(timeout=30)
        indexes.append(_city_address_index(world.config, city_world))

    before = index_build_seconds()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=fetch) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)

    assert not any(worker.is_alive() for worker in workers)
    assert len(durations) == 1
    assert len(indexes) == threads
    assert all(index is indexes[0] for index in indexes)
    assert index_build_seconds() - before == pytest.approx(durations[0], abs=0.05)
