"""The content-addressed query-result cache: accounting, invalidation-by-
key, shard atomicity, and key injectivity."""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addresses.normalize import canonical_key
from repro.dataset import CurationConfig, CurationPipeline, SamplingConfig
from repro.dataset.curation import shard_config_digest
from repro.errors import ConfigurationError
from repro.exec import (
    QueryResultCache,
    ShardSpec,
    address_cache_key,
    shard_cache_keys,
    shard_digest,
    spec_cache_keys,
)
from repro.exec.spec import spec_tasks
from repro.world import WorldConfig, build_world

SMALL_CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.10, min_samples=5), n_workers=10
)


@pytest.fixture(scope="module")
def small_world():
    """A one-city world small enough to curate several times per test."""
    return build_world(WorldConfig(seed=5, scale=0.05, cities=("wichita",)))


def _pipeline(world, cache):
    return CurationPipeline(world, SMALL_CONFIG, cache=cache)


class TestAccounting:
    def test_cold_run_misses_then_warm_run_hits(self, small_world):
        cache = QueryResultCache()
        pipeline = _pipeline(small_world, cache)
        first = pipeline.curate()
        assert cache.stats.hits == 0
        assert cache.stats.misses == len(first)
        assert cache.stats.stores == len(first)
        assert pipeline.last_run.cached_shards == 0

        second = pipeline.curate()
        assert second.observations == first.observations
        assert cache.stats.hits == len(first)
        assert cache.stats.misses == len(first)
        assert pipeline.last_run.cached_shards == pipeline.last_run.total_shards
        assert pipeline.last_run.executed_shards == 0

    def test_hit_rate(self):
        cache = QueryResultCache()
        assert cache.stats.hit_rate == 0.0
        cache.stats.hits = 3
        cache.stats.misses = 1
        assert cache.stats.hit_rate == pytest.approx(0.75)

    def test_cache_shared_across_pipelines(self, small_world):
        cache = QueryResultCache()
        _pipeline(small_world, cache).curate()
        other = _pipeline(small_world, cache)
        other.curate()
        assert other.last_run.cached_shards == other.last_run.total_shards

    def test_get_does_not_touch_counters(self, small_world):
        cache = QueryResultCache()
        _pipeline(small_world, cache).curate()
        hits, misses = cache.stats.hits, cache.stats.misses
        assert cache.get("no-such-key") is None
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)


class TestInvalidation:
    """Key = content: changing any curation-relevant input must miss."""

    def test_seed_change_misses(self, small_world):
        cache = QueryResultCache()
        _pipeline(small_world, cache).curate()
        reseeded = build_world(
            WorldConfig(seed=6, scale=0.05, cities=("wichita",))
        )
        pipeline = _pipeline(reseeded, cache)
        pipeline.curate()
        assert pipeline.last_run.cached_shards == 0
        assert pipeline.last_run.executed_shards == pipeline.last_run.total_shards

    def test_scale_change_misses(self, small_world):
        cache = QueryResultCache()
        _pipeline(small_world, cache).curate()
        rescaled = build_world(
            WorldConfig(seed=5, scale=0.06, cities=("wichita",))
        )
        pipeline = _pipeline(rescaled, cache)
        pipeline.curate()
        assert pipeline.last_run.cached_shards == 0

    def test_sampling_change_misses(self, small_world):
        cache = QueryResultCache()
        _pipeline(small_world, cache).curate()
        pipeline = CurationPipeline(
            small_world,
            CurationConfig(
                sampling=SamplingConfig(fraction=0.10, min_samples=6),
                n_workers=10,
            ),
            cache=cache,
        )
        pipeline.curate()
        assert pipeline.last_run.cached_shards == 0

    def test_isp_subset_still_hits(self, small_world):
        """Shards are the cache unit: a narrower request reuses its shard."""
        cache = QueryResultCache()
        _pipeline(small_world, cache).curate()
        pipeline = _pipeline(small_world, cache)
        pipeline.curate(isps=("cox",))
        assert pipeline.last_run.total_shards == 1
        assert pipeline.last_run.cached_shards == 1


class TestShardAtomicity:
    def test_partial_shard_is_a_miss_and_refills(self, small_world):
        cache = QueryResultCache()
        pipeline = _pipeline(small_world, cache)
        first = pipeline.curate()

        # Evict everything: every shard is now partial (empty), so the next
        # run must re-execute and produce identical bytes.
        cache.clear()
        assert len(cache) == 0
        second = pipeline.curate()
        assert pipeline.last_run.cached_shards == 0
        assert second.observations == first.observations

    def test_lookup_shard_all_or_nothing(self):
        cache = QueryResultCache()
        cache.store_shard(("a", "b"), ("obs-a", "obs-b"))
        assert cache.lookup_shard(("a", "b")) == ("obs-a", "obs-b")
        assert cache.lookup_shard(("a", "b", "c")) is None
        assert cache.stats.shard_hits == 1
        assert cache.stats.shard_misses == 1

    def test_store_shard_length_mismatch_raises(self):
        cache = QueryResultCache()
        with pytest.raises(ConfigurationError):
            cache.store_shard(("k1", "k2"), ("only-one",))


class TestKeyInjectivity:
    def test_keys_injective_over_feed(self, small_world):
        """Property: distinct (isp, canonical address) pairs never collide.

        Exercised over every canonical address of the world crossed with
        both active ISPs — thousands of near-neighbor address strings.
        """
        book = small_world.city("wichita").book
        keys = set()
        pairs = 0
        for isp in ("att", "cox"):
            for address in book.canonical:
                keys.add(
                    address_cache_key(
                        isp, address.street_line(), address.zip_code, 5, 0.05
                    )
                )
                pairs += 1
        assert len(keys) == pairs

    def test_keys_distinguish_every_component(self):
        base = dict(
            isp="cox", street_line="12 Oak Ave", zip_code="70112",
            world_seed=42, scale=0.05, context_digest="d",
        )
        variants = [
            dict(base, isp="att"),
            dict(base, street_line="13 Oak Ave"),
            dict(base, zip_code="70113"),
            dict(base, world_seed=43),
            dict(base, scale=0.06),
            dict(base, context_digest="e"),
        ]
        keys = [address_cache_key(**base)] + [
            address_cache_key(**v) for v in variants
        ]
        for a, b in itertools.combinations(keys, 2):
            assert a != b

    def test_separator_injection_does_not_collide(self):
        """Concatenation attacks on the key material must not alias."""
        a = address_cache_key("cox", "12 Oak", "70112", 42, 0.05, "x")
        b = address_cache_key("cox", "12 Oak", "70112", 42, 0.05, "x\x1f")
        c = address_cache_key("cox\x1f12", "Oak", "70112", 42, 0.05, "x")
        assert len({a, b, c}) == 3

    def test_normalization_folds_spelling_variants(self):
        assert address_cache_key(
            "cox", "12 Oak Avenue", "70112", 42, 0.05
        ) == address_cache_key("cox", "12 OAK AVE", "70112", 42, 0.05)


def _reference_address_cache_key(
    isp, street_line, zip_code, world_seed, scale, context_digest=""
):
    """The per-key layout ``cache_key_deriver`` replaced: five parts, each
    UTF-8 encoded and followed by ``0x1f``, hashed one update at a time."""
    hasher = hashlib.sha256()
    for part in (
        isp,
        canonical_key(street_line, zip_code),
        str(int(world_seed)),
        repr(float(scale)),
        context_digest,
    ):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


#: The benchmark's world and curation config: four cities at scale 0.10.
BENCH_WORLD = WorldConfig(
    seed=42, scale=0.10, cities=("wichita", "baltimore", "billings", "durham")
)
BENCH_CONFIG = CurationConfig(
    sampling=SamplingConfig(fraction=0.10, min_samples=10), n_workers=50
)


class TestKeyLayout:
    """The key bytes are the store's addresses: a layout drift would
    orphan every existing store without moving any dataset digest."""

    @pytest.mark.parametrize(
        "args, key",
        [
            (("cox", "12 Magnolia Ave", "70112-1234", 42, 0.1, "ctx"),
             "7c062f2a96ce087a758e770d6bc477deb858d3caf7ffc671f80b2bcd10c59cfc"),
            (("att", "400 Oak St #3B", "67202", 7, 0.05, "ctx"),
             "f5f3714f69412dd142085b78d9c182930865284970cbc1575e8ed52e2ae632e2"),
            (("verizon", "17 Rue de l’Église", "21201", 42, 0.1, "déjà"),
             "055ba2aa0a4af85735d07b64a2e0786210589b7137f6d8788a3979165d977cb5"),
            (("spectrum", "9 Elm Street Apt 2", "59101", 1, 1e-9),
             "fbf17cf80f4620a5214372cbf797fa8375c0381d23e2161d81ce00294100c8ba"),
        ],
        ids=["zip-plus-four", "hash-unit", "non-ascii", "tiny-scale"],
    )
    def test_pinned_keys(self, args, key):
        assert address_cache_key(*args) == key

    def test_pinned_benchmark_shard_digest(self):
        """Every key of the benchmark world: the ``shard_digest`` of each
        of its eight shards' 4152 keys."""
        pinned = {
            ("wichita", "att"): (
                360, "9036c43be7e816e35a999acf67bc23f4e3955d77970091827a75b8ed12ba1988"),
            ("wichita", "cox"): (
                360, "3b136a861ec2e5ae13b667c9cf3f2c3890fba7ac4069d96f7ad92e5cb28d4a4c"),
            ("baltimore", "verizon"): (
                1428, "f97a67cf96d3f9d1e472fdc9c5e02a6e23637b5d2daa96f3421cf76660a07dac"),
            ("baltimore", "xfinity"): (
                1428, "c3320a4b8447dd140614d2712259ff08fb337909765a4ab57fd650f999724f20"),
            ("billings", "centurylink"): (
                120, "bef4f94d90bdca30bd2af2cb59d2367fc04458718ccc679e2d0573a8c5313a2e"),
            ("billings", "spectrum"): (
                120, "3d7e2acfc584497b212976b364102bbe7f5aa1804f5c0f39de5f68cac2c8c6af"),
            ("durham", "frontier"): (
                168, "6eae931796033b8421dd591ad04a4df41e0bc6e3e85a5b49c5715bc6e0fa3d39"),
            ("durham", "spectrum"): (
                168, "2f4ff59450274735250c5bfcb37369d2bec561c1eec26036020da16c9f7a9388"),
        }
        digests = {}
        for city, isp in pinned:
            spec = ShardSpec(
                world=BENCH_WORLD,
                city=city,
                isp=isp,
                config=BENCH_CONFIG,
                config_digest=shard_config_digest(BENCH_WORLD, BENCH_CONFIG, city, isp),
            )
            keys = spec_cache_keys(spec, spec_tasks(spec))
            digests[city, isp] = (len(keys), shard_digest(keys))
        assert digests == pinned

    @settings(max_examples=300, deadline=None)
    @given(
        isp=st.text(max_size=8),
        street_line=st.text(max_size=30),
        zip_code=st.text(alphabet="0123456789- ", max_size=11) | st.text(max_size=6),
        world_seed=st.integers(min_value=-(2**70), max_value=2**70),
        scale=st.floats(allow_nan=True, allow_infinity=True),
        context_digest=st.text(max_size=8),
    )
    @example(isp="cox\x1f", street_line="12 Oak Ave", zip_code="70112",
             world_seed=0, scale=-0.0, context_digest="")
    def test_equals_per_key_layout(
        self, isp, street_line, zip_code, world_seed, scale, context_digest
    ):
        args = (isp, street_line, zip_code, world_seed, scale, context_digest)
        try:
            expected = _reference_address_cache_key(*args)
        except UnicodeEncodeError:  # lone surrogates fail either way
            with pytest.raises(UnicodeEncodeError):
                address_cache_key(*args)
            return
        assert address_cache_key(*args) == expected

    def test_shard_keys_equal_per_key_loop(self, small_world):
        """Every key of every shard, on a world with units, variant
        spellings and several ZIPs."""
        city = small_world.city("wichita")
        tasks = city.book.feed
        for isp in city.info.isps:
            assert shard_cache_keys(isp, tasks, 5, 0.05, "digest") == tuple(
                _reference_address_cache_key(
                    isp, task.truth.street_line(), task.truth.zip_code,
                    5, 0.05, "digest",
                )
                for task in tasks
            )
