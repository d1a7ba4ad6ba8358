"""Tests for deterministic seed derivation and batched PCG64 seeding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.seeding import (
    DrawStream,
    derive_seed,
    _pcg64_states,
    rng_for,
    seed_deriver,
    seeded_generators,
    standard_normals,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_labels_matter(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_parent_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab",) and ("a", "b") must differ — separator byte matters.
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")

    def test_non_negative_63_bit(self):
        for labels in (("x",), ("y", 3), (1.5,)):
            seed = derive_seed(7, *labels)
            assert 0 <= seed < 2**63

    def test_integer_labels_supported(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(42, 2)

    def test_pinned_values(self):
        # Every golden digest rests on these bytes: the parent seed's decimal
        # string, then 0x1f and str(label) per label, SHA-256, 63 bits.
        assert derive_seed(42, "geo", "new-orleans") == 1478970591267406778
        assert derive_seed(0) == 6912158355717386040
        assert derive_seed(7, "délais", 3, 1.5) == 5199895819564875316

    def test_distribution_spread(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000  # no collisions in a small sample


class TestRngFor:
    def test_reproducible_stream(self):
        a = rng_for(42, "stream").random(5)
        b = rng_for(42, "stream").random(5)
        assert np.array_equal(a, b)

    def test_different_streams(self):
        a = rng_for(42, "s1").random(5)
        b = rng_for(42, "s2").random(5)
        assert not np.array_equal(a, b)


class TestSeedDeriver:
    """The prefix form hashes ``(parent, *labels)`` once and must derive
    exactly what ``derive_seed`` derives for the full label list."""

    _LABELS = st.lists(st.text() | st.integers(), max_size=4)

    @settings(max_examples=200, deadline=None)
    @given(
        parent=st.integers(min_value=0, max_value=2**63 - 1),
        prefix=_LABELS,
        suffixes=st.lists(_LABELS, min_size=1, max_size=4),
    )
    @example(parent=7, prefix=["délais", 3], suffixes=[["Rue de l’Église 漢", 70112], []])
    def test_equals_derive_seed(self, parent, prefix, suffixes):
        derive = seed_deriver(parent, *prefix)
        for suffix in suffixes:
            assert derive(*suffix) == derive_seed(parent, *prefix, *suffix)


#: One- and two-word seeds at both ends, and the tops of derive_seed's
#: range and of the uint64 range _pcg64_states accepts.
_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)


class TestBatchedPcg64Seeding:
    """``_pcg64_states`` reimplements numpy's SeedSequence and PCG64 seeding;
    a numpy release that changed either would fail here first."""

    @settings(max_examples=100, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1)
            | st.sampled_from(_EDGE_SEEDS),
            max_size=12,
        )
    )
    @example(seeds=list(_EDGE_SEEDS))
    def test_states_equal_pcg64(self, seeds):
        for seed, (state, inc) in zip(seeds, _pcg64_states(seeds), strict=True):
            assert np.random.PCG64(seed).state == {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }

    @settings(max_examples=100, deadline=None)
    @given(
        tasks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**63 - 1)
                | st.sampled_from(_EDGE_SEEDS),
                st.integers(min_value=0, max_value=8),
            ),
            max_size=12,
        )
    )
    @example(tasks=[(seed, 8) for seed in _EDGE_SEEDS])
    def test_normals_equal_default_rng(self, tasks):
        seeds = [seed for seed, _ in tasks]
        counts = [k for _, k in tasks]
        expected = [
            value
            for seed, k in tasks
            for value in np.random.default_rng(seed).standard_normal(k).tolist()
        ]
        assert standard_normals(seeds, counts).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1)
            | st.sampled_from(_EDGE_SEEDS),
            max_size=8,
        )
    )
    @example(seeds=list(_EDGE_SEEDS))
    def test_generators_equal_default_rng(self, seeds):
        """Each yielded generator draws what a fresh ``default_rng(seed)``
        draws, whatever the previous seed's generator left buffered."""

        def draws(rng):
            return (
                rng.integers(0, 7, size=3).tolist(),
                rng.choice(20, size=5, replace=False).tolist(),
                rng.random(2).tolist(),
                rng.standard_normal(2).tolist(),
                # A 32-bit draw leaves half a word buffered.
                rng.integers(0, 2**31, dtype=np.int32).item(),
            )

        taken = [draws(rng) for rng in seeded_generators(seeds)]
        assert taken == [draws(np.random.default_rng(seed)) for seed in seeds]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_refused(self, seed):
        with pytest.raises(OverflowError):
            standard_normals([seed], [1])


#: Ranges with heavy Lemire rejection (2**31 + 1 rejects almost half of
#: all draws), the widest 32-bit one, and the one-value range that draws
#: nothing.
_SPANS = (1, 2, 3, 7, 26, 39, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32)

#: One scalar draw: ("random",), ("integers", low, span), ("choice", n)
#: or ("permutation", n).
_DRAWS = st.one_of(
    st.just(("random",)),
    st.tuples(
        st.just("integers"),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.sampled_from(_SPANS) | st.integers(min_value=1, max_value=2**32),
    ),
    st.tuples(st.just("choice"), st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("permutation"), st.integers(min_value=0, max_value=70)),
)


def _draw(rng, draw):
    kind, *args = draw
    if kind == "random":
        return rng.random()
    if kind == "integers":
        low, span = args
        return int(rng.integers(low, low + span))
    if kind == "choice":
        return str(rng.choice(tuple(f"s{i}" for i in range(args[0]))))
    return rng.permutation(args[0]).tolist()


class TestDrawStream:
    """``DrawStream`` replays numpy's ``next_double``, buffered
    ``next_uint32``, Lemire bounded draw and ``permutation`` over raw PCG64
    words; a numpy release that changed any of them would fail here
    before it moved a world."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1)
        | st.sampled_from(_EDGE_SEEDS),
        chunk=st.sampled_from([1, 2, 3, DrawStream.CHUNK]),
        draws=st.lists(_DRAWS, max_size=60),
    )
    # A permutation taken while a half-word is buffered, then one that
    # leaves a half buffered for the draws after it.
    @example(
        seed=42,
        chunk=DrawStream.CHUNK,
        draws=[("integers", 0, 3), ("random",), ("permutation", 9),
               ("integers", 0, 2), ("permutation", 4), ("integers", 1, 2**31 + 1)],
    )
    def test_draws_equal_default_rng(self, seed, chunk, draws):
        stream = DrawStream(seed)
        stream.CHUNK = chunk  # small chunks put every draw at a refill edge
        generator = np.random.default_rng(seed)
        for draw in draws:
            assert _draw(stream, draw) == _draw(generator, draw), draw
        # Both sit at the same point of the stream afterwards.
        assert stream.random() == generator.random()
        assert stream.integers(0, 2**31 + 1) == generator.integers(0, 2**31 + 1)

    def test_one_value_range_draws_nothing(self):
        stream = DrawStream(7)
        assert stream.integers(5, 6) == 5
        assert stream.random() == np.random.default_rng(7).random()

    def test_long_interleaved_run_equals_default_rng(self):
        # Thousands of draws: many chunk refills at the default size.
        stream, generator = DrawStream(11), np.random.default_rng(11)
        for i in range(6000):
            draw = (("random",), ("integers", 0, 7), ("choice", 4))[i % 3]
            if i % 997 == 0:
                draw = ("permutation", 1064)
            assert _draw(stream, draw) == _draw(generator, draw)

    @pytest.mark.parametrize("low, high", [(3, 3), (4, 2), (0, 2**32 + 1)])
    def test_unserved_range_is_refused(self, low, high):
        with pytest.raises(ValueError):
            DrawStream(0).integers(low, high)
