"""Tests for the street-address substrate."""

import numpy as np
import pytest

from repro.addresses import (
    Address,
    AddressGeneratorConfig,
    NoiseClass,
    NoiseConfig,
    NoiseModel,
    build_city_index,
    canonical_key,
    generate_city_addresses,
    normalize_street_line,
    normalize_token,
    normalize_zip,
    tokenize,
)
from repro.errors import AddressError, ConfigurationError
from repro.geo import CityGrid, get_city


def make_address(**overrides) -> Address:
    base = dict(
        house_number=12,
        street_name="Magnolia",
        street_suffix="Avenue",
        unit=None,
        city="new-orleans",
        state="LA",
        zip_code="70112",
        block_group="new-orleans-bg-0001",
    )
    base.update(overrides)
    return Address(**base)


class TestNormalize:
    def test_tokenize_strips_punctuation(self):
        assert tokenize("12  Magnolia Ave., Apt 3") == [
            "12", "MAGNOLIA", "AVE", "APT", "3",
        ]

    def test_hash_is_unit_marker(self):
        assert "APT" in normalize_street_line("12 Oak St #3").split()

    @pytest.mark.parametrize(
        "variant", ["Avenue", "AVENUE", "Ave", "AVE", "ave.", "AV"]
    )
    def test_avenue_variants_collapse(self, variant):
        assert normalize_token(variant) == "AVE"

    @pytest.mark.parametrize("variant", ["Court", "CT", "Ct", "CRT", "ct."])
    def test_court_variants_collapse(self, variant):
        assert normalize_token(variant) == "CT"

    def test_unit_designators(self):
        assert normalize_token("Apartment") == "APT"
        assert normalize_token("Suite") == "STE"

    def test_non_suffix_token_uppercased(self):
        assert normalize_token("magnolia") == "MAGNOLIA"

    def test_normalize_line_idempotent(self):
        line = "12 Magnolia Avenue Apt 3"
        once = normalize_street_line(line)
        assert normalize_street_line(once) == once

    def test_zip_plus_four(self):
        assert normalize_zip("70112-1234") == "70112"

    def test_canonical_key_equates_variants(self):
        assert canonical_key("12 Magnolia Avenue", "70112") == canonical_key(
            "12 magnolia ave.", "70112-9999"
        )

    def test_canonical_key_distinguishes_numbers(self):
        assert canonical_key("12 Magnolia Ave", "70112") != canonical_key(
            "14 Magnolia Ave", "70112"
        )


class TestAddressModel:
    def test_line_format(self):
        addr = make_address(unit="Apt 3")
        assert addr.line() == "12 Magnolia Avenue Apt 3, New Orleans, LA 70112"

    def test_without_unit(self):
        addr = make_address(unit="Apt 3")
        assert addr.without_unit().unit is None
        assert addr.without_unit().house_number == addr.house_number

    def test_without_unit_noop_for_single_family(self):
        addr = make_address()
        assert addr.without_unit() is addr

    def test_is_multi_dwelling(self):
        assert make_address(unit="Unit 2").is_multi_dwelling
        assert not make_address().is_multi_dwelling


class TestNoiseConfig:
    def test_noiseless(self):
        config = NoiseConfig.noiseless()
        assert config.p_typo == 0.0 and config.p_variant == 0.0

    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig(p_typo=1.5)

    def test_sum_validated(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig(p_variant=0.6, p_typo=0.5)


class TestNoiseModel:
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(0)

    def test_noiseless_is_clean(self, rng):
        model = NoiseModel(NoiseConfig.noiseless(), rng)
        entry = model.corrupt(make_address())
        assert entry.noise_class == NoiseClass.CLEAN
        assert entry.street_line == "12 Magnolia Avenue"

    def test_variant_still_matches_canonically(self, rng):
        model = NoiseModel(
            NoiseConfig(p_variant=1.0, p_typo=0, p_wrong_number=0,
                        p_wrong_zip=0, p_garbage=0),
            rng,
        )
        address = make_address()
        entry = model.corrupt(address)
        assert entry.noise_class == NoiseClass.VARIANT
        assert canonical_key(entry.street_line, entry.zip_code) == canonical_key(
            address.street_line(), address.zip_code
        )

    def test_typo_breaks_canonical_match(self, rng):
        model = NoiseModel(
            NoiseConfig(p_variant=0.0, p_typo=1.0, p_wrong_number=0,
                        p_wrong_zip=0, p_garbage=0),
            rng,
        )
        address = make_address()
        for _ in range(20):
            entry = model.corrupt(address)
            assert entry.noise_class == NoiseClass.TYPO
            assert canonical_key(entry.street_line, entry.zip_code) != canonical_key(
                address.street_line(), address.zip_code
            )

    def test_missing_unit_strips_unit(self, rng):
        model = NoiseModel(NoiseConfig(p_missing_unit=1.0), rng)
        entry = model.corrupt(make_address(unit="Apt 2"))
        assert entry.noise_class == NoiseClass.MISSING_UNIT
        assert "Apt" not in entry.street_line

    def test_missing_unit_only_for_mdu(self, rng):
        model = NoiseModel(NoiseConfig(p_missing_unit=1.0), rng)
        entry = model.corrupt(make_address(unit=None))
        assert entry.noise_class != NoiseClass.MISSING_UNIT

    def test_wrong_zip_changes_zip_only(self, rng):
        model = NoiseModel(
            NoiseConfig(p_variant=0, p_typo=0, p_wrong_number=0,
                        p_missing_unit=0, p_wrong_zip=1.0, p_garbage=0),
            rng,
        )
        address = make_address()
        entry = model.corrupt(address)
        assert entry.noise_class == NoiseClass.WRONG_ZIP
        assert entry.zip_code != address.zip_code
        assert len(entry.zip_code) == 5
        assert entry.street_line == address.street_line()

    def test_truth_preserved(self, rng):
        model = NoiseModel(NoiseConfig(), rng)
        address = make_address()
        assert model.corrupt(address).truth is address


@pytest.fixture(scope="module")
def book():
    grid = CityGrid(get_city("new-orleans"), 12, seed=3)
    return generate_city_addresses(
        grid, AddressGeneratorConfig(addresses_per_block_group=50), seed=3
    )


class TestGenerator:
    def test_feed_size(self, book):
        assert len(book.feed) == 12 * 50

    def test_canonical_at_least_feed(self, book):
        # MDU units add canonical records beyond the per-building feed.
        assert len(book.canonical) >= len(book.feed)

    def test_canonical_keys_unique(self, book):
        keys = {
            canonical_key(a.street_line(), a.zip_code) for a in book.canonical
        }
        assert len(keys) == len(book.canonical)

    def test_every_block_group_covered(self, book):
        assert len(book.block_groups) == 12

    def test_mdus_present(self, book):
        assert any(a.is_multi_dwelling for a in book.canonical)

    def test_zip_shared_within_group(self, book):
        # block_groups_per_zip=8: first 8 BGs share a ZIP.
        zips0 = {a.zip_code for a in book.canonical_in("new-orleans-bg-0000")}
        zips7 = {a.zip_code for a in book.canonical_in("new-orleans-bg-0007")}
        zips8 = {a.zip_code for a in book.canonical_in("new-orleans-bg-0008")}
        assert zips0 == zips7
        assert zips0 != zips8

    def test_deterministic(self):
        grid = CityGrid(get_city("fargo"), 6, seed=4)
        config = AddressGeneratorConfig(addresses_per_block_group=20)
        a = generate_city_addresses(grid, config, seed=4)
        b = generate_city_addresses(grid, config, seed=4)
        assert [x.street_line for x in a.feed] == [x.street_line for x in b.feed]

    def test_unknown_block_group_raises(self, book):
        with pytest.raises(AddressError):
            book.canonical_in("nope")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AddressGeneratorConfig(addresses_per_block_group=0)
        with pytest.raises(ConfigurationError):
            AddressGeneratorConfig(mdu_fraction=1.5)


class TestAddressIndex:
    @pytest.fixture(scope="class")
    def index(self, book):
        return build_city_index(book)

    def test_exact_lookup(self, book, index):
        address = book.canonical[0]
        assert index.lookup(address.street_line(), address.zip_code) == address

    def test_lookup_with_variant_spelling(self, book, index):
        address = next(a for a in book.canonical if a.street_suffix == "Avenue")
        variant = address.street_line().replace("Avenue", "ave.")
        assert index.lookup(variant, address.zip_code) == address

    def test_lookup_miss(self, index):
        assert index.lookup("999999 Nowhere Blvd", "00000") is None

    def test_units_at_building(self, book, index):
        mdu = next(a for a in book.canonical if a.is_multi_dwelling)
        units = index.units_at(mdu.without_unit().street_line(), mdu.zip_code)
        assert mdu in units
        assert all(u.is_multi_dwelling for u in units)

    def test_candidates_find_typo(self, book, index):
        address = book.canonical[5]
        typo_line = address.street_line().replace(
            address.street_name, address.street_name[:-1]
        )
        candidates = index.candidates(typo_line, address.zip_code, limit=10)
        assert address in candidates

    def test_candidates_ranked_by_relevance(self, book, index):
        address = book.canonical[5]
        typo_line = address.street_line().replace(
            address.street_name, address.street_name[:-1]
        )
        candidates = index.candidates(typo_line, address.zip_code, limit=5)
        assert candidates and candidates[0].street_name == address.street_name

    def test_candidates_limit(self, book, index):
        address = book.canonical[0]
        candidates = index.candidates(
            f"{address.house_number} Zzz", address.zip_code, limit=3
        )
        assert len(candidates) <= 3

    def test_restricted_to(self, book, index):
        sub = index.restricted_to({"new-orleans-bg-0000"})
        assert 0 < len(sub) < len(index)
        outside = next(
            a for a in book.canonical if a.block_group != "new-orleans-bg-0000"
        )
        assert sub.lookup(outside.street_line(), outside.zip_code) is None
