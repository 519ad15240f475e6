"""Class handles, representatives, and the choice oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames.bitstream import BitStream, eventually_equal
from nsgames.oracle import (
    ChoiceOracle,
    canonical_representative,
    class_of,
    disagreement_bound,
)

periodic_streams = st.builds(
    BitStream.periodic,
    st.lists(st.integers(0, 1), max_size=5),
    st.lists(st.integers(0, 1), min_size=1, max_size=5),
)


class TestClassOf:
    def test_generator_handle(self):
        h = class_of(BitStream.generator(42, shift=3))
        assert (h.kind, h.seed, h.shift) == ("generator", 42, 3)

    def test_overrides_do_not_change_class(self):
        plain = BitStream.generator(42)
        edited = BitStream.generator(42, overrides={1: 0, 17: 1})
        assert class_of(plain) == class_of(edited)

    def test_periodic_merges_equivalent_forms(self):
        assert class_of(BitStream.periodic((1,), (0, 1))) == class_of(
            BitStream.periodic((), (1, 0))
        )

    def test_antiphase_classes_differ(self):
        assert class_of(BitStream.periodic((), (1, 0))) != class_of(
            BitStream.periodic((), (0, 1))
        )

    @given(periodic_streams, periodic_streams)
    def test_handle_equality_tracks_eventual_equality(self, a, b):
        same = class_of(a) == class_of(b)
        assert same == eventually_equal(a, b).is_equivalent

    @given(periodic_streams, st.integers(0, 10))
    def test_class_constant_along_padded_orbit(self, s, k):
        shifted = s
        for _ in range(k):
            shifted = shifted.baker_shift()
        assert class_of(shifted.pad_prefix_zeros(k)) == class_of(s)


class TestCanonicalRepresentative:
    def test_generator_representative_is_pristine(self):
        member = BitStream.generator(42, overrides={1: 1, 2: 0})
        rep = canonical_representative(class_of(member))
        assert rep == BitStream.generator(42)

    def test_periodic_representative_has_no_preperiod(self):
        rep = canonical_representative(class_of(BitStream.periodic((1,), (0, 1))))
        assert rep.preperiod == ()
        assert rep.bits(6) == [1, 0, 1, 0, 1, 0]

    @given(periodic_streams)
    def test_membership(self, s):
        rep = canonical_representative(class_of(s))
        assert eventually_equal(s, rep).is_equivalent

    @given(periodic_streams)
    def test_idempotent_on_representative(self, s):
        h = class_of(s)
        rep = canonical_representative(h)
        assert class_of(rep) == h
        assert canonical_representative(class_of(rep)) == rep

    @given(st.integers(0, 2**64 - 1), st.integers(0, 8))
    def test_generator_membership(self, seed, shift):
        s = BitStream.generator(seed, shift, overrides={3: 1})
        rep = canonical_representative(class_of(s))
        assert eventually_equal(s, rep).is_equivalent


class TestChoiceOracle:
    def test_canonical_mode_is_pure(self):
        oracle = ChoiceOracle()
        member = BitStream.generator(9, overrides={2: 1})
        assert oracle.representative(member) == oracle.representative(member)
        assert oracle.representative(member) == BitStream.generator(9)

    def test_memoized_representative_is_member_of_class(self):
        oracle = ChoiceOracle()
        member = BitStream.generator(1, overrides={1: 1})
        rep = oracle.representative(member)
        assert eventually_equal(member, rep).is_equivalent

    def test_unknown_mode_rejected(self):
        # The oracle has a single, canonical selection and takes no mode.
        with pytest.raises(TypeError):
            ChoiceOracle(mode="psychic")


class TestDisagreementBound:
    def test_zero_for_exact_agreement(self):
        member = BitStream.periodic((1,), (0, 1))
        rep = canonical_representative(class_of(member))
        assert disagreement_bound(member, rep) == 0

    def test_tightens_below_structural_bound(self):
        # Structural bound is 2, but bit 2 happens to agree with the
        # representative, so the last real disagreement is bit 1.
        member = BitStream.periodic((1, 1), (0, 1))
        rep = canonical_representative(class_of(member))
        assert eventually_equal(member, rep).bound == 2
        assert disagreement_bound(member, rep) == 1

    def test_structural_example(self):
        member = BitStream.periodic((1, 0), (0, 1))
        rep = canonical_representative(class_of(member))
        assert rep.bits(4) == [0, 1, 0, 1]
        assert disagreement_bound(member, rep) == 2

    def test_tightens_structural_bound(self):
        # Override that happens to agree with the base bit adds nothing.
        base = BitStream.generator(3)
        member = BitStream.generator(3, overrides={5: base.bit_at(5)})
        rep = canonical_representative(class_of(member))
        assert disagreement_bound(member, rep) == 0

    def test_flip_shows_up(self):
        base = BitStream.generator(3)
        member = BitStream.generator(3, overrides={5: 1 - base.bit_at(5)})
        rep = canonical_representative(class_of(member))
        assert disagreement_bound(member, rep) == 5

    def test_rejects_inequivalent_pair(self):
        with pytest.raises(ValueError):
            disagreement_bound(BitStream.generator(1), BitStream.generator(2))

    @settings(max_examples=50)
    @given(periodic_streams)
    def test_bound_is_sharp(self, s):
        rep = canonical_representative(class_of(s))
        t = disagreement_bound(s, rep)
        assert s.bits(48, start=t + 1) == rep.bits(48, start=t + 1)
        if t > 0:
            assert s.bit_at(t) != rep.bit_at(t)
