"""Class handles, canonical representatives, and the disagreement bound."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames.bitstream import BitStream
from nsgames.oracle import canonical_representative, class_of, disagreement_bound

# Small seed and shift ranges, so that pairs drawn from them often share a
# class; edits and zero padding vary the member within its class.
streams = st.builds(
    lambda seed, shift, edits, pad: (
        BitStream.generator(seed, shift, edits).pad_prefix_zeros(pad)
    ),
    st.integers(0, 2),
    st.integers(-3, 3),
    st.dictionaries(st.integers(1, 8), st.integers(0, 1), max_size=3),
    st.integers(0, 4),
)


class TestClassOf:
    def test_generator_handle(self):
        h = class_of(BitStream.generator(42, shift=3))
        assert (h.seed, h.shift) == (42, 3)

    def test_overrides_do_not_change_class(self):
        plain = BitStream.generator(42)
        edited = BitStream.generator(42, overrides={1: 0, 17: 1})
        assert class_of(plain) == class_of(edited)

    def test_antiphase_classes_differ(self):
        assert class_of(BitStream.generator(42)) != class_of(
            BitStream.generator(42, shift=1)
        )

    @given(streams, streams)
    def test_handle_equality_tracks_eventual_equality(self, a, b):
        # Equal handles: the bits agree beyond the larger max_override_index.
        # Different handles: some bit among the first 256 differs.  b's edits
        # moved onto a's class give an equal-handle pair on every draw.
        for other in (b, replace(b, seed=a.seed, shift=a.shift)):
            if class_of(a) == class_of(other):
                t = max(a.max_override_index(), other.max_override_index())
                assert a.bits(64, start=t + 1) == other.bits(64, start=t + 1)
            else:
                assert a.bits(256) != other.bits(256)

    @given(streams, st.integers(0, 10))
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

    @given(streams)
    def test_membership(self, s):
        rep = canonical_representative(class_of(s))
        t = s.max_override_index()
        assert disagreement_bound(s, rep) <= t
        assert s.bits(64, start=t + 1) == rep.bits(64, start=t + 1)

    @given(streams)
    def test_idempotent_on_representative(self, s):
        h = class_of(s)
        rep = canonical_representative(h)
        assert class_of(rep) == h
        assert canonical_representative(class_of(rep)) == rep

    @given(st.integers(0, 2**64 - 1), st.integers(0, 8))
    def test_generator_membership(self, seed, shift):
        s = BitStream.generator(seed, shift, overrides={3: 1})
        rep = canonical_representative(class_of(s))
        assert disagreement_bound(s, rep) == (3 if rep.bit_at(3) == 0 else 0)
        assert s.bits(64, start=4) == rep.bits(64, start=4)

    def test_lookup_is_pure(self):
        member = BitStream.generator(9, overrides={2: 1})
        first = canonical_representative(class_of(member))
        assert first == canonical_representative(class_of(member))
        assert first == BitStream.generator(9)

    def test_overridden_member_is_in_class(self):
        member = BitStream.generator(1, overrides={1: 1})
        rep = canonical_representative(class_of(member))
        assert disagreement_bound(member, rep) == 1 - rep.bit_at(1)
        assert member.bits(64, start=2) == rep.bits(64, start=2)


class TestDisagreementBound:
    def test_zero_for_exact_agreement(self):
        member = BitStream.generator(3, shift=4)
        rep = canonical_representative(class_of(member))
        assert disagreement_bound(member, rep) == 0

    def test_tightens_below_structural_bound(self):
        # Structural bound is 2, but bit 2 happens to agree with the
        # representative, so the last real disagreement is bit 1.
        base = BitStream.generator(3)
        member = BitStream.generator(
            3, overrides={1: 1 - base.bit_at(1), 2: base.bit_at(2)}
        )
        rep = canonical_representative(class_of(member))
        assert member.max_override_index() == 2
        assert disagreement_bound(member, rep) == 1

    def test_structural_example(self):
        # The FNS padding: zeros over bits 1..4 of the base disagree with the
        # representative exactly where the base holds a 1.
        base = BitStream.generator(3)
        member = base
        for _ in range(4):
            member = member.baker_shift()
        member = member.pad_prefix_zeros(4)
        rep = canonical_representative(class_of(member))
        assert rep == base
        ones = [i for i in range(1, 5) if base.bit_at(i)]
        assert disagreement_bound(member, rep) == max(ones, default=0)

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

    def test_rejects_inequivalent_pair(self, monkeypatch):
        # Class identity is read off the handles; no bit is scanned first.
        def refuse(self, i):
            raise AssertionError("bit read while deciding the class")

        monkeypatch.setattr(BitStream, "bit_at", refuse)
        for a, b in ((BitStream.generator(1), BitStream.generator(2)),
                     (BitStream.generator(5), BitStream.generator(5, shift=1))):
            with pytest.raises(ValueError):
                disagreement_bound(a, b)

    @settings(max_examples=50)
    @given(streams)
    def test_bound_is_sharp(self, s):
        rep = canonical_representative(class_of(s))
        t = disagreement_bound(s, rep)
        assert s.bits(48, start=t + 1) == rep.bits(48, start=t + 1)
        if t > 0:
            assert s.bit_at(t) != rep.bit_at(t)
