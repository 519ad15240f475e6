"""Stream construction, bit access, shift dynamics, and equivalence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames.bitstream import BitStream, EquivalenceWitness, eventually_equal


# Reference implementations, deliberately independent of the module under
# test: expansion digits by Fraction doubling, periods by brute scan.

def ref_expansion(num: int, den: int, n: int) -> list[int]:
    x = Fraction(num, den)
    out = []
    for _ in range(n):
        x *= 2
        bit = 1 if x >= 1 else 0
        out.append(bit)
        x -= bit
    return out


def ref_minimal_period(word: list[int]) -> list[int]:
    for d in range(1, len(word) + 1):
        if all(word[i] == word[i % d] for i in range(len(word))):
            return word[:d]
    return word


def ref_least_rotation(word: list[int]) -> list[int]:
    return min(word[r:] + word[:r] for r in range(len(word)))


rationals = st.integers(1, 400).flatmap(
    lambda den: st.tuples(st.integers(0, den), st.just(den))
)


class TestConstruction:
    def test_from_rational_matches_reference(self):
        for num, den in [(0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (1, 6),
                         (5, 7), (3, 8), (13, 48), (99, 100)]:
            s = BitStream.from_rational(num, den)
            assert s.bits(40) == ref_expansion(num, den, 40), f"{num}/{den}"

    @given(rationals)
    def test_from_rational_reference_property(self, frac):
        num, den = frac
        assert BitStream.from_rational(num, den).bits(64) == ref_expansion(num, den, 64)

    def test_dyadic_terminating_form(self):
        s = BitStream.from_rational(1, 2)
        assert s.bits(5) == [1, 0, 0, 0, 0]
        assert BitStream.from_rational(3, 4).bits(5) == [1, 1, 0, 0, 0]

    def test_quarter_expansion(self):
        assert BitStream.from_rational(1, 4).bits(4) == [0, 1, 0, 0]

    def test_one_third_period(self):
        s = BitStream.from_rational(1, 3)
        assert s.preperiod == ()
        assert s.period == (0, 1)

    def test_minimal_period_enforced(self):
        s = BitStream.periodic((), (1, 0, 1, 0))
        assert s.period == (1, 0)
        assert s.period == tuple(ref_minimal_period([1, 0, 1, 0]))

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            BitStream.periodic((1,), ())

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError):
            BitStream.periodic((), (0, 2))

    def test_negative_shift_rejected_for_periodic(self):
        with pytest.raises(ValueError):
            BitStream.periodic((), (1,), shift=-1)

    def test_bad_rational_rejected(self):
        with pytest.raises(ValueError):
            BitStream.from_rational(3, 2)
        with pytest.raises(ValueError):
            BitStream.from_rational(1, 0)

    def test_override_validation(self):
        with pytest.raises(ValueError):
            BitStream.generator(1, overrides={0: 1})
        with pytest.raises(ValueError):
            BitStream.generator(1, overrides={3: 2})
        with pytest.raises(ValueError):
            BitStream.generator(1, overrides=[(2, 0), (2, 1)])


class TestBitAccess:
    def test_bit_indexing_one_based(self):
        s = BitStream.periodic((1, 0, 1), (0,))
        assert [s.bit_at(i) for i in (1, 2, 3, 4, 9)] == [1, 0, 1, 0, 0]
        with pytest.raises(ValueError):
            s.bit_at(0)

    def test_overrides_take_precedence(self):
        s = BitStream.periodic((), (0,), overrides={3: 1})
        assert s.bits(5) == [0, 0, 1, 0, 0]

    def test_generator_bits_deterministic_and_fair_looking(self):
        s = BitStream.generator(2024)
        first = s.bits(256)
        assert first == BitStream.generator(2024).bits(256)
        assert 0 < sum(first) < 256

    def test_generator_distinct_seeds_differ(self):
        a = BitStream.generator(1).bits(64)
        b = BitStream.generator(2).bits(64)
        assert a != b

    def test_first_fraction_bit(self):
        assert BitStream.from_rational(3, 4).first_fraction_bit() == 1
        assert BitStream.from_rational(1, 4).first_fraction_bit() == 0


class TestBakerShift:
    def test_quarter_becomes_half(self):
        assert BitStream.from_rational(1, 4).baker_shift().truncated_value(16) == Fraction(1, 2)

    def test_three_quarters_becomes_half(self):
        assert BitStream.from_rational(3, 4).baker_shift().truncated_value(16) == Fraction(1, 2)

    def test_period_two_shift(self):
        s = BitStream.periodic((), (1, 0))
        assert s.baker_shift().bits(6) == [0, 1, 0, 1, 0, 1]

    def test_double_shift_recovers_period(self):
        s = BitStream.periodic((), (1, 0))
        assert s.baker_shift().baker_shift().bits(8) == s.bits(8)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 200))
    def test_shift_law(self, seed, i):
        s = BitStream.generator(seed)
        assert s.baker_shift().bit_at(i) == s.bit_at(i + 1)

    def test_shift_drops_override_at_one(self):
        s = BitStream.generator(5, overrides={1: 1, 4: 0})
        shifted = s.baker_shift()
        assert shifted.overrides == ((3, 0),)
        assert shifted.bit_at(3) == 0

    @given(st.integers(0, 2**64 - 1), st.integers(0, 40), st.integers(1, 50))
    def test_pad_inverts_shift(self, seed, k, i):
        s = BitStream.generator(seed)
        shifted = s
        for _ in range(k):
            shifted = shifted.baker_shift()
        padded = shifted.pad_prefix_zeros(k)
        assert padded.bit_at(k + i) == s.bit_at(k + i)
        assert all(padded.bit_at(j) == 0 for j in range(1, k + 1))

    def test_pad_beyond_shift_periodic(self):
        s = BitStream.periodic((1,), (0, 1), shift=0)
        padded = s.pad_prefix_zeros(3)
        assert padded.shift == 0
        assert padded.bits(3 + 8) == [0, 0, 0] + s.bits(8)

    def test_pad_beyond_shift_generator_goes_negative(self):
        s = BitStream.generator(9)
        padded = s.pad_prefix_zeros(2)
        assert padded.shift == -2
        assert padded.bits(6) == [0, 0] + s.bits(4)
        # The re-based backward extension stays total and reproducible.
        base = BitStream.generator(padded.seed, padded.shift)
        assert base.bits(8) == base.bits(8)

    def test_pad_zero_is_identity(self):
        s = BitStream.generator(9, shift=3)
        assert s.pad_prefix_zeros(0) is s


class TestTailSignature:
    def test_rotated_periods_share_signature(self):
        a = BitStream.periodic((), (1, 0)).baker_shift()
        b = BitStream.periodic((), (0, 1))
        assert a.tail_signature() == b.tail_signature()

    def test_antiphase_periods_differ(self):
        a = BitStream.periodic((), (1, 0))
        b = BitStream.periodic((), (0, 1))
        assert a.tail_signature() != b.tail_signature()

    def test_preperiod_folds_into_signature(self):
        merged = BitStream.periodic((1,), (0, 1))
        plain = BitStream.periodic((), (1, 0))
        assert merged.tail_signature() == plain.tail_signature()

    def test_signature_word_is_least_rotation(self):
        s = BitStream.periodic((), (1, 1, 0))
        word, _ = s.tail_signature()
        assert list(word) == ref_least_rotation([1, 1, 0])

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            BitStream.generator(1).tail_signature()

    @given(
        st.lists(st.integers(0, 1), max_size=6),
        st.lists(st.integers(0, 1), min_size=1, max_size=5),
        st.integers(0, 12),
    )
    def test_signature_invariant_under_shift(self, pre, per, shifts):
        s = BitStream.periodic(pre, per)
        shifted = s
        for _ in range(shifts):
            shifted = shifted.baker_shift()
        sig = s.tail_signature()
        # Shifting advances the phase by one per step within the same word.
        word, phase = shifted.tail_signature()
        assert word == sig[0]
        assert phase == (sig[1] - shifts) % len(word)


class TestSerialization:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 20))
    def test_generator_roundtrip(self, seed, shift):
        s = BitStream.generator(seed, shift, overrides={2: 1, 7: 0})
        assert BitStream.from_json(s.to_json()) == s

    def test_periodic_roundtrip(self):
        s = BitStream.periodic((1, 0), (0, 1, 1), shift=2, overrides={5: 0})
        assert BitStream.from_json(s.to_json()) == s

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BitStream.from_json({"kind": "nope"})

    def test_json_keys(self):
        doc = BitStream.generator(3, overrides={4: 1}).to_json()
        assert doc == {"kind": "generator", "seed": 3, "shift": 0, "overrides": {"4": 1}}


class TestEventualEquality:
    def test_same_generator_equivalent(self):
        a = BitStream.generator(7)
        b = BitStream.generator(7, overrides={1: 0, 2: 1})
        w = eventually_equal(a, b)
        assert w.is_equivalent
        assert w.bound == 2

    def test_distinct_generators_not_equivalent(self):
        w = eventually_equal(BitStream.generator(1), BitStream.generator(2))
        assert w.is_not_equivalent
        a, b = BitStream.generator(1), BitStream.generator(2)
        assert a.bit_at(w.witness) != b.bit_at(w.witness)

    def test_spec_bound_two(self):
        a = BitStream.periodic((1, 1), (0, 1))
        b = BitStream.periodic((), (0, 1))
        w = eventually_equal(a, b)
        assert w.is_equivalent
        assert w.bound == 2
        assert a.bits(20, start=3) == b.bits(20, start=3)

    def test_antiphase_not_equivalent(self):
        w = eventually_equal(
            BitStream.periodic((), (1, 0)), BitStream.periodic((), (0, 1))
        )
        assert w.is_not_equivalent
        assert w.witness == 1

    def test_mixed_kinds_unknown(self):
        w = eventually_equal(BitStream.generator(1), BitStream.periodic((), (1,)))
        assert w.is_unknown
        assert not w.decisive

    def test_reflexive(self):
        for s in (BitStream.generator(11), BitStream.periodic((1,), (0, 1))):
            assert eventually_equal(s, s).is_equivalent

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_symmetric(self, s1, s2):
        a, b = BitStream.generator(s1), BitStream.generator(s2)
        assert eventually_equal(a, b).verdict == eventually_equal(b, a).verdict

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 1), max_size=4),
        st.lists(st.integers(0, 1), min_size=1, max_size=4),
        st.lists(st.integers(0, 1), max_size=4),
        st.lists(st.integers(0, 1), min_size=1, max_size=4),
    )
    def test_verdicts_sound_on_periodic_pairs(self, pre1, per1, pre2, per2):
        a = BitStream.periodic(pre1, per1)
        b = BitStream.periodic(pre2, per2)
        w = eventually_equal(a, b)
        assert w.decisive
        if w.is_equivalent:
            assert a.bits(64, start=w.bound + 1) == b.bits(64, start=w.bound + 1)
        else:
            assert a.bit_at(w.witness) != b.bit_at(w.witness)

    def test_shifted_twin_has_identical_structure(self):
        a = BitStream.generator(3, shift=1)
        b = BitStream.generator(3).baker_shift()
        assert a == b
        assert eventually_equal(a, b).is_equivalent

    def test_witness_constructors(self):
        assert EquivalenceWitness.equivalent(3).bound == 3
        assert EquivalenceWitness.not_equivalent(5).witness == 5
        assert EquivalenceWitness.unknown().is_unknown


class TestTruncatedValue:
    def test_matches_bits(self):
        s = BitStream.from_rational(5, 7)
        assert s.truncated_value(10) == Fraction(
            sum(b << (10 - i) for i, b in enumerate(s.bits(10), start=1)), 1 << 10
        )

    @given(rationals, st.integers(1, 40))
    def test_truncation_error_bound(self, frac, nbits):
        num, den = frac
        s = BitStream.from_rational(num, den)
        x = Fraction(num, den)
        # 1 expands as repeating ones, which truncates to exactly 2^-n low.
        if num != den:
            assert abs(s.truncated_value(nbits) - x) < Fraction(1, 1 << nbits)
