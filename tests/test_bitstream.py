"""Stream construction, bit access, shift dynamics, and eventual equality
as ``oracle.class_of`` decides it."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames.bitstream import BitStream, generator_bits
from nsgames.oracle import class_of, disagreement_bound
from nsgames.seeding import MASK64, child_seed

from helpers import truncated_value


def with_prefix(bits, seed=0) -> BitStream:
    """A generator stream whose first len(bits) bits are `bits`."""
    return BitStream.generator(seed, overrides=dict(enumerate(bits, start=1)))


# Small seed and shift ranges, so that pairs often share a class.
edited_streams = st.builds(
    lambda seed, shift, edits, pad: (
        BitStream.generator(seed, shift, edits).pad_prefix_zeros(pad)
    ),
    st.integers(0, 2),
    st.integers(-3, 3),
    st.dictionaries(st.integers(1, 8), st.integers(0, 1), max_size=3),
    st.integers(0, 4),
)


class TestConstruction:
    def test_non_bits_rejected(self):
        doc = {"kind": "generator", "seed": 1, "shift": 0, "overrides": {"3": 2}}
        with pytest.raises(ValueError):
            BitStream.from_json(doc)

    def test_override_validation(self):
        with pytest.raises(ValueError):
            BitStream.generator(1, overrides={0: 1})
        with pytest.raises(ValueError):
            BitStream.generator(1, overrides={3: 2})
        with pytest.raises(ValueError):
            BitStream.generator(1, overrides=[(2, 0), (2, 1)])


class TestBitAccess:
    def test_bit_indexing_one_based(self):
        s = with_prefix([1, 0, 1, 0])
        assert [s.bit_at(i) for i in (1, 2, 3, 4)] == [1, 0, 1, 0]
        # Bit i is bit (i-1) % 64 of forward hash word 2 * ((i-1) // 64).
        word0, word1 = child_seed(0, 0), child_seed(0, 2)
        assert s.bit_at(9) == (word0 >> 8) & 1
        assert s.bit_at(64) == word0 >> 63
        assert s.bit_at(65) == word1 & 1
        with pytest.raises(ValueError):
            s.bit_at(0)

    def test_overrides_take_precedence(self):
        base = BitStream.generator(7)
        s = BitStream.generator(7, overrides={3: 1 - base.bit_at(3)})
        expected = base.bits(5)
        expected[2] ^= 1
        assert s.bits(5) == expected

    def test_generator_bits_deterministic_and_fair_looking(self):
        s = BitStream.generator(2024)
        first = s.bits(256)
        assert first == BitStream.generator(2024).bits(256)
        assert 0 < sum(first) < 256

    @pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 129])
    def test_generator_bits_match_the_stream(self, width):
        seeds = [0, 2**64 - 1]
        bits = generator_bits(np.array(seeds, dtype=np.uint64), width)
        assert bits.dtype == np.uint8 and bits.shape == (2, width)
        assert bits.tolist() == [BitStream.generator(s).bits(width) for s in seeds]

    @pytest.mark.parametrize("width", [64, 1000, 2049])
    def test_generator_bits_peak_memory(self, width):
        # One byte per unpacked bit, a whole number of 64-bit words a row,
        # is under two bytes per returned bit past 32 bits a row; the hash
        # needs its words and one scratch buffer of the same size.
        seeds = np.arange(256, dtype=np.uint64)
        word_bytes = seeds.size * -(-width // 64) * 8
        generator_bits(seeds, width)
        tracemalloc.start()
        try:
            bits = generator_bits(seeds, width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bits.shape == (seeds.size, width)
        assert peak <= 2 * bits.size + 2 * word_bytes

    def test_generator_distinct_seeds_differ(self):
        a = BitStream.generator(1).bits(64)
        b = BitStream.generator(2).bits(64)
        assert a != b

    @given(st.integers(0, 2**64 - 1))
    def test_first_fraction_bit(self, seed):
        # Bit 1 is the most significant expansion bit: floor(2x).
        s = BitStream.generator(seed)
        assert s.bit_at(1) == int(2 * truncated_value(s, 64))


class TestBakerShift:
    def test_quarter_becomes_half(self):
        quarter = with_prefix([0, 1] + [0] * 15)
        assert truncated_value(quarter, 17) == Fraction(1, 4)
        assert truncated_value(quarter.baker_shift(), 16) == Fraction(1, 2)

    def test_three_quarters_becomes_half(self):
        three_quarters = with_prefix([1, 1] + [0] * 15)
        assert truncated_value(three_quarters, 17) == Fraction(3, 4)
        assert truncated_value(three_quarters.baker_shift(), 16) == Fraction(1, 2)

    def test_period_two_shift(self):
        s = with_prefix([1, 0] * 4)
        assert s.baker_shift().bits(6) == [0, 1, 0, 1, 0, 1]

    def test_double_shift_recovers_period(self):
        s = with_prefix([1, 0] * 5)
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

    def test_pad_records_prefix_length_not_pairs(self):
        s = BitStream.generator(9, shift=5, overrides={2: 1})
        padded = s.pad_prefix_zeros(4)
        assert padded.zero_prefix == 4
        assert padded.overrides == ((6, 1),)
        assert padded.max_override_index() == 6
        assert BitStream.generator(9).pad_prefix_zeros(7).max_override_index() == 7

    def test_pad_of_padded_and_shift_of_padded(self):
        s = BitStream.generator(9)
        twice = s.pad_prefix_zeros(2).pad_prefix_zeros(3)
        assert twice.zero_prefix == 5
        assert twice.bits(9) == [0] * 5 + s.bits(4)
        shifted = twice.baker_shift().baker_shift()
        assert shifted.zero_prefix == 3
        assert shifted.bits(7) == twice.bits(9)[2:]
        far = twice
        for _ in range(7):
            far = far.baker_shift()
        assert far.zero_prefix == 0
        assert far.bits(4) == s.bits(6)[2:]

class TestSerialization:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 20))
    def test_generator_roundtrip(self, seed, shift):
        s = BitStream.generator(seed, shift, overrides={2: 1, 7: 0})
        assert BitStream.from_json(s.to_json()) == s

    @pytest.mark.parametrize("seed", [2**64 + 5, -1])
    def test_from_json_reads_a_seed_as_generator_does(self, seed):
        doc = {"kind": "generator", "seed": seed, "shift": 3, "overrides": {"2": 1}}
        stream = BitStream.from_json(doc)
        assert stream == BitStream.generator(seed, 3, {2: 1})
        assert 0 <= stream.seed <= MASK64

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BitStream.from_json({"kind": "nope"})
        with pytest.raises(ValueError):
            BitStream.from_json({"kind": "periodic", "shift": 0, "period": [1]})

    def test_json_keys(self):
        doc = BitStream.generator(3, overrides={4: 1}).to_json()
        assert doc == {"kind": "generator", "seed": 3, "shift": 0, "overrides": {"4": 1}}

    def test_zero_prefix_serialized_only_when_nonzero(self):
        padded = BitStream.generator(3, shift=5).pad_prefix_zeros(2)
        doc = padded.to_json()
        assert doc == {
            "kind": "generator", "seed": 3, "shift": 3, "overrides": {}, "zero_prefix": 2,
        }
        assert BitStream.from_json(doc) == padded
        assert "zero_prefix" not in padded.baker_shift().baker_shift().to_json()
        with pytest.raises(ValueError):
            BitStream.from_json(dict(doc, zero_prefix=-1))


class TestEventualEquality:
    def test_same_generator_equivalent(self):
        a = BitStream.generator(7)
        b = BitStream.generator(7, overrides={1: 0, 2: 1})
        assert class_of(a) == class_of(b)
        assert b.max_override_index() == 2
        assert a.bits(64, start=3) == b.bits(64, start=3)

    def test_distinct_generators_not_equivalent(self):
        a, b = BitStream.generator(1), BitStream.generator(2)
        assert class_of(a) != class_of(b)
        assert a.bits(64) != b.bits(64)
        with pytest.raises(ValueError):
            disagreement_bound(a, b)

    def test_spec_bound_two(self):
        # A zero prefix of length 2 over the same base: bound 2.
        a = BitStream.generator(5).pad_prefix_zeros(2)
        b = BitStream.generator(5, shift=-2)
        assert class_of(a) == class_of(b)
        assert a.max_override_index() == 2
        assert a.bits(20, start=3) == b.bits(20, start=3)
        assert disagreement_bound(a, b) == max((i for i in (1, 2) if b.bit_at(i)), default=0)

    @settings(max_examples=40)
    @given(edited_streams, edited_streams)
    def test_verdicts_sound_on_generator_pairs(self, a, b):
        # Same class: the bits agree beyond the disagreement bound, and the
        # bound itself is a real disagreement.  Different classes: some bit
        # among the first 256 differs, and no bound is given.
        if class_of(a) == class_of(b):
            t = disagreement_bound(a, b)
            assert a.bits(64, start=t + 1) == b.bits(64, start=t + 1)
            assert t == 0 or a.bit_at(t) != b.bit_at(t)
        else:
            assert a.bits(256) != b.bits(256)
            with pytest.raises(ValueError):
                disagreement_bound(a, b)

    def test_antiphase_not_equivalent(self):
        # One base read one step out of phase is a different class.
        a, b = BitStream.generator(5), BitStream.generator(5, shift=1)
        assert class_of(a) != class_of(b)
        assert a.bits(64) != b.bits(64)
        with pytest.raises(ValueError):
            disagreement_bound(a, b)

    def test_shifted_twin_has_identical_structure(self):
        a = BitStream.generator(3, shift=1)
        b = BitStream.generator(3).baker_shift()
        assert a == b
        assert class_of(a) == class_of(b)


class TestTruncatedValue:
    def test_matches_bits(self):
        s = BitStream.generator(57)
        assert truncated_value(s, 10) == Fraction(
            sum(b << (10 - i) for i, b in enumerate(s.bits(10), start=1)), 1 << 10
        )

    @given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(1, 40))
    def test_truncation_error_bound(self, seed, nbits, more):
        # Every longer truncation lies in [t, t + 2^-n), so the value does too.
        s = BitStream.generator(seed)
        gap = truncated_value(s, nbits + more) - truncated_value(s, nbits)
        assert 0 <= gap < Fraction(1, 1 << nbits)
