"""Exact lazy infinite binary sequences.

A stream stands for the binary expansion of a number in [0, 1] (or a row of
hat colors).  Only two families are representable, each closed under the
shift dynamics and finite bit edits:

* eventually periodic streams (all rationals), and
* generator-backed streams, whose bit at any index is a pure hash of a seed,
  standing in for a "generic" real.

Streams are immutable values; every operation returns a new stream.  Working
with streams rather than floats keeps the doubling dynamics exact: 1/2 is the
single stream (1, 0, 0, ...), so there is no boundary ambiguity to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .seeding import MASK64, child_seed

PERIODIC = "periodic"
GENERATOR = "generator"

# Scanning caps for searches that are guaranteed to terminate quickly for
# honest generators but would loop forever on a degenerate bit function.
_WITNESS_SCAN_CAP = 1 << 16


class DegenerateStreamError(RuntimeError):
    """Two structurally distinct generator streams agreed for far longer
    than any honest hash allows."""


@dataclass(frozen=True)
class BitStream:
    """One representable infinite bit sequence (1-based indexing).

    ``shift`` re-indexes the base: bit i of the stream is bit i + shift of
    the base sequence.  ``overrides`` then patches finitely many positions.
    For generator streams the shift may be negative (see
    :meth:`pad_prefix_zeros`); base indices <= 0 resolve through a separate
    derived hash table so every bit stays total and deterministic.
    """

    kind: str
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = ()
    seed: int = 0
    shift: int = 0
    overrides: tuple[tuple[int, int], ...] = ()

    # -- constructors -----------------------------------------------------

    @classmethod
    def periodic(
        cls,
        preperiod: Iterable[int],
        period: Iterable[int],
        shift: int = 0,
        overrides: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "BitStream":
        pre = _validated_bits(preperiod, "preperiod")
        per = _validated_bits(period, "period")
        if not per:
            raise ValueError("period must be nonempty")
        if shift < 0:
            raise ValueError("periodic streams require shift >= 0")
        return cls(
            kind=PERIODIC,
            preperiod=pre,
            period=_minimal_period(per),
            shift=shift,
            overrides=_validated_overrides(overrides),
        )

    @classmethod
    def generator(
        cls,
        seed: int,
        shift: int = 0,
        overrides: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "BitStream":
        return cls(
            kind=GENERATOR,
            seed=int(seed) & MASK64,
            shift=int(shift),
            overrides=_validated_overrides(overrides),
        )

    @classmethod
    def from_rational(cls, num: int, den: int) -> "BitStream":
        """Binary expansion of num/den in [0, 1] by long division.

        Dyadic rationals come out in the terminating form (0.1 followed by
        repeating 0), never the 0.0111... twin.
        """
        if den <= 0 or num < 0 or num > den:
            raise ValueError(f"need 0 <= num <= den, got {num}/{den}")
        seen: dict[int, int] = {}
        digits: list[int] = []
        r = num
        while r not in seen:
            seen[r] = len(digits)
            r *= 2
            bit = 1 if r >= den else 0
            digits.append(bit)
            r -= bit * den
        start = seen[r]
        return cls.periodic(digits[:start], digits[start:])

    # -- bit access --------------------------------------------------------

    def bit_at(self, i: int) -> int:
        """Bit i (i >= 1) of the stream.  Total and deterministic."""
        if i < 1:
            raise ValueError(f"bit index must be >= 1, got {i}")
        for idx, bit in self.overrides:
            if idx == i:
                return bit
            if idx > i:
                break
        return self._base_bit(i + self.shift)

    def _base_bit(self, j: int) -> int:
        if self.kind == PERIODIC:
            pre = self.preperiod
            if j <= len(pre):
                return pre[j - 1]
            return self.period[(j - len(pre) - 1) % len(self.period)]
        # Generator: 64 bits per hash word.  Even child indices hold the
        # forward table (j >= 1), odd ones the backward extension (j <= 0).
        if j >= 1:
            q, r = divmod(j - 1, 64)
            word = child_seed(self.seed, q << 1)
        else:
            q, r = divmod(-j, 64)
            word = child_seed(self.seed, (q << 1) | 1)
        return (word >> r) & 1

    def bits(self, n: int, start: int = 1) -> list[int]:
        """The n bits starting at index `start`, as a list."""
        return [self.bit_at(i) for i in range(start, start + n)]

    def first_fraction_bit(self) -> int:
        """Most significant expansion bit: floor(2x) for the value x in [0, 1)."""
        return self.bit_at(1)

    # -- dynamics ----------------------------------------------------------

    def baker_shift(self) -> "BitStream":
        """Drop the most significant bit: bit i of the result is bit i + 1."""
        remapped = tuple((i - 1, b) for i, b in self.overrides if i >= 2)
        return replace(self, shift=self.shift + 1, overrides=remapped)

    def pad_prefix_zeros(self, k: int) -> "BitStream":
        """Prepend k zero bits, keeping the base structure identifiable.

        Reverses up to k applications of :meth:`baker_shift`: the result has
        bits 1..k equal to 0 and bit k+i equal to bit i of this stream.  For
        generator streams whose shift is smaller than k this runs the shift
        negative, re-basing onto the derived backward extension; the zeros
        stay recorded as overrides either way.
        """
        if k < 0:
            raise ValueError("pad length must be >= 0")
        if k == 0:
            return self
        zeros = tuple((i, 0) for i in range(1, k + 1))
        remapped = tuple((i + k, b) for i, b in self.overrides)
        if self.kind == GENERATOR or k <= self.shift:
            return replace(self, shift=self.shift - k, overrides=zeros + remapped)
        # Periodic stream with shift < k: fold the excess into the preperiod.
        pre, per = _tail_from(self.preperiod, self.period, self.shift)
        return BitStream(
            kind=PERIODIC,
            preperiod=(0,) * k + pre,
            period=per,
            shift=0,
            overrides=remapped,
        )

    # -- structure ---------------------------------------------------------

    def max_override_index(self) -> int:
        return self.overrides[-1][0] if self.overrides else 0

    def tail_signature(self) -> tuple[tuple[int, ...], int]:
        """(canonical period word, phase) of the eventual periodic tail.

        Two eventually periodic streams share a signature exactly when their
        tails coincide index-by-index beyond some point.  Only defined for
        periodic streams.
        """
        if self.kind != PERIODIC:
            raise ValueError("tail_signature requires a periodic stream")
        word = self.period
        p = len(word)
        # Beyond the preperiod, bit i equals word[(i - phase) % p].
        phase = (len(self.preperiod) - self.shift + 1) % p
        rot = _least_rotation(word)
        canonical = word[rot:] + word[:rot]
        return canonical, (phase + rot) % p

    def tail_start(self) -> int:
        """Last stream index still governed by preperiod or overrides."""
        if self.kind == PERIODIC:
            structural = len(self.preperiod) - self.shift
        else:
            structural = 0
        return max(structural, self.max_override_index(), 0)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind, "shift": self.shift}
        if self.kind == PERIODIC:
            doc["preperiod"] = list(self.preperiod)
            doc["period"] = list(self.period)
        else:
            doc["seed"] = self.seed
        doc["overrides"] = {str(i): b for i, b in self.overrides}
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "BitStream":
        kind = doc.get("kind")
        overrides = {int(k): int(v) for k, v in doc.get("overrides", {}).items()}
        shift = int(doc.get("shift", 0))
        if kind == PERIODIC:
            return cls.periodic(
                doc.get("preperiod", []), doc["period"], shift, overrides
            )
        if kind == GENERATOR:
            return cls.generator(doc["seed"], shift, overrides)
        raise ValueError(f"unknown stream kind: {kind!r}")

    # -- numeric helpers ---------------------------------------------------

    def truncated_value(self, nbits: int) -> Fraction:
        """The dyadic rational formed by the first nbits expansion bits."""
        acc = 0
        for i in range(1, nbits + 1):
            acc = (acc << 1) | self.bit_at(i)
        return Fraction(acc, 1 << nbits)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Outcome of the eventual-equality test.

    ``equivalent`` carries a bound t with agreement at every index > t;
    ``not_equivalent`` carries one index where the streams disagree (one of
    the infinitely many that exist); ``unknown`` is a legal verdict for
    pairs the structural test cannot decide, and must be propagated.
    """

    verdict: str
    bound: int | None = None
    witness: int | None = None

    @classmethod
    def equivalent(cls, bound: int) -> "EquivalenceWitness":
        return cls("equivalent", bound=bound)

    @classmethod
    def not_equivalent(cls, witness: int) -> "EquivalenceWitness":
        return cls("not_equivalent", witness=witness)

    @classmethod
    def unknown(cls) -> "EquivalenceWitness":
        return cls("unknown")

    @property
    def is_equivalent(self) -> bool:
        return self.verdict == "equivalent"

    @property
    def is_not_equivalent(self) -> bool:
        return self.verdict == "not_equivalent"

    @property
    def is_unknown(self) -> bool:
        return self.verdict == "unknown"

    @property
    def decisive(self) -> bool:
        return self.verdict != "unknown"


def eventually_equal(s1: BitStream, s2: BitStream) -> EquivalenceWitness:
    """Decide structurally whether two streams agree beyond some finite index.

    Generator streams are compared by identity (seed and shift): equal
    structure gives agreement beyond the overridden prefix, different
    structure yields a scanned disagreement witness.  Periodic streams are
    compared by their tail signatures.  A generator/periodic pair cannot be
    decided by any finite inspection and returns `unknown`.
    """
    if s1.kind != s2.kind:
        return EquivalenceWitness.unknown()
    if s1.kind == GENERATOR:
        if s1.seed == s2.seed and s1.shift == s2.shift:
            bound = max(s1.max_override_index(), s2.max_override_index())
            return EquivalenceWitness.equivalent(bound)
        return EquivalenceWitness.not_equivalent(
            _scan_disagreement(s1, s2, _WITNESS_SCAN_CAP)
        )
    if s1.tail_signature() == s2.tail_signature():
        return EquivalenceWitness.equivalent(max(s1.tail_start(), s2.tail_start()))
    # Distinct periodic tails must disagree within one common period of the
    # point where both streams have become purely periodic.
    window = max(s1.tail_start(), s2.tail_start()) + math.lcm(
        len(s1.period), len(s2.period)
    )
    return EquivalenceWitness.not_equivalent(_scan_disagreement(s1, s2, window + 1))


def _scan_disagreement(s1: BitStream, s2: BitStream, cap: int) -> int:
    for i in range(1, cap + 1):
        if s1.bit_at(i) != s2.bit_at(i):
            return i
    raise DegenerateStreamError(
        f"structurally distinct streams agree on bits 1..{cap}"
    )


def _validated_bits(bits: Iterable[int], what: str) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"{what} must contain only bits, got {out}")
    return out


def _validated_overrides(
    overrides: Mapping[int, int] | Iterable[tuple[int, int]],
) -> tuple[tuple[int, int], ...]:
    items = overrides.items() if isinstance(overrides, Mapping) else overrides
    out = tuple(sorted((int(i), int(b)) for i, b in items))
    for idx, bit in out:
        if idx < 1:
            raise ValueError(f"override index must be >= 1, got {idx}")
        if bit not in (0, 1):
            raise ValueError(f"override value must be a bit, got {bit}")
    if len({i for i, _ in out}) != len(out):
        raise ValueError("duplicate override index")
    return out


def _minimal_period(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _least_rotation(word: tuple[int, ...]) -> int:
    # Periods are short here; direct comparison beats Booth's algorithm in
    # clarity.  Minimality of the word makes the least rotation unique.
    doubled = word + word
    best = 0
    for r in range(1, len(word)):
        if doubled[r : r + len(word)] < doubled[best : best + len(word)]:
            best = r
    return best


def _tail_from(
    preperiod: tuple[int, ...], period: tuple[int, ...], offset: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) of the sequence starting `offset` bits in."""
    if offset <= len(preperiod):
        return preperiod[offset:], period
    adv = (offset - len(preperiod)) % len(period)
    return (), period[adv:] + period[:adv]
