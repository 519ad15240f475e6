"""Exact lazy infinite binary sequences.

A stream stands for the binary expansion of a number in [0, 1] (or a row of
hat colors).  Every stream is generator-backed: its bit at any index is a
pure hash of a seed, standing in for a "generic" real.  The family is closed
under the shift dynamics and finite bit edits.  Edits never reach past
``max_override_index``, so two streams on the same (seed, shift) agree
beyond it; ``oracle.class_of`` reads class identity off that pair.

Streams are immutable values; every operation returns a new stream.  Working
with streams rather than floats keeps the doubling dynamics exact: every bit
is read, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .seeding import MASK64, child_seed, child_seed_np

GENERATOR = "generator"


@dataclass(frozen=True)
class BitStream:
    """One infinite bit sequence (1-based indexing).

    ``shift`` re-indexes the base: bit i of the stream is bit i + shift of
    the base sequence hashed from ``seed``.  ``overrides`` then patches
    finitely many positions, and bits 1..``zero_prefix`` read 0 whatever lies
    beneath them.  The shift may be negative (see :meth:`pad_prefix_zeros`);
    base indices <= 0 resolve through a separate derived hash table so every
    bit stays total and deterministic.
    """

    seed: int
    shift: int = 0
    overrides: tuple[tuple[int, int], ...] = ()
    zero_prefix: int = 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def generator(
        cls,
        seed: int,
        shift: int = 0,
        overrides: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "BitStream":
        return cls(
            seed=int(seed) & MASK64,
            shift=int(shift),
            overrides=_validated_overrides(overrides),
        )

    # -- bit access --------------------------------------------------------

    def bit_at(self, i: int) -> int:
        """Bit i (i >= 1) of the stream.  Total and deterministic."""
        if i < 1:
            raise ValueError(f"bit index must be >= 1, got {i}")
        if i <= self.zero_prefix:
            return 0
        for idx, bit in self.overrides:
            if idx == i:
                return bit
            if idx > i:
                break
        return self._base_bit(i + self.shift)

    def _base_bit(self, j: int) -> int:
        # 64 bits per hash word.  Even child indices hold the forward table
        # (j >= 1), odd ones the backward extension (j <= 0).
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

    # -- dynamics ----------------------------------------------------------

    def baker_shift(self) -> "BitStream":
        """Drop the most significant bit: bit i of the result is bit i + 1."""
        return BitStream(
            self.seed,
            self.shift + 1,
            tuple((i - 1, b) for i, b in self.overrides if i >= 2),
            max(self.zero_prefix - 1, 0),
        )

    def pad_prefix_zeros(self, k: int) -> "BitStream":
        """Prepend k zero bits, keeping the base structure identifiable.

        Reverses up to k applications of :meth:`baker_shift`: the result has
        bits 1..k equal to 0 and bit k+i equal to bit i of this stream.  When
        the shift is smaller than k this runs it negative, re-basing onto the
        derived backward extension; the zeros are recorded as the length of
        the zero prefix, which grows by k.
        """
        if k < 0:
            raise ValueError("pad length must be >= 0")
        if k == 0:
            return self
        return BitStream(
            self.seed,
            self.shift - k,
            tuple((i + k, b) for i, b in self.overrides),
            self.zero_prefix + k,
        )

    # -- structure ---------------------------------------------------------

    def max_override_index(self) -> int:
        """Last index patched by an override or by the zero prefix."""
        last = self.overrides[-1][0] if self.overrides else 0
        return max(last, self.zero_prefix)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        doc = {
            "kind": GENERATOR,
            "shift": self.shift,
            "seed": self.seed,
            "overrides": {str(i): b for i, b in self.overrides},
        }
        if self.zero_prefix:
            doc["zero_prefix"] = self.zero_prefix
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "BitStream":
        kind = doc.get("kind")
        if kind != GENERATOR:
            raise ValueError(f"unknown stream kind: {kind!r}")
        zero_prefix = int(doc.get("zero_prefix", 0))
        if zero_prefix < 0:
            raise ValueError(f"zero prefix must be >= 0, got {zero_prefix}")
        overrides = {int(k): int(v) for k, v in doc.get("overrides", {}).items()}
        return cls(
            int(doc["seed"]) & MASK64,
            int(doc.get("shift", 0)),
            _validated_overrides(overrides),
            zero_prefix,
        )


def generator_bits(seeds: np.ndarray, width: int) -> np.ndarray:
    """Bits 1..width of the pristine generator stream of each seed.

    The array twin of ``BitStream.generator(seed).bits(width)``: a uint8
    array of shape [len(seeds), width] whose column i - 1 holds bit i, that
    is bit (i-1) % 64 of hash word 2 * ((i-1) // 64), as in ``_base_bit``.
    The words are unpacked straight from their little-endian bytes, one
    byte per bit.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = child_seed_np(seeds[:, None], 2 * np.arange(-(-width // 64)))
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :width]


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
