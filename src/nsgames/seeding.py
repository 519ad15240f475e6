"""Counter-based splittable seeding.

All randomness in the package is derived by pure integer mixing from a master
seed: no generator objects are shared, every consumer gets a seed computed
from its position in the (experiment, trial, player) hierarchy.  This makes
runs reproducible at any parallelism degree and gives random access to any
bit of any derived stream.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Domain tags keep unrelated derivation chains apart.
DOMAIN_TRIAL = 0x01
DOMAIN_ROOT = 0x02
DOMAIN_OVERRIDE = 0x03
DOMAIN_PLAYER = 0x04
DOMAIN_SHARED = 0x05
DOMAIN_INVARIANCE = 0x06
DOMAIN_NEGATIVE = 0x07
DOMAIN_ADVERSARY = 0x08


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix on 64-bit integers."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def child_seed(seed: int, index: int) -> int:
    """Seed of child `index` of `seed` (index >= 0)."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Elementwise :func:`mix64` on a uint64 array.

    Array arithmetic wraps modulo 2**64 silently, as the mask does in the
    scalar version; 0-d numpy scalars would warn on the wrap, so inputs are
    kept as arrays of at least one dimension.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.uint64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def child_seed_np(seed, index) -> np.ndarray:
    """Elementwise :func:`child_seed` over broadcast seed and index arrays."""
    seed = np.atleast_1d(np.asarray(seed, dtype=np.uint64))
    step = np.atleast_1d(np.asarray(index, dtype=np.uint64)) + np.uint64(1)
    return mix64_np(seed + step * np.uint64(GOLDEN))


def derive(seed: int, *indices: int) -> int:
    """Walk a path of child indices down the seeding tree."""
    for index in indices:
        seed = child_seed(seed, index)
    return seed


class SplitRandom:
    """Minimal counter-based RNG over a derived seed.

    Successive draws are ``mix64(seed + n * GOLDEN)`` for n = 1, 2, ...;
    instances never share state, so creation order across players or trials
    cannot change any draw.
    """

    __slots__ = ("seed", "_n")

    def __init__(self, seed: int) -> None:
        self.seed = seed & MASK64
        self._n = 0

    def next_uint64(self) -> int:
        self._n += 1
        return child_seed(self.seed, self._n - 1)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * (2.0**-53)

    def bernoulli(self, p: float) -> int:
        return 1 if self.random() < p else 0

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) for small n (rejection-free modulo is
        fine here: n is tiny relative to 2**64)."""
        return self.next_uint64() % n
