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

# Domain tags keep unrelated derivation chains apart.  Their values enter
# every derived seed, so they never change, gaps included.
DOMAIN_TRIAL = 0x01
DOMAIN_ROOT = 0x02
DOMAIN_PLAYER = 0x04
DOMAIN_SHARED = 0x05
DOMAIN_INVARIANCE = 0x06


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix on 64-bit integers."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def child_seed(seed: int, index: int) -> int:
    """Seed of child `index` of `seed` (index >= 0)."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`mix64` on a uint64 array, overwriting it; returns `z`.

    `scratch` is a uint64 buffer of the same shape that the shifts are
    written to, so the hash allocates nothing.  Array arithmetic wraps
    modulo 2**64 silently, as the mask does in the scalar version.
    """
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Elementwise :func:`mix64` on a uint64 array.

    Returns a new array of at least one dimension: 0-d numpy scalars would
    warn on the wrap.
    """
    z = np.array(z, dtype=np.uint64, ndmin=1)
    return _mix64_inplace(z, np.empty_like(z))


def child_seed_np(seed, index) -> np.ndarray:
    """Elementwise :func:`child_seed` over broadcast seed and index arrays."""
    seed = np.atleast_1d(np.asarray(seed, dtype=np.uint64))
    step = np.atleast_1d(np.asarray(index, dtype=np.uint64)) + np.uint64(1)
    z = seed + step * np.uint64(GOLDEN)
    return _mix64_inplace(z, np.empty_like(z))


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
