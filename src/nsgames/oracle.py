"""Choice oracle over eventual-equality classes.

Every stream belongs to a class of streams that agree beyond
some finite index.  ``canonical_representative(class_of(s))`` hands back
one fixed member of s's class, the shared "pre-agreed" selection all
players consult.  The member is derived from the class structure itself,
so the selection needs no stored state and is freely shared across
players, trials and processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitstream import BitStream, eventually_equal


@dataclass(frozen=True)
class ClassHandle:
    """Structural identity of an eventual-equality class: (seed, shift).

    Finite overrides and the zero prefix never enter: they cannot move a
    stream out of its class.
    """

    seed: int
    shift: int


def class_of(stream: BitStream) -> ClassHandle:
    """The class a stream belongs to, read off its structure."""
    return ClassHandle(seed=stream.seed, shift=stream.shift)


def canonical_representative(handle: ClassHandle) -> BitStream:
    """The member singled out by the class structure alone: the pristine
    base stream with no overrides."""
    return BitStream.generator(handle.seed, handle.shift)


def disagreement_bound(member: BitStream, rep: BitStream) -> int:
    """Least t with member and rep agreeing at every index > t.

    Requires the two streams to be provably equivalent; the structural bound
    from that proof is then tightened by scanning backwards for the last
    real disagreement.
    """
    witness = eventually_equal(member, rep)
    if not witness.is_equivalent:
        raise ValueError(
            f"streams are not provably equivalent (verdict: {witness.verdict})"
        )
    for i in range(witness.bound, 0, -1):
        if member.bit_at(i) != rep.bit_at(i):
            return i
    return 0
