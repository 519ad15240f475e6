"""Choice oracle over eventual-equality classes.

Every stream belongs to a class of streams that agree beyond
some finite index.  ``class_of`` is the one test of that relation: two
streams share a class exactly when they share (seed, shift), and then
agree beyond the larger ``max_override_index``.
``canonical_representative(class_of(s))`` hands back one fixed member of
s's class, the shared "pre-agreed" selection all players consult.  The
member is derived from the class structure itself, so the selection needs
no stored state and is freely shared across players, trials and processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitstream import BitStream


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

    Requires the two streams to share a class; the structural bound, the
    larger ``max_override_index``, is then tightened by scanning backwards
    for the last real disagreement.
    """
    if class_of(member) != class_of(rep):
        raise ValueError("streams lie in different eventual-equality classes")
    bound = max(member.max_override_index(), rep.max_override_index())
    for i in range(bound, 0, -1):
        if member.bit_at(i) != rep.bit_at(i):
            return i
    return 0
