"""Helpers shared by the test modules."""

from fractions import Fraction
from itertools import zip_longest

import nsgames.experiment as experiment
from nsgames.bitstream import BitStream


def truncated_value(stream: BitStream, nbits: int) -> Fraction:
    """The dyadic rational formed by the stream's first nbits expansion
    bits: an exact oracle for the value a stream stands for."""
    acc = 0
    for i in range(1, nbits + 1):
        acc = (acc << 1) | stream.bit_at(i)
    return Fraction(acc, 1 << nbits)


def record_chunks(monkeypatch) -> list[tuple[int, int]]:
    """The (start, stop) trials of each chunk that ``run_experiment`` plays
    from now on, in the order it plays them."""
    chunks = []
    run_chunk = experiment._run_chunk

    def recording(cfg, start, stop):
        chunks.append((start, stop))
        return run_chunk(cfg, start, stop)

    monkeypatch.setattr(experiment, "_run_chunk", recording)
    return chunks


def _clip(line: str, width: int = 160) -> str:
    return repr(line if len(line) <= width else line[:width] + "...")


def assert_same_text(got: str, expected: str) -> None:
    """Fails unless the two texts are equal, naming the first line where
    they differ: its index and both lines, truncated.

    The texts are compared outside an ``assert`` statement, so a mismatch
    of long logs fails at once instead of through pytest's diff of them.
    """
    if got == expected:
        return
    pairs = zip_longest(got.splitlines(True), expected.splitlines(True), fillvalue="")
    index, (line, want) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
    raise AssertionError(
        f"texts differ first at line index {index}:\n"
        f"  got:      {_clip(line)}\n"
        f"  expected: {_clip(want)}"
    )
