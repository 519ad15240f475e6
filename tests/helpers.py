"""Helpers shared by the test modules."""

from fractions import Fraction

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
