import signal
from contextlib import contextmanager

from hypothesis import strategies as st

from fockspace.partitions import Partition, partitions_up_to

ALL_SMALL = partitions_up_to(8)


def partition_strategy(max_size: int = 8):
    return st.sampled_from([p for p in ALL_SMALL if p.size <= max_size])


@st.composite
def partitions_of_size(draw, size: int) -> Partition:
    """A partition of exactly ``size``, drawn one weakly decreasing row at a time."""
    parts: list[int] = []
    remaining = size
    while remaining:
        part = draw(st.integers(1, min(remaining, parts[-1] if parts else remaining)))
        parts.append(part)
        remaining -= part
    return Partition(parts)


def large_partition_strategy(max_size: int = 500):
    """Partitions of any size up to ``max_size``, far past the exhaustive sweeps."""
    return st.integers(0, max_size).flatmap(partitions_of_size)


@contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` in the block after ``seconds``, so a hang fails instead."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
