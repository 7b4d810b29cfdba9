"""Seeded request lists for the benchmark's workloads.

Every request is the argv of one ``fockspace`` CLI call.  The program under
test sees only these argv lists, never the seed.  The seed draws the core
partitions and the Hecke products, and orders every list.
"""

from __future__ import annotations

import random
from functools import lru_cache

MODULI = (2, 3, 5)
VERIFY_SUITES = ("blocks", "casimir", "characters", "crystal", "hecke", "kacmoody", "serre")


@lru_cache(maxsize=None)
def count_partitions(n: int, k: int) -> int:
    """p(n, k): the number of partitions of n with every part at most k."""
    if n == 0:
        return 1
    if n < 0 or k == 0:
        return 0
    return count_partitions(n, k - 1) + count_partitions(n - k, k)


def unrank_partition(n: int, rank: int) -> tuple[int, ...]:
    """The partition of n at ``rank`` in descending lexicographic order.

    Rank 0 is ``(n,)`` and rank p(n) - 1 is ``(1,) * n``; every rank in
    ``range(p(n))`` maps to a distinct partition.
    """
    if not 0 <= rank < count_partitions(n, n):
        raise ValueError(f"rank {rank} out of range for partitions of {n}")
    parts: list[int] = []
    cap = n
    while n:
        # partitions of n whose largest part is exactly j number p(n - j, j)
        for j in range(min(n, cap), 0, -1):
            block = count_partitions(n - j, j)
            if rank < block:
                parts.append(j)
                n -= j
                cap = j
                break
            rank -= block
    return tuple(parts)


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A partition drawn uniformly from all partitions of n."""
    return unrank_partition(n, rng.randrange(count_partitions(n, n)))


def partition_text(parts: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x) for x in parts) + "]"


def hecke_expression(rng: random.Random, rank: int, factors: int) -> str:
    """A product of ``factors`` binomials ``(t_i+y_j)`` at the given rank."""
    return "*".join(
        f"(t{rng.randint(1, rank - 1)}+y{rng.randint(1, rank)})" for _ in range(factors)
    )


def cores_blocks(rng: random.Random) -> list[list[str]]:
    # The twelve blocks requests outrank every core request (sizes <= 40),
    # so the tail percentile, with ten requests beyond it, lands on a fixed
    # blocks request instead of on whichever random shape came out slowest.
    # Four uniform draws per (size, modulus) cell keep the median steady
    # from seed to seed.
    requests = [
        ["blocks", "--modulus", str(e), "--degree", str(d)]
        for d in (16, 17, 18, 19)
        for e in MODULI
    ]
    for n in range(20, 41):
        for e in MODULI:
            for _ in range(4):
                parts = random_partition(rng, n)
                requests.append(["core", "--modulus", str(e), "--partition", partition_text(parts)])
    return requests


def verify_sweep(rng: random.Random) -> list[list[str]]:
    return [
        ["verify", "--suite", suite, "--modulus", str(e), "--max-size", "8"]
        for suite in VERIFY_SUITES
        for e in (0, 2, 3, 5)
    ]


def graph_export(rng: random.Random) -> list[list[str]]:
    requests = [
        ["crystal", "--modulus", str(e), "--max-size", str(d), "--format", fmt]
        for e, d in ((2, 22), (3, 22), (5, 22), (0, 18))
        for fmt in ("json", "dot")
    ]
    # e_i out of degree 23 is the transpose of f_i out of degree 22, which
    # the oracle checks.
    for op, degree in (("e", 23), ("f", 22), ("h", 22)):
        for i in range(3):
            for fmt in ("json", "csv"):
                requests.append(
                    ["fock", "op-matrix", "--op", op, "--residue", str(i), "--modulus", "3",
                     "--degree", str(degree), "--format", fmt]
                )
    return requests


def algebra(rng: random.Random) -> list[list[str]]:
    requests = []
    for n in range(1, 7):
        for k in range(count_partitions(n, n)):
            text = partition_text(unrank_partition(n, k))
            requests.append(["pieri", "--partition", text, "--n", str(n + 1)])
            requests.append(["branch", "--partition", text, "--n", str(n)])
    # Every (rank, factor count) cell gets the same number of expressions, so
    # only the drawn indices vary with the seed.  Products of at most seven
    # factors stay cheaper than the eleven slowest pieri requests, so the
    # tail percentile lands on a fixed request, and many small products make
    # the Hecke share of the pass steady from seed to seed.
    for rank in range(3, 7):
        for factors in range(5, 8):
            for _ in range(10):
                requests.append(
                    ["hecke", "normal-form", "--rank", str(rank),
                     "--expr", hecke_expression(rng, rank, factors)]
                )
    return requests


WORKLOADS = {
    "cores_blocks": cores_blocks,
    "verify_sweep": verify_sweep,
    "graph_export": graph_export,
    "algebra": algebra,
}


def requests_for(workload: str, seed: int) -> list[list[str]]:
    """The workload's request list for ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = WORKLOADS[workload](rng)
    rng.shuffle(requests)
    return requests
