"""Block decomposition of each degree layer by shared core.

Partitions of a fixed size fall into the same block exactly when they have
the same e-core, equivalently the same weight; the two characterisations
are computed through independent code paths and compared in the test
suites rather than identified by construction.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .fock import Weight, weight
from .partitions import Partition, _check_int, check_modulus, core_and_weight, partitions_of


class Block(NamedTuple):
    modulus: int
    degree: int
    core: Partition
    members: tuple[Partition, ...]
    weight: Weight
    p_weight: int

    def json_dict(self) -> dict:
        return {
            "core": str(self.core),
            "members": [str(p) for p in self.members],
            "weight": self.weight.json_dict(),
            "p_weight": self.p_weight,
        }


def blocks(d: int, e: int) -> list[Block]:
    """Partition the degree-d layer into classes of equal e-core."""
    e = check_modulus(e)
    d = _check_int(d, "degree", 0)
    by_core: dict[Partition, tuple[int, list[Partition]]] = {}
    for p in partitions_of(d):
        core, hooks_removed = core_and_weight(p, e)
        by_core.setdefault(core, (hooks_removed, []))[1].append(p)
    out = []
    for core in sorted(by_core, reverse=True):
        hooks_removed, members = by_core[core]
        members = tuple(members)  # partitions_of order, descending lexicographic
        out.append(
            Block(
                modulus=e,
                degree=d,
                core=core,
                members=members,
                weight=weight(members[0], e),
                p_weight=hooks_removed,
            )
        )
    return out


def derived_equivalence_classes(layer: Iterable[Block]) -> list[list[Block]]:
    """Group the blocks of one degree layer by equal p-weight (requires e >= 2).

    The layer is read once, so an iterator groups as its list does.
    """
    by_weight: dict[int, list[Block]] = {}
    for block in layer:
        if block.modulus == 0:
            raise ValueError("derived-equivalence grouping needs a modulus >= 2")
        by_weight.setdefault(block.p_weight, []).append(block)
    return [by_weight[w] for w in sorted(by_weight)]
