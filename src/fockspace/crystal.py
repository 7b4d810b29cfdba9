"""The Misra-Miwa crystal on partitions.

The i-signature of a partition is the word of + (addable i-box) and -
(removable i-box) read along the rim from bottom left to top right.  After
cancelling adjacent +- pairs the word looks like -...-+...+; the rightmost
surviving - marks the good box (removed by e_tilde), the leftmost surviving
+ marks the cogood box (added by f_tilde).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fock import Weight, weight
from .partitions import (
    MINUS,
    PLUS,
    Box,
    Partition,
    _edit_row,
    check_modulus,
    i_corners,
    partitions_up_to,
    residue_window,
)


@dataclass(frozen=True)
class Signature:
    """A +/- word along the rim, each symbol tagged with its box."""

    symbols: tuple[tuple[str, Box], ...]

    @property
    def word(self) -> str:
        return "".join(sign for sign, _ in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def signature(p: Partition, i: int, e: int) -> Signature:
    """The i-signature of p, ordered bottom left to top right."""
    return Signature(tuple(i_corners(p, i, e)))


def reduced_signature(sig: Signature) -> Signature:
    """Cancel adjacent +- pairs until none remain (single stack scan)."""
    minuses: list[tuple[str, Box]] = []
    pluses: list[tuple[str, Box]] = []
    for symbol in sig.symbols:
        if symbol[0] == PLUS:
            pluses.append(symbol)
        elif pluses:
            pluses.pop()
        else:
            minuses.append(symbol)
    return Signature(tuple(minuses + pluses))


def good_box(p: Partition, i: int, e: int) -> Optional[Box]:
    """The box of the rightmost - in the reduced i-signature, if any."""
    reduced = reduced_signature(signature(p, i, e))
    for sign, box in reversed(reduced.symbols):
        if sign == MINUS:
            return box
    return None


def cogood_box(p: Partition, i: int, e: int) -> Optional[Box]:
    """The box of the leftmost + in the reduced i-signature, if any."""
    reduced = reduced_signature(signature(p, i, e))
    for sign, box in reduced.symbols:
        if sign == PLUS:
            return box
    return None


def e_tilde(p: Partition, i: int, e: int) -> Optional[Partition]:
    """Remove the i-good box; None when there is none."""
    box = good_box(p, i, e)
    return None if box is None else _edit_row(p, box.row, -1)


def f_tilde(p: Partition, i: int, e: int) -> Optional[Partition]:
    """Add the i-cogood box; None when there is none."""
    box = cogood_box(p, i, e)
    return None if box is None else _edit_row(p, box.row, 1)


def epsilon(p: Partition, i: int, e: int) -> int:
    """Number of - symbols surviving in the reduced i-signature."""
    return reduced_signature(signature(p, i, e)).word.count(MINUS)


def phi(p: Partition, i: int, e: int) -> int:
    """Number of + symbols surviving in the reduced i-signature."""
    return reduced_signature(signature(p, i, e)).word.count(PLUS)


@dataclass(frozen=True)
class CrystalGraph:
    """All partitions of size <= max_size with their f_tilde transitions."""

    modulus: int
    max_size: int
    nodes: tuple[tuple[Partition, Weight], ...]
    edges: tuple[tuple[Partition, Partition, int], ...]

    def json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "nodes": [
                {"partition": str(p), "size": p.size, "weight": w.json_dict()}
                for p, w in self.nodes
            ],
            "edges": [
                {"src": str(src), "dst": str(dst), "residue": i}
                for src, dst, i in self.edges
            ],
        }

    def dot(self) -> str:
        lines = ["digraph crystal {"]
        for p, _ in self.nodes:
            lines.append(f'  "{p}";')
        for src, dst, i in self.edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def crystal_graph(e: int, d: int) -> CrystalGraph:
    """Build the crystal on partitions of size <= d."""
    check_modulus(e)
    if d < 0:
        raise ValueError(f"max size must be >= 0, got {d}")
    nodes = partitions_up_to(d)
    node_order = {p: k for k, p in enumerate(nodes)}
    residues = residue_window(e, d)
    edges = []
    for p in nodes:
        if p.size == d:
            continue
        for i in residues:
            target = f_tilde(p, i, e)
            if target is not None:
                edges.append((p, target, i))
    edges.sort(key=lambda t: (node_order[t[0]], t[2]))
    return CrystalGraph(
        modulus=e,
        max_size=d,
        nodes=tuple((p, weight(p, e)) for p in nodes),
        edges=tuple(edges),
    )
