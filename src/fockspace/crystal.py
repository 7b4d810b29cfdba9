"""The Misra-Miwa crystal on partitions.

The i-signature of a partition is the word of + (addable i-box) and -
(removable i-box) read along the rim from bottom left to top right.  After
cancelling adjacent +- pairs the word looks like -...-+...+; the rightmost
surviving - marks the good box (removed by e_tilde), the leftmost surviving
+ marks the cogood box (added by f_tilde).

``e_tilde`` finds the good box in one bracket scan of the residue-i
corners (``partitions._i_rim``).  ``f_tilde`` reads the cogood row of every
residue from one bracket scan per node (``_cogood_rows``), kept for the last
node asked about, so the crystal export walks each node's rim once.
``signature``, ``reduced_signature``, ``good_box`` and ``cogood_box`` build
the words themselves and are the oracle the scans are checked against.

``crystal_graph`` keeps the export lean: a node's weight shares every
(residue, count) pair but one with its parent's, each edge target is the
node object itself, and ``CrystalGraph.json_text`` writes the JSON text
straight from the graph, with no dict per node, weight or edge.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple, Optional

from .fock import Weight
from .partitions import (
    MINUS,
    PLUS,
    Box,
    Partition,
    _check_int,
    _edit_row,
    _i_rim,
    canonical_residue,
    check_modulus,
    i_corners,
    partitions_up_to,
    rim_corners,
)


class Signature(NamedTuple):
    """A +/- word along the rim, each symbol tagged with its box."""

    symbols: tuple[tuple[str, Box], ...]

    @property
    def word(self) -> str:
        return "".join(sign for sign, _ in self.symbols)


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
    """Remove the i-good box: the last - that finds no earlier + to cancel."""
    good, pluses = 0, 0
    for sign, row, _ in _i_rim(p, canonical_residue(i, e), e):
        if sign > 0:
            pluses += 1
        elif pluses:
            pluses -= 1
        else:
            good = row
    return _edit_row(p, good, -1) if good else None


@lru_cache(maxsize=1)
def _cogood_rows(p: Partition, e: int) -> dict[int, int]:
    """The row of the cogood box of each residue that has one; e checked.

    One rim walk, one bracket stack per residue holding the rows of the +
    not cancelled yet, leftmost first.  The cache holds one node: a node's
    f_tilde calls, one per residue, follow each other.  Every caller gets
    the same dict, so none may change it.
    """
    pluses: dict[int, list[int]] = {}
    for sign, row, col in rim_corners(p):
        i = (col - row) % e if e else col - row
        if sign > 0:
            pluses.setdefault(i, []).append(row)
        elif pluses.get(i):
            pluses[i].pop()
    return {i: rows[0] for i, rows in pluses.items() if rows}


def f_tilde(p: Partition, i: int, e: int) -> Optional[Partition]:
    """Add the i-cogood box: the first + that no later - cancels."""
    i = canonical_residue(i, e)  # checks e before the memo reads it
    row = _cogood_rows(p, e).get(i)
    return None if row is None else _edit_row(p, row, 1)


def epsilon(p: Partition, i: int, e: int) -> int:
    """Number of - symbols surviving in the reduced i-signature."""
    return reduced_signature(signature(p, i, e)).word.count(MINUS)


def phi(p: Partition, i: int, e: int) -> int:
    """Number of + symbols surviving in the reduced i-signature."""
    return reduced_signature(signature(p, i, e)).word.count(PLUS)


class CrystalGraph(NamedTuple):
    """All partitions of size <= max_size with their f_tilde transitions."""

    modulus: int
    max_size: int
    nodes: tuple[tuple[Partition, Weight], ...]
    edges: tuple[tuple[Partition, Partition, int], ...]

    def _labels(self) -> dict[Partition, str]:
        """The text of each node, formatted once, in node order."""
        return {p: str(p) for p, _ in self.nodes}

    def json_text(self) -> str:
        """The JSON of the graph, laid out as ``json.dumps`` lays it out.

        Labels hold only brackets, digits and commas, and every other value
        is an int, so no string needs escaping.
        """
        labels = self._labels()
        nodes = ", ".join(
            f'{{"partition": "{labels[p]}", "size": {p.size}, "weight": {{'
            + ", ".join(f'"{i}": {m}' for i, m in w.alpha)
            + "}}"  # closes the weight, then the node
            for p, w in self.nodes
        )
        edges = ", ".join(
            f'{{"src": "{labels[src]}", "dst": "{labels[dst]}", "residue": {i}}}'
            for src, dst, i in self.edges
        )
        return f'{{"modulus": {json.dumps(self.modulus)}, "nodes": [{nodes}], "edges": [{edges}]}}'

    def json_dict(self) -> dict:
        return json.loads(self.json_text())

    def dot(self) -> str:
        labels = self._labels()
        lines = ["digraph crystal {"]
        lines.extend(f'  "{label}";' for label in labels.values())
        lines.extend(
            f'  "{labels[src]}" -> "{labels[dst]}" [label="{i}"];' for src, dst, i in self.edges
        )
        lines.append("}")
        return "\n".join(lines)


def crystal_graph(e: int, d: int) -> CrystalGraph:
    """Build the crystal on partitions of size <= d.

    Each node calls f_tilde once per residue that has a cogood box, in
    increasing order, so the edges come out sorted by source (nodes are
    ordered by size) and residue.  f_tilde reads the node's cogood rows,
    found in one rim walk (e_tilde would read the residue-i scan, _i_rim).
    Each edge target is the node equal to the f_tilde image, not a copy.
    A weight is that of an earlier node, p less its last box, plus that
    box: the parent's sorted pairs with the one of that box's residue
    replaced or inserted, every other pair shared.
    """
    e = int(check_modulus(e))  # a bool modulus is kept as its int
    _check_int(d, "max size", 0)
    nodes = partitions_up_to(d)
    alphas = {(): ()}  # partition -> Weight.alpha
    for p in nodes[1:]:
        k = len(p)
        alpha = alphas[p[:-1] + ((p[-1] - 1,) if p[-1] > 1 else ())]
        r = (p[-1] - k) % e if e else p[-1] - k  # residue of the last box
        slot = bisect_left(alpha, (r,))
        if slot < len(alpha) and alpha[slot][0] == r:
            alphas[p] = alpha[:slot] + ((r, alpha[slot][1] + 1),) + alpha[slot + 1:]
        else:
            alphas[p] = alpha[:slot] + ((r, 1),) + alpha[slot:]
    node = {p: p for p in nodes}
    edges = []
    for p in nodes:
        if p.size == d:  # the last layer; its f_tilde images lie outside the graph
            break
        for i in sorted(_cogood_rows(p, e)):
            q = f_tilde(p, i, e)  # off the graph only when f_tilde is wrong; verify says so
            edges.append((p, node.get(q, q), i))
    return CrystalGraph(
        modulus=e,
        max_size=int(d),  # a bool size is kept as its int
        nodes=tuple((p, Weight(e, alphas[p])) for p in nodes),
        edges=tuple(edges),
    )
