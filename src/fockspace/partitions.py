"""Young-diagram combinatorics: boxes, contents, residues, rim hooks, cores.

Partitions are written in English notation (row 1 on top, rows weakly
decreasing in length).  Everything here is exact integer arithmetic on
immutable values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple


class Box(NamedTuple):
    """A cell of a Young diagram; rows and columns are 1-based."""

    row: int
    col: int


class Partition:
    """A partition stored as a weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for k, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if k > 0 and parts[k - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        self.parts: tuple[int, ...] = parts

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the bracketed text form, e.g. ``[4,4,2,1]`` or ``[]``."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"partition text must look like [4,2,1], got {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return cls()
        parts = []
        for token in inner.split(","):
            token = token.strip()
            try:
                parts.append(int(token))
            except ValueError:
                raise ValueError(f"bad partition entry {token!r} in {text!r}") from None
        return cls(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __contains__(self, box: Box) -> bool:
        return 1 <= box.row <= len(self.parts) and 1 <= box.col <= self.parts[box.row - 1]

    def row(self, r: int) -> int:
        """Length of row ``r`` (1-based); zero beyond the last row."""
        return self.parts[r - 1] if 1 <= r <= len(self.parts) else 0

    def boxes(self) -> Iterator[Box]:
        for r, length in enumerate(self.parts, start=1):
            for c in range(1, length + 1):
                yield Box(r, c)


EMPTY = Partition()


def check_modulus(e: int) -> int:
    """Validate a residue modulus: 0 (no reduction) or any integer >= 2."""
    if not isinstance(e, int) or e == 1 or e < 0:
        raise ValueError(f"modulus must be 0 or an integer >= 2, got {e!r}")
    return e


def canonical_residue(value: int, e: int) -> int:
    """Reduce an integer into [0, e); the identity when e == 0."""
    check_modulus(e)
    return value % e if e else value


def residue_window(e: int, d: int) -> list[int]:
    """Residues that can act nontrivially on partitions of size <= d.

    For e == 0 the window is [-d-1, d+1]; box contents of such partitions
    stay strictly inside it.  For e >= 2 it is all of Z/eZ.
    """
    check_modulus(e)
    if e:
        return list(range(e))
    return list(range(-(d + 1), d + 2))


def content(box: Box) -> int:
    """The content col - row of a box."""
    return box.col - box.row


def residue(box: Box, e: int) -> int:
    """The content of a box reduced mod e (identity for e == 0)."""
    return canonical_residue(content(box), e)


def addable_boxes(p: Partition) -> list[Box]:
    """Boxes whose addition leaves a partition, bottom-left to top-right."""
    parts = p.parts
    k = len(parts)
    out = [Box(k + 1, 1)]
    for r in range(k, 0, -1):
        if r == 1 or parts[r - 2] > parts[r - 1]:
            out.append(Box(r, parts[r - 1] + 1))
    return out


def removable_boxes(p: Partition) -> list[Box]:
    """Boxes whose removal leaves a partition, bottom-left to top-right."""
    parts = p.parts
    k = len(parts)
    out = []
    for r in range(k, 0, -1):
        if r == k or parts[r] < parts[r - 1]:
            out.append(Box(r, parts[r - 1]))
    return out


def add_box(p: Partition, box: Box) -> Partition:
    if box not in addable_boxes(p):
        raise ValueError(f"box {tuple(box)} is not addable to {p}")
    if box.row == len(p.parts) + 1:
        return Partition(p.parts + (1,))
    parts = list(p.parts)
    parts[box.row - 1] += 1
    return Partition(parts)


def remove_box(p: Partition, box: Box) -> Partition:
    if box not in removable_boxes(p):
        raise ValueError(f"box {tuple(box)} is not removable from {p}")
    parts = list(p.parts)
    parts[box.row - 1] -= 1
    if parts[-1] == 0:
        parts.pop()
    return Partition(parts)


def residue_counts(p: Partition, e: int) -> dict[int, int]:
    """Box count of each residue present in p; row r has contents 1-r .. p_r - r."""
    check_modulus(e)
    counts: dict[int, int] = {}
    for r, length in enumerate(p.parts, start=1):
        for c in range(1 - r, length + 1 - r):
            i = c % e if e else c
            counts[i] = counts.get(i, 0) + 1
    return counts


def m_count(p: Partition, i: int, e: int) -> int:
    """Number of boxes of p with residue i."""
    return residue_counts(p, e).get(canonical_residue(i, e), 0)


def n_value(p: Partition, i: int, e: int) -> int:
    """m_{i-1} + m_{i+1} - 2*m_i + delta_{i0}.

    For e == 2 the neighbours i-1 and i+1 coincide mod 2 and are counted
    twice, exactly as the sum is written.
    """
    m = residue_counts(p, e)
    i = canonical_residue(i, e)
    below, above = canonical_residue(i - 1, e), canonical_residue(i + 1, e)
    return m.get(below, 0) + m.get(above, 0) - 2 * m.get(i, 0) + (1 if i == 0 else 0)


@lru_cache(maxsize=None)
def _partition_tuples(d: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, cap), 0, -1):
        for rest in _partition_tuples(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(d: int) -> list[Partition]:
    """All partitions of d in descending lexicographic order."""
    if d < 0:
        return []
    return [Partition(t) for t in _partition_tuples(d, d if d else 1)]


def partitions_up_to(d: int) -> list[Partition]:
    """All partitions of size 0..d, ordered by size then descending lex."""
    return [p for k in range(d + 1) for p in partitions_of(k)]


def _subpartitions_of_size(p: Partition, target: int) -> list[Partition]:
    """Partitions mu contained in p (mu_r <= p_r) with |mu| = target."""
    if target < 0:
        return []
    parts = p.parts
    out: list[Partition] = []

    def rec(r: int, prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if r >= len(parts):
            return
        for v in range(min(parts[r], cap, remaining), 0, -1):
            prefix.append(v)
            rec(r + 1, prefix, remaining - v, v)
            prefix.pop()

    rec(0, [], target, p.parts[0] if p.parts else 0)
    return out


def _skew_boxes(outer: Partition, inner: Partition) -> list[Box]:
    boxes = []
    for r, length in enumerate(outer.parts, start=1):
        start = inner.row(r)
        boxes.extend(Box(r, c) for c in range(start + 1, length + 1))
    return boxes


def _is_border_strip(boxes: list[Box]) -> bool:
    """Connected skew shape containing no 2x2 square."""
    if not boxes:
        return False
    cells = set(boxes)
    for r, c in cells:
        if {(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells:
            return False
    seen = {boxes[0]}
    frontier = [boxes[0]]
    while frontier:
        r, c = frontier.pop()
        for nb in (Box(r - 1, c), Box(r + 1, c), Box(r, c - 1), Box(r, c + 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cells)


def removable_rim_hooks(p: Partition, length: int) -> list[tuple[frozenset[Box], Partition]]:
    """All removable rim hooks of the given length, with the leftover shape.

    A rim hook is a connected strip along the rim containing no 2x2 square
    whose removal leaves a partition.  Hooks are ordered along the rim walk,
    bottom left to top right (by the content of their lowest box).
    """
    if length < 1:
        raise ValueError(f"hook length must be >= 1, got {length}")
    hooks = []
    for mu in _subpartitions_of_size(p, p.size - length):
        skew = _skew_boxes(p, mu)
        if _is_border_strip(skew):
            hooks.append((frozenset(skew), mu))
    hooks.sort(key=lambda hook: min(content(b) for b in hook[0]))
    return hooks


def core_and_weight(p: Partition, e: int) -> tuple[Partition, int]:
    """The e-core of p and the number of rim e-hooks removed to reach it.

    Hooks are removed greedily, first hook in rim order.  For e == 0 every
    partition is its own core, reached after removing no hook.
    """
    check_modulus(e)
    core, hooks_removed = p, 0
    while e and (hooks := removable_rim_hooks(core, e)):
        core, hooks_removed = hooks[0][1], hooks_removed + 1
    if p.size != core.size + e * hooks_removed:
        raise ArithmeticError(f"|{p}| != |{core}| + {e} * {hooks_removed}")
    return core, hooks_removed


def p_core(p: Partition, e: int) -> Partition:
    """The e-core of p; for e == 0 every partition is its own core."""
    return core_and_weight(p, e)[0]


def p_core_beta(p: Partition, e: int) -> Partition:
    """Core via beta-numbers: slide the abacus beads down each runner.

    Independent of the greedy removal path; used to cross-check p_core.
    """
    check_modulus(e)
    if e == 0 or not p.parts:
        return p
    k = len(p.parts)
    betas = [p.parts[j] + (k - 1 - j) for j in range(k)]
    runners: dict[int, int] = {}
    for b in betas:
        runners[b % e] = runners.get(b % e, 0) + 1
    new_betas = sorted(
        (r + e * pos for r, count in runners.items() for pos in range(count)),
        reverse=True,
    )
    parts = [b - (k - 1 - j) for j, b in enumerate(new_betas)]
    return Partition([x for x in parts if x > 0])


def p_weight(p: Partition, e: int) -> int:
    """Number of rim e-hooks removed to reach the core; 0 when e == 0."""
    return core_and_weight(p, e)[1]
