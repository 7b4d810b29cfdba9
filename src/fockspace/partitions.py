"""Young-diagram combinatorics: boxes, contents, residues, rim hooks, cores.

Partitions are written in English notation (row 1 on top, rows weakly
decreasing in length).  Everything here is exact integer arithmetic on
immutable values.

The argument checks of the package live here too: ``check_modulus`` for a
residue modulus, ``_check_int`` for the other integer arguments.  Each
returns the plain ``int`` that its caller keeps, so ``True`` is stored as 1.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable, Iterator, NamedTuple


class Box(NamedTuple):
    """A cell of a Young diagram; rows and columns are 1-based."""

    row: int
    col: int


class Partition(tuple):
    """A partition: a weakly decreasing tuple of positive integers.

    It is the tuple of its parts, so it hashes, compares and orders as that
    tuple and cannot be changed; ``in`` asks whether a box is in the diagram.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(parts)
        for k, p in enumerate(parts):
            if not isinstance(p, int):
                raise TypeError(f"partition parts must be integers, got {p!r}")
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if k > 0 and parts[k - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        return tuple.__new__(cls, map(int, parts))

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
                if not (token.isascii() and token.removeprefix("-").isdigit()):
                    raise ValueError(token)
                parts.append(int(token))
            except ValueError:  # also int()'s limit on the number of digits
                raise ValueError(f"bad partition entry {token!r} in {text!r}") from None
        return cls(parts)

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple (a copy; hot loops index the partition)."""
        return tuple(self)

    @property
    def size(self) -> int:
        return sum(self)

    def __str__(self) -> str:
        # the list's C-level repr; the parts are ints, so its only spaces follow commas
        return repr(list(self)).replace(" ", "")

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __contains__(self, box: Box) -> bool:
        if not isinstance(box, Box):
            raise TypeError(f"'in <Partition>' asks for a Box(row, col), got {box!r}")
        return 1 <= box.row <= len(self) and 1 <= box.col <= self[box.row - 1]

    def row(self, r: int) -> int:
        """Length of row ``r`` (1-based); zero beyond the last row."""
        return self[r - 1] if 1 <= r <= len(self) else 0

    def boxes(self) -> Iterator[Box]:
        for r, length in enumerate(self, start=1):
            for c in range(1, length + 1):
                yield Box(r, c)


# Partition._trusted(parts) wraps a tuple (or list) already known to be
# positive and weakly decreasing, skipping the constructor's checks.  Only for
# parts built by a step that keeps a partition valid: a corner edit, a
# rim-hook removal, the enumeration of ``partitions_of``, the core read off
# the beads.  Any other input goes through ``Partition(...)``.  A partial of
# ``tuple.__new__`` is called in C, with no Python frame per wrap.
Partition._trusted = staticmethod(partial(tuple.__new__, Partition))


def _check_int(value: int, what: str, least: int | None = None) -> int:
    """Return ``int(value)`` (a bool counts); a non-int, or an int below ``least``, raises."""
    if not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return int(value)


def check_modulus(e: int) -> int:
    """Return ``int(e)`` for a residue modulus: 0 (no reduction) or any integer >= 2."""
    if not isinstance(e, int) or e == 1 or e < 0:
        raise ValueError(f"modulus must be 0 or an integer >= 2, got {e!r}")
    return int(e)


def canonical_residue(value: int, e: int) -> int:
    """Reduce an int (a bool counts) into [0, e); the identity when e == 0.

    Every residue argument passes through here, so any other type raises.
    """
    check_modulus(e)
    value = _check_int(value, "residue")
    return value % e if e else value


def residue_window(e: int, d: int) -> list[int]:
    """Residues that can act nontrivially on partitions of size <= d.

    For e == 0 the window is [-d-1, d+1]; box contents of such partitions
    stay strictly inside it.  For e >= 2 it is all of Z/eZ.
    """
    check_modulus(e)
    _check_int(d, "max size", 0)
    if e:
        return list(range(e))
    return list(range(-(d + 1), d + 2))


def content(box: Box) -> int:
    """The content col - row of a box."""
    return box.col - box.row


def residue(box: Box, e: int) -> int:
    """The content of a box reduced mod e (identity for e == 0)."""
    return canonical_residue(content(box), e)


PLUS = "+"
MINUS = "-"


def rim_corners(p: Partition) -> list[tuple[int, int, int]]:
    """Every corner of p as (sign, row, col), bottom left to top right.

    Sign 1 marks an addable box, -1 a removable one.  This is the only code
    that knows which rows carry a corner.  Contents col - row increase
    strictly along the list, so it is already in rim order.
    """
    k = len(p)
    out = [(1, k + 1, 1)]
    for r in range(k, 0, -1):
        length = p[r - 1]
        if r == k or p[r] < length:
            out.append((-1, r, length))
        if r == 1 or p[r - 2] > length:
            out.append((1, r, length + 1))
    return out


def _i_rim(p: Partition, i: int, e: int) -> list[tuple[int, int, int]]:
    """The corners of p of residue i as (sign, row, col), in rim order.

    e checked, i reduced.  The only code that picks corners of one residue:
    f_i, e_i, h_i and e_tilde read this scan.
    """
    return [
        (sign, row, col)
        for sign, row, col in rim_corners(p)
        if ((col - row) % e if e else col - row) == i
    ]


def i_corners(p: Partition, i: int, e: int) -> list[tuple[str, Box]]:
    """The corners of residue i in rim order, tagged PLUS (addable) or MINUS."""
    return [
        (PLUS if sign > 0 else MINUS, Box(row, col))
        for sign, row, col in _i_rim(p, canonical_residue(i, e), e)
    ]


def addable_boxes(p: Partition) -> list[Box]:
    """Boxes whose addition leaves a partition, bottom-left to top-right."""
    return [Box(row, col) for sign, row, col in rim_corners(p) if sign > 0]


def removable_boxes(p: Partition) -> list[Box]:
    """Boxes whose removal leaves a partition, bottom-left to top-right."""
    return [Box(row, col) for sign, row, col in rim_corners(p) if sign < 0]


def _edit_row(p: Partition, row: int, step: int) -> Partition:
    """p with one box added to (step 1) or removed from (step -1) a row.

    Unchecked: callers pass a corner of p from the rim walk.
    """
    length = p.row(row) + step
    return Partition._trusted(p[: row - 1] + ((length,) if length else ()) + p[row:])


def add_box(p: Partition, box: Box) -> Partition:
    if not isinstance(box, Box):
        raise TypeError(f"add_box asks for a Box(row, col), got {box!r}")
    if box not in addable_boxes(p):
        raise ValueError(f"box {tuple(box)} is not addable to {p}")
    return _edit_row(p, box.row, 1)


def remove_box(p: Partition, box: Box) -> Partition:
    if not isinstance(box, Box):
        raise TypeError(f"remove_box asks for a Box(row, col), got {box!r}")
    if box not in removable_boxes(p):
        raise ValueError(f"box {tuple(box)} is not removable from {p}")
    return _edit_row(p, box.row, -1)


def residue_counts(p: Partition, e: int) -> dict[int, int]:
    """Box count of each residue present in p; row r has contents 1-r .. p_r - r."""
    check_modulus(e)
    counts: dict[int, int] = {}
    for r, length in enumerate(p, start=1):
        for c in range(1 - r, length + 1 - r):
            i = c % e if e else c
            counts[i] = counts.get(i, 0) + 1
    return counts


def m_count(p: Partition, i: int, e: int) -> int:
    """Number of boxes of p with residue i."""
    return residue_counts(p, e).get(canonical_residue(i, e), 0)


def n_value(p: Partition, i: int, e: int) -> int:
    """Addable minus removable boxes of residue i: the eigenvalue of h_i on v_p.

    This equals delta_{i0} + m_{i-1} + m_{i+1} - 2*m_i (Misra-Miwa, 1990);
    verify's cartan_pairing checks it against that sum.
    """
    return sum(sign for sign, _, _ in _i_rim(p, canonical_residue(i, e), e))


@lru_cache(maxsize=None)
def _partition_tuples(d: int) -> tuple[Partition, ...]:
    """The partitions of d >= 0 in descending lexicographic order, by ZS1.

    x[:m] is the current partition, x[h] its last part above 1, and every
    later entry of x is 1.  The next partition lowers x[h] to r = x[h] - 1
    and deals the box taken off with the 1s after x[h] into parts of r and
    one smaller remainder (Zoghbi-Stojmenovic, 1998).
    """
    if d == 0:
        return (Partition(),)
    wrap = Partition._trusted
    x = [1] * d
    x[0] = d
    m, h = 1, 0
    out = [wrap(x[:1])]
    while x[0] != 1:
        r = x[h] - 1
        if r == 1:
            x[h] = 1
            h -= 1
            m += 1
        else:
            t = m - h  # the box taken off x[h] and the m - h - 1 ones after it
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(wrap(x[:m]))
    return tuple(out)


def partitions_of(d: int) -> list[Partition]:
    """All partitions of d in descending lexicographic order.

    Each degree is listed once by the iterative ZS1 algorithm
    (Zoghbi-Stojmenovic, Int. J. Comput. Math. 70 (1998) 319-332; Knuth,
    TAOCP 7.2.1.4) and cached; every call gets its own list.
    """
    d = _check_int(d, "degree")
    if d < 0:
        return []
    return list(_partition_tuples(d))


def partitions_up_to(d: int) -> list[Partition]:
    """All partitions of size 0..d, ordered by size then descending lex."""
    _check_int(d, "max size")
    return [p for k in range(d + 1) for p in _partition_tuples(k)]


def removable_rim_hooks(p: Partition, length: int) -> list[tuple[frozenset[Box], Partition]]:
    """All removable rim hooks of the given length, with the leftover shape.

    Works on the abacus (James-Kerber, 1981, 2.7): row j of a partition with
    k rows holds the bead b_j = p_j + k - 1 - j, and a hook of the given
    length is a bead b with b - length >= 0 not itself a bead.  Move that
    bead down to the slot of row t, the row it lands in: rows j..t-1 take
    the row below minus one, row t takes the moved bead, and every other row
    stays, so each hook costs O(rows).  Hooks are ordered along the rim
    walk, bottom left to top right (by the content b - length - (k - 1) of
    their lowest box), so walking the beads from the bottom row up needs no
    sort.
    """
    _check_int(length, "hook length", 1)
    k = len(p)
    betas = [part + k - 1 - j for j, part in enumerate(p)]
    beads = set(betas)
    hooks = []
    for j in range(k - 1, -1, -1):
        moved = betas[j] - length
        if moved < 0 or moved in beads:
            continue
        t = j
        while t + 1 < k and betas[t + 1] > moved:
            t += 1
        rows = [p[r + 1] - 1 for r in range(j, t)] + [moved - (k - 1 - t)]
        boxes = frozenset(
            Box(r + 1, c)
            for r, new in enumerate(rows, start=j)
            for c in range(new + 1, p[r] + 1)
        )
        leftover = p[:j] + tuple(x for x in rows if x) + p[t + 1 :]
        hooks.append((boxes, Partition._trusted(leftover)))
    return hooks


def _from_beads(beads: list[int]) -> Partition:
    """The partition whose k rows hold the given distinct beads >= 0, in any order.

    Sorted b_0 > ... > b_{k-1}, row j has b_j - (k - 1 - j) boxes: distinct
    beads make the rows weakly decreasing and >= 0, and the empty ones go.
    """
    k = len(beads)
    rows = (b - (k - 1 - j) for j, b in enumerate(sorted(beads, reverse=True)))
    return Partition._trusted(tuple(x for x in rows if x))


def core_and_weight(p: Partition, e: int) -> tuple[Partition, int]:
    """The e-core of p and the number of rim e-hooks removed to reach it.

    For e == 0, and when p has fewer than e boxes (so no rim e-hook), p is
    its own core, reached after removing no hook; otherwise the beads slide
    on the abacus (``_slide_beads``).
    """
    if not isinstance(p, Partition):
        raise TypeError(f"core_and_weight asks for a Partition, got {p!r}")
    check_modulus(e)
    if not e or p.size < e:
        return p, 0
    return _slide_beads(p, e)


def _slide_beads(p: Partition, e: int) -> tuple[Partition, int]:
    """``core_and_weight`` on the abacus, for e >= 2.

    On the abacus (James-Kerber, 1981, 2.7) row j holds the bead b_j = p_j + k - 1 - j,
    on runner b_j mod e at level b_j // e.  Each hook removed moves a bead one
    level down its runner, so the core has each runner's m beads at levels
    m-1 .. 0 and the weight is the total drop: one sort of the rows, whatever e.
    Checked: |p| = |core| + e * weight, and the core has no rim e-hook left.
    """
    k = len(p)
    top, slid, hooks_removed = {}, [], 0  # top: runner -> level of its last slid bead
    for j in range(k - 1, -1, -1):  # smallest bead first, so it takes the lowest free level
        level, runner = divmod(p[j] + k - 1 - j, e)
        top[runner] = free = top.get(runner, -1) + 1
        slid.append(runner + e * free)
        hooks_removed += level - free
    core = _from_beads(slid)
    if p.size != core.size + e * hooks_removed:
        raise ArithmeticError(f"|{p}| != |{core}| + {e} * {hooks_removed}")
    if removable_rim_hooks(core, e):
        raise ArithmeticError(f"core {core} of {p} still has a rim {e}-hook")
    return core, hooks_removed


def p_core(p: Partition, e: int) -> Partition:
    """The e-core of p; for e == 0 every partition is its own core."""
    return core_and_weight(p, e)[0]


def p_weight(p: Partition, e: int) -> int:
    """Number of rim e-hooks removed to reach the core; 0 when e == 0."""
    return core_and_weight(p, e)[1]
