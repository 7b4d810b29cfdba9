"""The level-1 Fock space over the integers.

Basis vectors are indexed by partitions.  The generator f_i adds one box of
residue i in all possible ways, e_i removes one, and h_i acts diagonally by
n_i.  All coefficients are exact integers; single operator applications are
always finite, so no truncation happens here.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .combination import IntCombination
from .partitions import (
    Partition,
    _check_int,
    _edit_row,
    _i_rim,
    canonical_residue,
    check_modulus,
    n_value,
    partitions_of,
    residue_counts,
)


class FockVector(IntCombination):
    """A finite integer combination of basis partitions (no zero terms)."""

    __slots__ = ()

    def _checked_key(self, p: Partition) -> Partition:
        if not isinstance(p, Partition):
            raise TypeError(f"keys must be partitions, got {p!r}")
        return p

    @classmethod
    def basis(cls, p: Partition) -> "FockVector":
        return cls({p: 1})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def sorted_items(self) -> list[tuple[Partition, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "FockVector(0)"
        body = " + ".join(f"{c}*v{p}" for p, c in self.sorted_items())
        return f"FockVector({body})"


def _moves(p: Partition, i: int, e: int, step: int) -> list[Partition]:
    """p with one i-box added (step 1) or removed (step -1); e checked, i reduced."""
    return [_edit_row(p, row, step) for sign, row, _ in _i_rim(p, i, e) if sign == step]


def _move_boxes(v: FockVector, i: int, e: int, step: int) -> FockVector:
    """Add (step 1) or remove (step -1) one i-box in all ways, linearly."""
    i = canonical_residue(i, e)
    out: dict[Partition, int] = {}
    for p, c in v.terms.items():
        for q in _moves(p, i, e, step):
            out[q] = out.get(q, 0) + c
    return FockVector._trusted(out)


def apply_f(v: FockVector, i: int, e: int) -> FockVector:
    """Add one i-box in all ways, extended linearly."""
    return _move_boxes(v, i, e, 1)


def apply_e(v: FockVector, i: int, e: int) -> FockVector:
    """Remove one i-box in all ways, extended linearly."""
    return _move_boxes(v, i, e, -1)


def apply_h(v: FockVector, i: int, e: int) -> FockVector:
    """Diagonal action v_p -> n_i(p) * v_p."""
    i = canonical_residue(i, e)
    return FockVector._trusted({p: n_value(p, i, e) * c for p, c in v.terms.items()})


class Weight(NamedTuple):
    """An affine weight omega_0 - sum m_i alpha_i, keyed by residue.

    Stored as the sorted tuple of nonzero (residue, multiplicity) pairs; the
    omega_0 coefficient is implicitly 1.
    """

    modulus: int
    alpha: tuple[tuple[int, int], ...]

    def json_dict(self) -> dict[str, int]:
        return {str(i): m for i, m in self.alpha}


def weight(p: Partition, e: int) -> Weight:
    """The weight of the basis vector at p: residue -> box count."""
    counts = residue_counts(p, e)  # checks e
    return Weight(int(e), tuple(sorted(counts.items())))  # a bool modulus is kept as its int


def cartan_entry(i: int, j: int, e: int) -> int:
    """Entry a_ij of the affine type-A Cartan matrix (doubled bond for e=2)."""
    check_modulus(e)
    if e == 0:
        if i == j:
            return 2
        return -1 if abs(i - j) == 1 else 0
    i, j = i % e, j % e
    if i == j:
        return 2
    if e == 2:
        return -2
    return -1 if (i - j) % e in (1, e - 1) else 0


class SparseMatrix(NamedTuple):
    """Sparse integer matrix with partition-labelled rows and columns."""

    rows: tuple[Partition, ...]
    cols: tuple[Partition, ...]
    entries: tuple[tuple[int, int, int], ...]  # (row index, col index, coeff)

    @classmethod
    def build(
        cls,
        rows: Iterable[Partition],
        cols: Iterable[Partition],
        entries: Mapping[tuple[int, int], int],
    ) -> "SparseMatrix":
        triples = tuple(
            (r, c, v) for (r, c), v in sorted(entries.items()) if v
        )
        return cls(tuple(rows), tuple(cols), triples)

    def entry_dict(self) -> dict[tuple[int, int], int]:
        return {(r, c): v for r, c, v in self.entries}

    def transpose(self) -> "SparseMatrix":
        flipped = {(c, r): v for r, c, v in self.entries}
        return SparseMatrix.build(self.cols, self.rows, flipped)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix bases do not match")
        merged = self.entry_dict()
        for key, v in other.entry_dict().items():
            merged[key] = merged.get(key, 0) + v
        return SparseMatrix.build(self.rows, self.cols, merged)

    def json_dict(self) -> dict:
        return {
            "rows": [str(p) for p in self.rows],
            "cols": [str(p) for p in self.cols],
            "entries": [[r, c, v] for r, c, v in self.entries],
        }

    def csv_lines(self) -> list[str]:
        return ["row,col,coeff"] + [f"{r},{c},{v}" for r, c, v in self.entries]


def op_matrix(kind: str, i: int, e: int, d: int) -> SparseMatrix:
    """Matrix of e_i, f_i or h_i out of the degree-d graded piece.

    Columns are indexed by the partitions of d, rows by the partitions of
    the target degree (d-1 for e, d+1 for f, d for h), both in descending
    lexicographic order.
    """
    step = None
    if isinstance(kind, str):  # any other kind, hashable or not, is refused below
        kind = kind.lower()
        step = {"e": -1, "f": 1, "h": 0}.get(kind)
    if step is None:
        raise ValueError(f"operator kind must be one of e, f, h, got {kind!r}")
    _check_int(d, "degree", 0)
    i = canonical_residue(i, e)
    cols = partitions_of(d)
    rows = partitions_of(d + step)
    if step:
        row_index = {p: k for k, p in enumerate(rows)}
        entries = {
            (row_index[q], c): 1 for c, p in enumerate(cols) for q in _moves(p, i, e, step)
        }
    else:
        entries = {(c, c): n_value(p, i, e) for c, p in enumerate(cols)}
    return SparseMatrix.build(rows, cols, entries)
