"""Casimir scalars and the eigenvalues that label box moves.

``casimir_scalar`` evaluates the quadratic Casimir on a highest weight,
padded with zeros to rank n.  The two eigenvalue functions recover the
content of a removed/added box purely from Casimir scalars; every call
recomputes the content the direct way and insists the two agree, so a
successful return is self-verifying.
"""

from __future__ import annotations

from .partitions import (
    Box,
    Partition,
    _check_int,
    add_box,
    addable_boxes,
    canonical_residue,
    check_modulus,
    content,
    removable_boxes,
    remove_box,
)


def casimir_scalar(p: Partition, n: int) -> int:
    """Sum of (n - 2i + 1) * p_i + p_i^2 over rows i = 1..n (zero-padded)."""
    if _check_int(n, "rank") < len(p):
        raise ValueError(f"rank {n} is smaller than the number of parts of {p}")
    return sum((n - 2 * i + 1) * part + part * part for i, part in enumerate(p, start=1))


def _box_residue(what: str, numerator: int, p: Partition, box: Box, e: int) -> int:
    """Half the numerator, checked against the content of the box, reduced mod e."""
    if numerator % 2:
        raise ArithmeticError(f"{what}: difference {numerator} is odd")
    j = numerator // 2
    if j != content(box):
        raise ArithmeticError(
            f"{what} {j} disagrees with content {content(box)} at {p}, {tuple(box)}"
        )
    return canonical_residue(j, e)


def x_eigenvalue(p: Partition, box: Box, n: int, e: int) -> int:
    """Eigenvalue residue attached to removing ``box`` from ``p`` at rank n.

    Computed as (c_{n+1}(p) - c_n(p - box) - |p| - n) / 2 and checked against
    the content of the box; the value does not depend on n.
    """
    check_modulus(e)
    mu = remove_box(p, box)
    # mu first, so a rank too small is named as passed: once mu fits in n rows, p fits in n + 1
    smaller = casimir_scalar(mu, n)
    numerator = casimir_scalar(p, n + 1) - smaller - p.size - n
    return _box_residue("removal eigenvalue", numerator, p, box, e)


def y_eigenvalue(p: Partition, box: Box, n: int, e: int) -> int:
    """Eigenvalue residue attached to adding ``box`` to ``p`` at rank n.

    Computed as (c_n(p + box) - c_n(p) - n) / 2, using that the standard
    one-box column has Casimir scalar n; checked against the box content.
    """
    check_modulus(e)
    larger = add_box(p, box)
    numerator = casimir_scalar(larger, n) - casimir_scalar(p, n) - n
    return _box_residue("addition eigenvalue", numerator, p, box, e)


def eigenvalue_table(p: Partition, n: int, e: int) -> dict:
    """Casimir scalar of p plus the eigenvalue of every box move at rank n."""
    if _check_int(n, "rank") <= len(p):
        raise ValueError(f"rank {n} must exceed the number of parts of {p}")

    def moves(boxes: list[Box], eigenvalue) -> list[dict]:
        return [
            {"box": [b.row, b.col], "content": content(b), "residue": eigenvalue(p, b, n, e)}
            for b in boxes
        ]

    return {
        "partition": str(p),
        "n": int(n),  # a bool rank is written as its int
        "modulus": int(check_modulus(e)),  # a bool modulus is written as its int
        "casimir": casimir_scalar(p, n),
        "removable": moves(removable_boxes(p), x_eigenvalue),
        "addable": moves(addable_boxes(p), y_eigenvalue),
    }
