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
    if n < len(p):
        raise ValueError(f"rank {n} is smaller than the number of parts of {p}")
    return sum((n - 2 * i + 1) * part + part * part for i, part in enumerate(p, start=1))


def _halved(numerator: int, what: str) -> int:
    if numerator % 2:
        raise ArithmeticError(f"{what}: difference {numerator} is odd")
    return numerator // 2


def x_eigenvalue(p: Partition, box: Box, n: int, e: int) -> int:
    """Eigenvalue residue attached to removing ``box`` from ``p`` at rank n.

    Computed as (c_{n+1}(p) - c_n(p - box) - |p| - n) / 2 and checked against
    the content of the box; the value does not depend on n.
    """
    check_modulus(e)
    mu = remove_box(p, box)
    numerator = casimir_scalar(p, n + 1) - casimir_scalar(mu, n) - p.size - n
    j = _halved(numerator, "removal eigenvalue")
    if j != content(box):
        raise ArithmeticError(
            f"removal eigenvalue {j} disagrees with content {content(box)} at {p}, {tuple(box)}"
        )
    return canonical_residue(j, e)


def y_eigenvalue(p: Partition, box: Box, n: int, e: int) -> int:
    """Eigenvalue residue attached to adding ``box`` to ``p`` at rank n.

    Computed as (c_n(p + box) - c_n(p) - n) / 2, using that the standard
    one-box column has Casimir scalar n; checked against the box content.
    """
    check_modulus(e)
    larger = add_box(p, box)
    numerator = casimir_scalar(larger, n) - casimir_scalar(p, n) - n
    j = _halved(numerator, "addition eigenvalue")
    if j != content(box):
        raise ArithmeticError(
            f"addition eigenvalue {j} disagrees with content {content(box)} at {p}, {tuple(box)}"
        )
    return canonical_residue(j, e)


def eigenvalue_table(p: Partition, n: int, e: int) -> dict:
    """Casimir scalar of p plus the eigenvalue of every box move at rank n."""
    if n <= len(p):
        raise ValueError(f"rank {n} must exceed the number of parts of {p}")
    removable = [
        {
            "box": [b.row, b.col],
            "content": content(b),
            "residue": x_eigenvalue(p, b, n, e),
        }
        for b in removable_boxes(p)
    ]
    addable = [
        {
            "box": [b.row, b.col],
            "content": content(b),
            "residue": y_eigenvalue(p, b, n, e),
        }
        for b in addable_boxes(p)
    ]
    return {
        "partition": str(p),
        "n": n,
        "modulus": e,
        "casimir": casimir_scalar(p, n),
        "removable": removable,
        "addable": addable,
    }
