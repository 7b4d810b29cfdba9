"""Every integer argument of the public API is checked the same way.

One row per entry point and argument: the call with the argument left
open, the name the errors give it, and, where the argument has a lower
bound, a value below it with the message that refuses it.  A non-int
raises ``TypeError`` naming the argument, and ``True`` behaves as 1.
"""

import re

import pytest

from fockspace.blocks import blocks
from fockspace.casimir import casimir_scalar, eigenvalue_table, x_eigenvalue, y_eigenvalue
from fockspace.characters import (
    SymPolynomial,
    branch_r1,
    complete_homogeneous,
    pieri_mult,
    schur,
    schur_jacobi_trudi,
)
from fockspace.crystal import crystal_graph
from fockspace.fock import op_matrix
from fockspace.hecke import (
    HeckeElement,
    from_generator,
    parse_expression,
    verify_relations,
)
from fockspace.partitions import (
    Box,
    Partition,
    canonical_residue,
    partitions_of,
    partitions_up_to,
    removable_rim_hooks,
    residue_window,
)
from fockspace.verify import run_verify

P = Partition

ROWS = {
    "partitions_of": (lambda v: partitions_of(v), "degree", None),
    "partitions_up_to": (lambda v: partitions_up_to(v), "max size", None),
    "residue_window": (lambda v: residue_window(3, v), "max size", None),
    "removable_rim_hooks": (
        lambda v: removable_rim_hooks(P((2, 1)), v), "hook length",
        (0, "hook length must be >= 1, got 0"),
    ),
    "canonical_residue": (lambda v: canonical_residue(v, 3), "residue", None),
    "op_matrix degree": (
        lambda v: op_matrix("f", 0, 2, v), "degree", (-1, "degree must be >= 0, got -1"),
    ),
    "op_matrix residue": (lambda v: op_matrix("f", v, 2, 1), "residue", None),
    "crystal_graph": (
        lambda v: crystal_graph(2, v), "max size", (-1, "max size must be >= 0, got -1"),
    ),
    "blocks": (lambda v: blocks(v, 2), "degree", (-1, "degree must be >= 0, got -1")),
    "casimir_scalar": (
        lambda v: casimir_scalar(P((1,)), v), "rank",
        (0, "rank 0 is smaller than the number of parts of [1]"),
    ),
    "x_eigenvalue": (lambda v: x_eigenvalue(P((1,)), Box(1, 1), v, 0), "rank", None),
    "y_eigenvalue": (
        lambda v: y_eigenvalue(P(), Box(1, 1), v, 0), "rank",
        (0, "rank 0 is smaller than the number of parts of [1]"),
    ),
    "eigenvalue_table": (
        lambda v: eigenvalue_table(P(), v, 0), "rank",
        (0, "rank 0 must exceed the number of parts of []"),
    ),
    "SymPolynomial": (
        lambda v: SymPolynomial(v), "number of variables",
        (-1, "number of variables must be >= 0, got -1"),
    ),
    "schur": (
        lambda v: schur(P((1,)), v), "number of variables",
        (-1, "number of variables must be >= 0, got -1"),
    ),
    "complete_homogeneous degree": (lambda v: complete_homogeneous(v, 2), "degree", None),
    "complete_homogeneous variables": (
        lambda v: complete_homogeneous(2, v), "number of variables",
        (-1, "number of variables must be >= 0, got -1"),
    ),
    "schur_jacobi_trudi": (
        lambda v: schur_jacobi_trudi(P((1,)), v), "number of variables",
        (-1, "number of variables must be >= 0, got -1"),
    ),
    "branch_r1": (
        lambda v: branch_r1(P((1,)), v), "number of variables", (0, "need n >= |p| = 1, got 0"),
    ),
    "pieri_mult": (
        lambda v: pieri_mult(P((1,)), v), "number of variables", (0, "need n >= |p| = 1, got 0"),
    ),
    "HeckeElement": (lambda v: HeckeElement(v), "rank", (0, "rank must be >= 1, got 0")),
    "HeckeElement.one": (lambda v: HeckeElement.one(v), "rank", (0, "rank must be >= 1, got 0")),
    "HeckeElement.scalar": (
        lambda v: HeckeElement.scalar(2, v), "rank", (0, "rank must be >= 1, got 0"),
    ),
    "from_generator index": (
        lambda v: from_generator("y", v, 2), "generator index",
        (0, "y index must be in 1..2, got 0"),
    ),
    "from_generator rank": (
        lambda v: from_generator("y", 1, v), "rank", (0, "y index must be in 1..0, got 1"),
    ),
    "parse_expression": (
        lambda v: parse_expression("y1", v), "rank", (0, "rank must be >= 1, got 0"),
    ),
    "verify_relations": (lambda v: verify_relations(v), "rank", (1, "rank must be >= 2, got 1")),
    "run_verify": (
        lambda v: [r.passed for r in run_verify("crystal", 2, v).results], "max size",
        (-1, "max size must be >= 0, got -1"),
    ),
}


def _outcome(call, value):
    """The answer, or the type of the exception raised instead."""
    try:
        return call(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("value", [2.5, "3", None])
def test_a_non_int_is_refused_by_name(row, value):
    call, what, _ = ROWS[row]
    message = f"{what} must be an integer, got {value!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("row", ROWS)
def test_true_counts_as_one(row):
    call, _, _ = ROWS[row]
    assert _outcome(call, True) == _outcome(call, 1)


@pytest.mark.parametrize("row", [row for row, (_, _, low) in ROWS.items() if low])
def test_a_value_below_the_bound_keeps_its_message(row):
    call, _, (value, message) = ROWS[row]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
