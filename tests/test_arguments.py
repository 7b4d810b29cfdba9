"""Every integer argument of the public API is checked the same way.

``ROWS`` has one row per entry point and argument: the parameter it covers,
the call with the argument left open, the name the errors give it, and,
where the argument has a lower bound, a value below it with the message
that refuses it.  A non-int raises ``TypeError`` naming the argument, and
``True`` gives what 1 gives, down to the ``repr`` and the JSON text.

``MODULI`` does the same for every residue modulus: ``False`` gives what 0
gives, and 1, -1, ``True`` and 2.5 raise the modulus error.  ``EXEMPT``
names each int-annotated parameter that has no row, with the reason, and
the registry test finds every int-annotated parameter of the public API in
one of the three tables.
"""

import inspect
import json
import re
from types import FunctionType

import pytest

import fockspace
from fockspace.blocks import blocks, same_block
from fockspace.casimir import casimir_scalar, eigenvalue_table, x_eigenvalue, y_eigenvalue
from fockspace.characters import (
    SymPolynomial,
    branch_r1,
    complete_homogeneous,
    pieri_mult,
    schur,
    schur_jacobi_trudi,
)
from fockspace.crystal import (
    cogood_box,
    crystal_graph,
    e_tilde,
    epsilon,
    f_tilde,
    good_box,
    phi,
    signature,
)
from fockspace.fock import FockVector, apply_e, apply_f, apply_h, cartan_entry, op_matrix, weight
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
    check_modulus,
    core_and_weight,
    i_corners,
    m_count,
    n_value,
    p_core,
    p_weight,
    partitions_of,
    partitions_up_to,
    removable_rim_hooks,
    residue,
    residue_counts,
    residue_window,
)
from fockspace.verify import run_verify

P = Partition
V = FockVector.basis(P((2, 1)))
RANK_LOW = (0, "rank must be >= 1, got 0")
VARIABLES_LOW = (-1, "number of variables must be >= 0, got -1")

# A run_verify row returns the report's json_dict: the report's own repr holds timings.
ROWS = {
    "partitions_of": ("partitions_of(d)", lambda v: partitions_of(v), "degree", None),
    "partitions_up_to": ("partitions_up_to(d)", lambda v: partitions_up_to(v), "max size", None),
    "residue_window": (
        "residue_window(d)", lambda v: residue_window(3, v), "max size",
        (-1, "max size must be >= 0, got -1"),
    ),
    "removable_rim_hooks": (
        "removable_rim_hooks(length)", lambda v: removable_rim_hooks(P((2, 1)), v), "hook length",
        (0, "hook length must be >= 1, got 0"),
    ),
    "canonical_residue": (
        "canonical_residue(value)", lambda v: canonical_residue(v, 0), "residue", None,
    ),
    "i_corners": ("i_corners(i)", lambda v: i_corners(P((2, 1)), v, 3), "residue", None),
    "m_count": ("m_count(i)", lambda v: m_count(P((2, 1)), v, 3), "residue", None),
    "n_value": ("n_value(i)", lambda v: n_value(P((2, 1)), v, 3), "residue", None),
    "apply_e": ("apply_e(i)", lambda v: apply_e(V, v, 3), "residue", None),
    "apply_f": ("apply_f(i)", lambda v: apply_f(V, v, 3), "residue", None),
    "apply_h": ("apply_h(i)", lambda v: apply_h(V, v, 3), "residue", None),
    "cartan_entry i": ("cartan_entry(i)", lambda v: cartan_entry(v, 2, 3), "residue", None),
    "cartan_entry j": ("cartan_entry(j)", lambda v: cartan_entry(2, v, 3), "residue", None),
    "op_matrix degree": (
        "op_matrix(d)", lambda v: op_matrix("f", 0, 2, v), "degree",
        (-1, "degree must be >= 0, got -1"),
    ),
    "op_matrix residue": ("op_matrix(i)", lambda v: op_matrix("f", v, 2, 1), "residue", None),
    "signature": ("signature(i)", lambda v: signature(P((2, 1)), v, 3), "residue", None),
    "good_box": ("good_box(i)", lambda v: good_box(P((2, 1)), v, 3), "residue", None),
    "cogood_box": ("cogood_box(i)", lambda v: cogood_box(P((2, 1)), v, 3), "residue", None),
    "e_tilde": ("e_tilde(i)", lambda v: e_tilde(P((2, 1)), v, 3), "residue", None),
    "f_tilde": ("f_tilde(i)", lambda v: f_tilde(P((2, 1)), v, 3), "residue", None),
    "epsilon": ("epsilon(i)", lambda v: epsilon(P((2, 1)), v, 3), "residue", None),
    "phi": ("phi(i)", lambda v: phi(P((2, 1)), v, 3), "residue", None),
    "crystal_graph": (
        "crystal_graph(d)", lambda v: crystal_graph(2, v), "max size",
        (-1, "max size must be >= 0, got -1"),
    ),
    "blocks": (
        "blocks(d)", lambda v: blocks(v, 2), "degree", (-1, "degree must be >= 0, got -1"),
    ),
    "casimir_scalar": (
        "casimir_scalar(n)", lambda v: casimir_scalar(P((1,)), v), "rank",
        (0, "rank 0 is smaller than the number of parts of [1]"),
    ),
    "x_eigenvalue": (
        "x_eigenvalue(n)", lambda v: x_eigenvalue(P((1,)), Box(1, 1), v, 0), "rank", None,
    ),
    "y_eigenvalue": (
        "y_eigenvalue(n)", lambda v: y_eigenvalue(P(), Box(1, 1), v, 0), "rank",
        (0, "rank 0 is smaller than the number of parts of [1]"),
    ),
    "eigenvalue_table": (
        "eigenvalue_table(n)", lambda v: eigenvalue_table(P(), v, 0), "rank",
        (0, "rank 0 must exceed the number of parts of []"),
    ),
    "SymPolynomial": (
        "SymPolynomial(num_vars)", lambda v: SymPolynomial(v), "number of variables",
        VARIABLES_LOW,
    ),
    "SymPolynomial.zero": (
        "SymPolynomial.zero(num_vars)", lambda v: SymPolynomial.zero(v), "number of variables",
        VARIABLES_LOW,
    ),
    "SymPolynomial.one": (
        "SymPolynomial.one(num_vars)", lambda v: SymPolynomial.one(v), "number of variables",
        VARIABLES_LOW,
    ),
    "schur": (
        "schur(n)", lambda v: schur(P((1,)), v), "number of variables", VARIABLES_LOW,
    ),
    "complete_homogeneous degree": (
        "complete_homogeneous(k)", lambda v: complete_homogeneous(v, 2), "degree", None,
    ),
    "complete_homogeneous variables": (
        "complete_homogeneous(n)", lambda v: complete_homogeneous(2, v), "number of variables",
        VARIABLES_LOW,
    ),
    "schur_jacobi_trudi": (
        "schur_jacobi_trudi(n)", lambda v: schur_jacobi_trudi(P((1,)), v),
        "number of variables", VARIABLES_LOW,
    ),
    "branch_r1": (
        "branch_r1(n)", lambda v: branch_r1(P((1,)), v), "number of variables",
        (0, "need n >= |p| = 1, got 0"),
    ),
    "pieri_mult": (
        "pieri_mult(n)", lambda v: pieri_mult(P((1,)), v), "number of variables",
        (0, "need n >= |p| = 1, got 0"),
    ),
    "HeckeElement": ("HeckeElement(n)", lambda v: HeckeElement(v), "rank", RANK_LOW),
    "HeckeElement.one": (
        "HeckeElement.one(n)", lambda v: HeckeElement.one(v), "rank", RANK_LOW,
    ),
    "HeckeElement.zero": (
        "HeckeElement.zero(n)", lambda v: HeckeElement.zero(v), "rank", RANK_LOW,
    ),
    "HeckeElement.scalar": (
        "HeckeElement.scalar(n)", lambda v: HeckeElement.scalar(2, v), "rank", RANK_LOW,
    ),
    "from_generator index": (
        "from_generator(index)", lambda v: from_generator("y", v, 2), "generator index",
        (0, "y index must be in 1..2, got 0"),
    ),
    "from_generator rank": (
        "from_generator(n)", lambda v: from_generator("y", 1, v), "rank",
        (0, "y index must be in 1..0, got 1"),
    ),
    "parse_expression": (
        "parse_expression(n)", lambda v: parse_expression("y1", v), "rank", RANK_LOW,
    ),
    "verify_relations": (
        "verify_relations(n)", lambda v: verify_relations(v), "rank",
        (1, "rank must be >= 2, got 1"),
    ),
    "run_verify": (
        "run_verify(d)", lambda v: run_verify("crystal", 2, v).json_dict(), "max size",
        (-1, "max size must be >= 0, got -1"),
    ),
    "run_verify seed": (
        "run_verify(seed)", lambda v: run_verify("crystal", 2, 1, v).json_dict(), "seed", None,
    ),
}

MODULI = {
    "check_modulus": ("check_modulus(e)", lambda v: check_modulus(v)),
    "canonical_residue": ("canonical_residue(e)", lambda v: canonical_residue(5, v)),
    "residue_window": ("residue_window(e)", lambda v: residue_window(v, 2)),
    "residue": ("residue(e)", lambda v: residue(Box(1, 3), v)),
    "i_corners": ("i_corners(e)", lambda v: i_corners(P((2, 1)), 1, v)),
    "residue_counts": ("residue_counts(e)", lambda v: residue_counts(P((2, 1)), v)),
    "m_count": ("m_count(e)", lambda v: m_count(P((2, 1)), 1, v)),
    "n_value": ("n_value(e)", lambda v: n_value(P((2, 1)), 1, v)),
    "core_and_weight": ("core_and_weight(e)", lambda v: core_and_weight(P((2, 1)), v)),
    "p_core": ("p_core(e)", lambda v: p_core(P((2, 1)), v)),
    "p_weight": ("p_weight(e)", lambda v: p_weight(P((2, 1)), v)),
    "apply_e": ("apply_e(e)", lambda v: apply_e(V, 1, v)),
    "apply_f": ("apply_f(e)", lambda v: apply_f(V, 1, v)),
    "apply_h": ("apply_h(e)", lambda v: apply_h(V, 1, v)),
    "weight": ("weight(e)", lambda v: weight(P((2, 1)), v)),
    "cartan_entry": ("cartan_entry(e)", lambda v: cartan_entry(2, 1, v)),
    "op_matrix": ("op_matrix(e)", lambda v: op_matrix("f", 1, v, 2)),
    "signature": ("signature(e)", lambda v: signature(P((2, 1)), 1, v)),
    "good_box": ("good_box(e)", lambda v: good_box(P((2, 1)), 1, v)),
    "cogood_box": ("cogood_box(e)", lambda v: cogood_box(P((2, 1)), 1, v)),
    "e_tilde": ("e_tilde(e)", lambda v: e_tilde(P((2, 1)), 1, v)),
    "f_tilde": ("f_tilde(e)", lambda v: f_tilde(P((2, 1)), 1, v)),
    "epsilon": ("epsilon(e)", lambda v: epsilon(P((2, 1)), 1, v)),
    "phi": ("phi(e)", lambda v: phi(P((2, 1)), 1, v)),
    "crystal_graph": ("crystal_graph(e)", lambda v: crystal_graph(v, 1)),
    "blocks": ("blocks(e)", lambda v: blocks(2, v)),
    "same_block": ("same_block(e)", lambda v: same_block(P((2,)), P((1, 1)), v)),
    "x_eigenvalue": ("x_eigenvalue(e)", lambda v: x_eigenvalue(P((2, 1)), Box(1, 2), 3, v)),
    "y_eigenvalue": ("y_eigenvalue(e)", lambda v: y_eigenvalue(P((2, 1)), Box(1, 3), 3, v)),
    "eigenvalue_table": ("eigenvalue_table(e)", lambda v: eigenvalue_table(P(), 1, v)),
    "run_verify": ("run_verify(e)", lambda v: run_verify("blocks", v, 2).json_dict()),
}

EXEMPT = {
    "Partition.row(r)": "_edit_row reads it at every corner edit, from the rim walk",
    "HeckeElement.scalar(value)": "a coefficient, which IntCombination checks as one",
}

# Public in their modules, not exported from the package, and covered all the same.
MODULE_ONLY = (eigenvalue_table,)


def _json_text(result):
    """The JSON text of a result, by its own writer where it has one; None if it has none."""
    if isinstance(result, list) and any(hasattr(x, "json_dict") for x in result):
        result = [x.json_dict() for x in result]  # the blocks of a degree
    if hasattr(result, "json_text"):
        return result.json_text()
    if hasattr(result, "json_dict"):
        result = result.json_dict()
    try:
        return json.dumps(result)
    except TypeError:  # no JSON form, such as a SymPolynomial
        return None


def _seen(call, value):
    """The repr and JSON text of the answer, or the type of the exception raised instead.

    ``==`` cannot tell ``True`` from 1; the repr and the JSON text can.
    """
    try:
        result = call(value)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return repr(result), _json_text(result)


def _int_parameters(name, obj):
    """The int-annotated parameters of a callable, each as ``name(parameter)``."""
    return {
        f"{name}({p.name})"
        for p in inspect.signature(obj).parameters.values()
        if p.annotation == "int"
    }


def _public_callables():
    """(name, callable) for each function exported by the package, and for the
    constructor, classmethods and methods of each exported class.

    A record (a ``NamedTuple``) checks nothing: it holds what the function
    that builds it passes, already checked.
    """
    for name in fockspace.__all__:
        obj = getattr(fockspace, name)
        if not isinstance(obj, type):
            if callable(obj):
                yield name, obj
            continue
        if issubclass(obj, tuple) and hasattr(obj, "_fields"):
            continue
        yield name, obj
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and isinstance(member, (classmethod, FunctionType)):
                yield f"{name}.{attr}", getattr(obj, attr)


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("value", [2.5, "3", None])
def test_a_non_int_is_refused_by_name(row, value):
    _, call, what, _ = ROWS[row]
    message = f"{what} must be an integer, got {value!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("row", ROWS)
def test_true_counts_as_one(row):
    _, call, _, _ = ROWS[row]
    assert _seen(call, True) == _seen(call, 1)


@pytest.mark.parametrize("row", [row for row, (*_, low) in ROWS.items() if low])
def test_a_value_below_the_bound_keeps_its_message(row):
    _, call, _, (value, message) = ROWS[row]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: casimir_scalar(P((1, 1)), True), "rank 1 is smaller than the number of parts of [1,1]"),
        (lambda: branch_r1(P((2,)), True), "need n >= |p| = 2, got 1"),
        (lambda: pieri_mult(P((2,)), True), "need n >= |p| = 2, got 1"),
    ],
    ids=["casimir_scalar", "branch_r1", "pieri_mult"],
)
def test_a_bound_message_quotes_the_kept_int(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("row", MODULI)
def test_false_counts_as_modulus_zero(row):
    _, call = MODULI[row]
    assert _seen(call, False) == _seen(call, 0)
    assert not isinstance(_seen(call, 0), type)  # 0 is a modulus, so there is an answer


@pytest.mark.parametrize("row", MODULI)
@pytest.mark.parametrize("value", [1, -1, True, 2.5])
def test_a_bad_modulus_is_refused(row, value):
    _, call = MODULI[row]
    message = f"modulus must be 0 or an integer >= 2, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_every_int_parameter_has_a_row_or_an_exemption():
    public = set().union(*(_int_parameters(name, obj) for name, obj in _public_callables()))
    module_only = set().union(*(_int_parameters(f.__name__, f) for f in MODULE_ONLY))
    covered = [param for param, *_ in ROWS.values()] + [param for param, _ in MODULI.values()]
    covered += EXEMPT
    assert len(covered) == len(set(covered)), "a parameter has two rows"
    assert public - set(covered) == set(), "int parameters with neither a row nor an exemption"
    assert set(covered) == public | module_only, "rows naming no int parameter"
