import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockspace.verify as verify_module
from conftest import large_partition_strategy, partition_strategy
from fockspace.fock import (
    FockVector,
    SparseMatrix,
    Weight,
    apply_e,
    apply_f,
    apply_h,
    cartan_entry,
    op_matrix,
    weight,
)
from fockspace.partitions import (
    MINUS,
    PLUS,
    Partition,
    add_box,
    i_corners,
    m_count,
    n_value,
    partitions_of,
    partitions_up_to,
    remove_box,
    residue_counts,
    residue_window,
)

P = Partition
basis = FockVector.basis


def test_vector_arithmetic_strips_zeros():
    v = basis(P((2,))) - basis(P((2,)))
    assert v.is_zero() and not v
    v = 2 * basis(P((1,))) + basis(P((2,)))
    assert v.coefficient(P((1,))) == 2
    assert (-v).coefficient(P((2,))) == -1


def test_apply_f_examples():
    assert apply_f(basis(P()), 0, 3) == basis(P((1,)))
    assert apply_f(basis(P((2,))), 2, 3) == basis(P((3,))) + basis(P((2, 1)))
    assert apply_f(basis(P((2,))), 0, 3).is_zero()


def test_apply_e_examples():
    assert apply_e(basis(P()), 0, 2).is_zero()
    assert apply_e(basis(P((2, 1))), 2, 3) == basis(P((2,)))
    assert apply_e(basis(P((3, 1))), 2, 3) == basis(P((2, 1))) + basis(P((3,)))


def test_apply_h_examples():
    assert apply_h(basis(P()), 0, 5) == basis(P())
    assert apply_h(basis(P((2, 1))), 2, 3).is_zero()
    assert apply_h(basis(P((1,))), 0, 2) == -1 * basis(P((1,)))


def test_weight_examples():
    assert weight(P(), 3) == Weight(3, ())
    assert weight(P((2, 1)), 3).json_dict() == {"0": 1, "1": 1, "2": 1}
    assert weight(P((2,)), 2) == weight(P((1, 1)), 2)
    assert weight(P((2,)), 0) != weight(P((1, 1)), 0)


def test_weight_total_is_size():
    for e in (2, 3, 5):
        for lam in partitions_up_to(7):
            assert sum(m for _, m in weight(lam, e).alpha) == lam.size


def test_op_matrix_examples():
    m = op_matrix("f", 0, 2, 0)
    assert m.json_dict() == {"rows": ["[1]"], "cols": ["[]"], "entries": [[0, 0, 1]]}

    m = op_matrix("e", 2, 3, 3)
    cols, rows = list(m.cols), list(m.rows)
    column = [(r, v) for r, c, v in m.entries if c == cols.index(P((2, 1)))]
    assert column == [(rows.index(P((2,))), 1)]

    m = op_matrix("h", 0, 3, 0)
    assert m.entries == ((0, 0, 1),)


def test_op_matrix_bad_arguments():
    with pytest.raises(ValueError):
        op_matrix("x", 0, 2, 1)
    with pytest.raises(ValueError):
        op_matrix("e", 0, 2, -1)
    with pytest.raises(ValueError):
        op_matrix("e", 0, 1, 2)


def test_op_matrix_refuses_a_kind_that_is_not_a_string():
    with pytest.raises(ValueError, match="^operator kind must be one of e, f, h, got 5$"):
        op_matrix(5, 0, 3, 2)


def test_op_matrix_refuses_an_unhashable_kind_as_any_other_kind():
    with pytest.raises(ValueError, match=r"^operator kind must be one of e, f, h, got \['e'\]$"):
        op_matrix(["e"], 0, 2, 1)


def test_matrix_add_requires_matching_bases():
    a = op_matrix("f", 0, 2, 1)
    b = op_matrix("f", 0, 2, 2)
    with pytest.raises(ValueError):
        a + b


def _oracle_column(p, kind, i, e):
    """{image: coeff} of v_p, from the boxes of content = i (mod e) and the checked constructor.

    e and f edit a row by -1 or +1 when the box that moves there, (r, p_r) or
    (r, p_r + 1), has content = i, and keep what ``Partition(...)`` accepts;
    h counts the boxes of each residue one box at a time.
    """
    def same(c, j):
        return (c - j) % e == 0 if e else c == j

    if kind == "h":
        m = {j: sum(same(b.col - b.row, j) for b in p.boxes()) for j in (i - 1, i, i + 1)}
        return {p: m[i - 1] + m[i + 1] - 2 * m[i] + same(0, i)}
    step = 1 if kind == "f" else -1
    out = {}
    for r in range(1, len(p) + 2):
        rows = list(p.parts) + [0]
        col = rows[r - 1] + (step > 0)
        if col < 1 or not same(col - r, i):
            continue
        rows[r - 1] += step
        while rows and rows[-1] == 0:
            rows.pop()
        try:
            out[P(rows)] = 1
        except ValueError:
            pass
    return out


@pytest.mark.parametrize("e", [0, 2, 3, 5])
@pytest.mark.parametrize("kind", ["e", "f", "h"])
def test_op_matrix_equals_the_brute_force_columns(e, kind):
    for d in range(11):
        cols = partitions_of(d)
        rows = partitions_of(d + {"e": -1, "f": 1, "h": 0}[kind])
        row_index = {q: k for k, q in enumerate(rows)}
        for i in residue_window(e, d):
            entries = {
                (row_index[q], c): coeff
                for c, p in enumerate(cols)
                for q, coeff in _oracle_column(p, kind, i, e).items()
            }
            assert op_matrix(kind, i, e, d) == SparseMatrix.build(rows, cols, entries), (d, i)


def test_e_f_matrices_are_transposes():
    for e in (0, 2, 3):
        for d in range(1, 6):
            for i in residue_window(e, d):
                assert op_matrix("e", i, e, d) == op_matrix("f", i, e, d - 1).transpose()


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_commutator_relation(e):
    for lam in partitions_up_to(5):
        v = basis(lam)
        for i in residue_window(e, 5):
            for j in residue_window(e, 5):
                lhs = apply_e(apply_f(v, j, e), i, e) - apply_f(apply_e(v, i, e), j, e)
                rhs = (n_value(lam, i, e) if i == j else 0) * v
                assert lhs == rhs, (lam, i, j)


@pytest.mark.parametrize("e", [0, 2, 3])
def test_weight_ladder(e):
    for lam in partitions_up_to(5):
        for i in residue_window(e, 5):
            for mu in apply_f(basis(lam), i, e).terms:
                assert m_count(mu, i, e) == m_count(lam, i, e) + 1
            for mu in apply_e(basis(lam), i, e).terms:
                assert m_count(mu, i, e) == m_count(lam, i, e) - 1


def test_cartan_entries():
    assert cartan_entry(0, 0, 0) == 2
    assert cartan_entry(0, 1, 0) == -1
    assert cartan_entry(0, 2, 0) == 0
    assert cartan_entry(0, 1, 2) == -2
    assert cartan_entry(0, 4, 5) == -1
    assert cartan_entry(2, 0, 3) == -1
    assert cartan_entry(0, 2, 5) == 0


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_n_value_matches_cartan_pairing(e):
    window = residue_window(e, 5)
    for lam in partitions_up_to(5):
        for i in window:
            pairing = (1 if i % e == 0 else 0) if e else (1 if i == 0 else 0)
            pairing -= sum(m_count(lam, j, e) * cartan_entry(i, j, e) for j in window)
            assert pairing == n_value(lam, i, e)


@settings(deadline=None)
@given(large_partition_strategy(200), st.sampled_from([0, 2, 3, 5]))
def test_n_value_matches_cartan_pairing_on_large_partitions(lam, e):
    counts = residue_counts(lam, e)  # zero off its keys, so the pairing sums over them only
    for i in residue_window(e, lam.size):
        pairing = (1 if i == 0 else 0) - sum(m * cartan_entry(i, j, e) for j, m in counts.items())
        assert pairing == n_value(lam, i, e), (lam, i, e)


def test_cartan_pairing_names_an_n_value_that_counts_only_addable_corners(monkeypatch):
    def addable_only(p, i, e):
        return sum(1 for sign, _ in i_corners(p, i, e) if sign == PLUS)

    monkeypatch.setattr(verify_module, "n_value", addable_only)
    assert verify_module.check_cartan_pairing(3, 4) == "lambda=[1], i=0, e=3"


def test_the_constructor_still_rejects_keys_that_are_not_partitions():
    with pytest.raises(TypeError, match=r"keys must be partitions, got \(2, 1\)"):
        FockVector({(2, 1): 1})


vectors = st.dictionaries(partition_strategy(5), st.integers(-3, 3), max_size=6)


def _checked_sum(*scaled):
    """sum(k * v) built term by term and passed through the checked constructor."""
    out = {}
    for k, terms in scaled:
        for p, c in terms.items():
            out[p] = out.get(p, 0) + k * c
    return FockVector(out)


def _is_checked(v):
    return all(type(p) is Partition and type(c) is int and c for p, c in v.terms.items())


@given(vectors, vectors, st.integers(-3, 3), st.sampled_from([0, 2, 3, 5]), st.integers(-6, 6))
def test_trusted_results_equal_the_checked_constructor(a, b, k, e, i):
    va, vb = FockVector(a), FockVector(b)
    assert FockVector._trusted(a) == va and FockVector._trusted(a).terms == va.terms
    moved = {}
    for step, sign, edit in ((1, PLUS, add_box), (-1, MINUS, remove_box)):
        moved[step] = {}
        for p, c in va.terms.items():
            for corner, box in i_corners(p, i, e):
                if corner == sign:
                    q = edit(p, box)
                    moved[step][q] = moved[step].get(q, 0) + c
    results = [
        (va + vb, _checked_sum((1, a), (1, b))),
        (va - vb, _checked_sum((1, a), (-1, b))),
        (k * va, _checked_sum((k, a))),
        (-va, _checked_sum((-1, a))),
        (apply_f(va, i, e), FockVector(moved[1])),
        (apply_e(va, i, e), FockVector(moved[-1])),
        (apply_h(va, i, e), FockVector({p: n_value(p, i, e) * c for p, c in a.items()})),
    ]
    for trusted, checked in results:
        assert trusted.terms == checked.terms and _is_checked(trusted)


def test_a_scalar_that_is_not_an_integer_is_refused():
    with pytest.raises(TypeError):
        0.5 * basis(P((1,)))


def test_weight_keeps_a_bool_modulus_as_its_int():
    p = Partition((2, 1))
    assert type(weight(p, False).modulus) is int
    assert weight(p, False) == weight(p, 0) and weight(p, False).modulus == 0
    with pytest.raises(ValueError):
        weight(p, True)
