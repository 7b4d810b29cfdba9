"""The Kac-Moody and Serre checks as graded matrix identities, against vector loops.

``check_commutators``, ``check_cartan_action`` and ``check_serre`` compare
products of ``op_matrix`` pieces.  The loops below apply the operators to
one basis vector at a time instead; they share only the operators and
``cartan_entry``.  Both forms must give the same verdict and name the same
first counterexample, also when a fault is injected into those operators.

The loops reach the operators through the ``fock`` module, and so does
``op_matrix``.  Both ``apply_e``/``apply_f`` and the e/f columns of
``op_matrix`` are built on ``fock._moves``, one basis partition at a time,
and ``apply_h`` and the h diagonal read ``fock.n_value``; a fault injected
into either is therefore seen by both forms.
"""

import pytest

import fockspace.fock as fock
import fockspace.verify as verify_module
from fockspace.fock import FockVector
from fockspace.partitions import Partition, partitions_of, partitions_up_to, residue_window
from fockspace.verify import check_cartan_action, check_commutators, check_serre

P = Partition


def loop_commutators(e, max_size):
    """[e_i, f_j] = delta_ij n_i on every basis vector of size <= max_size."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        v = FockVector.basis(lam)
        for i in window:
            ei_v = fock.apply_e(v, i, e)
            for j in window:
                lhs = fock.apply_e(fock.apply_f(v, j, e), i, e) - fock.apply_f(ei_v, j, e)
                rhs = (fock.n_value(lam, i, e) if i == j else 0) * v
                if lhs != rhs:
                    return f"lambda={lam}, i={i}, j={j}, e={e}"
    return None


def loop_cartan_action(e, max_size):
    """[h_i, e_j] = a_ij e_j on every basis vector of size <= max_size."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        v = FockVector.basis(lam)
        for j in window:
            ej_v = fock.apply_e(v, j, e)
            for i in window:
                lhs = fock.apply_h(ej_v, i, e) - fock.apply_e(fock.apply_h(v, i, e), j, e)
                rhs = fock.cartan_entry(i, j, e) * ej_v
                if lhs != rhs:
                    return f"lambda={lam}, i={i}, j={j}, e={e}"
    return None


def loop_serre(e, max_size):
    """ad(e_i)^{1 - a_ij}(e_j) annihilates every small basis vector."""
    window = residue_window(e, max_size)
    pairs = [(i, j, 1 - fock.cartan_entry(i, j, e)) for i in window for j in window if i != j]
    for lam in partitions_up_to(max_size):
        v = FockVector.basis(lam)
        for i, j, m in pairs:
            # sum_k (-1)^k C(m,k) e_i^{m-k} e_j e_i^k
            total = FockVector.zero()
            sign, binom = 1, 1
            for k in range(m + 1):
                term = v
                for _ in range(k):
                    term = fock.apply_e(term, i, e)
                term = fock.apply_e(term, j, e)
                for _ in range(m - k):
                    term = fock.apply_e(term, i, e)
                total = total + (sign * binom) * term
                sign = -sign
                binom = binom * (m - k) // (k + 1)
            if not total.is_zero():
                return f"lambda={lam}, i={i}, j={j}, e={e}"
    return None


FORMS = [
    ("commutator", check_commutators, loop_commutators),
    ("cartan_action", check_cartan_action, loop_cartan_action),
    ("serre_relation", check_serre, loop_serre),
]
MODULI = [0, 2, 3, 5]


def both_forms(e, max_size):
    """{check name: (matrix verdict, loop verdict)} for the three relation checks."""
    return {name: (matrix(e, max_size), loop(e, max_size)) for name, matrix, loop in FORMS}


@pytest.mark.parametrize("e", MODULI)
def test_matrix_and_loop_forms_pass_together(e):
    for d in range(7):
        assert both_forms(e, d) == {name: (None, None) for name, _, _ in FORMS}, d


def drop_e_image(monkeypatch, source, target):
    """e_i of v_source loses its v_target term, for the i that removes that box."""
    original = fock._moves

    def moves(p, i, e, step):
        out = original(p, i, e, step)
        return [q for q in out if q != target] if step < 0 and p == source else out

    monkeypatch.setattr(fock, "_moves", moves)


def shift_h(monkeypatch, *shifted):
    """h_i reads n_i + 1 on v_p for each (p, i) shifted."""
    original = fock.n_value
    monkeypatch.setattr(
        fock, "n_value", lambda p, i, e: original(p, i, e) + ((p, i) in shifted)
    )


def wrong_cartan_at_2(monkeypatch):
    """a_ij = -1 for i != j at e = 2, where the doubled bond gives -2."""
    original = fock.cartan_entry

    def entry(i, j, e):
        return -1 if e == 2 and (i - j) % 2 else original(i, j, e)

    monkeypatch.setattr(fock, "cartan_entry", entry)
    monkeypatch.setattr(verify_module, "cartan_entry", entry)


DROPS = [
    (lam, mu)
    for lam in partitions_up_to(4)
    for mu in sorted(
        {q for i in residue_window(0, 4) for q in fock.apply_e(FockVector.basis(lam), i, 0).terms}
    )
]


@pytest.mark.parametrize("e", MODULI)
@pytest.mark.parametrize("source, target", DROPS, ids=str)
def test_a_dropped_e_image_fails_both_forms_alike(monkeypatch, e, source, target):
    drop_e_image(monkeypatch, source, target)
    verdicts = both_forms(e, 6)
    assert all(matrix == loop for matrix, loop in verdicts.values()), verdicts
    assert verdicts["commutator"][0] is not None


@pytest.mark.parametrize("e", MODULI)
@pytest.mark.parametrize("source", partitions_up_to(4), ids=str)
def test_an_h_off_by_one_fails_both_forms_alike(monkeypatch, e, source):
    shift_h(monkeypatch, (source, 0))
    verdicts = both_forms(e, 6)
    assert all(matrix == loop for matrix, loop in verdicts.values()), verdicts
    assert verdicts["commutator"][0] == f"lambda={source}, i=0, j=0, e={e}"
    assert verdicts["serre_relation"] == (None, None)


@pytest.mark.parametrize("e", MODULI)
def test_a_wrong_cartan_entry_at_2_fails_both_forms_alike(monkeypatch, e):
    wrong_cartan_at_2(monkeypatch)
    for d in range(7):
        verdicts = both_forms(e, d)
        assert all(matrix == loop for matrix, loop in verdicts.values()), (d, verdicts)
        assert verdicts["commutator"] == (None, None)
    failing = {name for name, (matrix, _) in verdicts.items() if matrix is not None}
    assert failing == ({"cartan_action", "serre_relation"} if e == 2 else set())


@pytest.mark.parametrize(
    "shifted, named",
    [
        # (i, j) = (2, 2) at [3] comes before (-2, -2) at [1,1,1]
        (((P((3,)), 2), (P((1, 1, 1)), -2)), "lambda=[3], i=2, j=2, e=0"),
        (((P((1, 1, 1)), 2), (P((3,)), -2)), "lambda=[3], i=-2, j=-2, e=0"),
        # two failing pairs at one partition: the earlier pair
        (((P((2, 1)), 2), (P((2, 1)), -2)), "lambda=[2,1], i=-2, j=-2, e=0"),
    ],
)
def test_the_first_failure_named_is_the_loops_first(monkeypatch, shifted, named):
    shift_h(monkeypatch, *shifted)
    assert check_commutators(0, 4) == loop_commutators(0, 4) == named


def dense(m):
    """A SparseMatrix as a list of rows."""
    out = [[0] * len(m.cols) for _ in m.rows]
    for r, c, v in m.entries:
        out[r][c] = v
    return out


def dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def dense_of_columns(columns, n_rows, n_cols):
    """A matrix in the checks' column form as a list of rows; None is zero."""
    out = [[0] * n_cols for _ in range(n_rows)]
    for c, col in (columns or {}).items():
        for r, v in col.items():
            out[r][c] = v
    return out


@pytest.mark.parametrize("e", MODULI)
def test_column_products_match_dense_products(e):
    op = verify_module._op_columns(e)
    for d in range(1, 7):
        window = residue_window(e, d + 1)
        for i in window:
            for j in window:
                # (a, b) = (kind, residue, degree) of each factor; a follows b
                for a, b in [
                    (("e", i, d + 1), ("f", j, d)),
                    (("f", j, d - 1), ("e", i, d)),
                    (("h", i, d - 1), ("e", j, d)),
                    (("e", j, d), ("h", i, d)),
                    (("e", i, d - 1), ("e", j, d)),
                ]:
                    expected = dense_product(dense(fock.op_matrix(*a[:2], e, a[2])),
                                             dense(fock.op_matrix(*b[:2], e, b[2])))
                    got = verify_module._product(op(*a), op(*b))
                    # only nonzero columns, each with only nonzero entries
                    assert got is None or all(all(col.values()) for col in got.values()), (a, b)
                    shape = (len(expected), len(partitions_of(d)))
                    assert dense_of_columns(got, *shape) == expected, (a, b)
                    assert (got is None) == (not any(map(any, expected))), (a, b)


def test_the_first_failure_is_a_column_that_only_one_term_holds():
    """Column 0 cancels in every pair; column 2, then column 1, are held by one term only."""

    def relation(d):
        if d == 3:
            yield 0, 0, [(1, {0: {0: 1}, 2: {1: 1}}), (-1, {0: {0: 1}}), (1, None)]
            yield 1, 1, [(1, {0: {0: 1}}), (0, {1: {0: 5}}), (-1, {0: {0: 1}, 1: {0: 2}})]
            yield 2, 2, [(1, {0: {0: 1}}), (1, {0: {0: -1}})]

    assert verify_module._first_counterexample(0, 4, relation) == "lambda=[2,1], i=1, j=1, e=0"
