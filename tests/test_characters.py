import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import deadline, partition_strategy
from fockspace.characters import (
    SymPolynomial,
    _kostka,
    branch_r1,
    complete_homogeneous,
    pieri_mult,
    restrict_last_var,
    schur,
    schur_expand,
    schur_jacobi_trudi,
)
from fockspace.fock import op_matrix
from fockspace.partitions import (
    Partition,
    addable_boxes,
    add_box,
    partitions_up_to,
    removable_boxes,
    remove_box,
    residue_window,
)
from fockspace.verify import (
    _tableau_schur_terms,
    check_kostka_agree,
    check_schur_tableaux_agree,
    pieri_matrix,
    run_verify,
)

P = Partition


def test_a_scalar_that_is_not_an_integer_is_refused():
    s = schur(P((2, 1)), 2)
    assert 3 * s == s + s + s
    for scalar in (2.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            scalar * s


def test_sympolynomial_validation():
    with pytest.raises(ValueError):
        SymPolynomial(2, {(1, 0): 1})  # x_1 alone is not symmetric
    with pytest.raises(ValueError):
        SymPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        SymPolynomial(2, {(-1, -1): 1})
    poly = SymPolynomial(2, {(1, 0): 1, (0, 1): 1})
    assert poly.coefficient((1, 0)) == 1


def test_sympolynomial_ring_mismatch():
    with pytest.raises(ValueError):
        SymPolynomial.one(2) + SymPolynomial.one(3)


def test_schur_examples():
    assert schur(P((1,)), 2).terms == {(1, 0): 1, (0, 1): 1}
    assert schur(P((2, 1)), 2).terms == {(2, 1): 1, (1, 2): 1}
    assert schur(P((1, 1, 1)), 2).is_zero()
    assert schur(P(), 3) == SymPolynomial.one(3)


def test_restrict_examples():
    assert restrict_last_var(schur(P((1,)), 2)) == schur(P((1,)), 1)
    assert restrict_last_var(schur(P((2, 1)), 2)).is_zero()
    assert restrict_last_var(schur(P((2,)), 2)).terms == {(2,): 1}
    with pytest.raises(ValueError):
        restrict_last_var(SymPolynomial.one(0))


def test_branch_examples():
    assert branch_r1(P((1,)), 1) == [P()]
    assert branch_r1(P((2, 1)), 3) == [P((2,)), P((1, 1))]
    assert branch_r1(P((3,)), 3) == [P((2,))]
    with pytest.raises(ValueError):
        branch_r1(P((2, 1)), 2)


def test_pieri_examples():
    assert pieri_mult(P(), 1) == [P((1,))]
    assert pieri_mult(P((1,)), 2) == [P((2,)), P((1, 1))]
    assert pieri_mult(P((2, 1)), 3) == [P((3, 1)), P((2, 2)), P((2, 1, 1))]
    with pytest.raises(ValueError):
        pieri_mult(P((2, 1)), 2)


def test_pieri_row_cutoff():
    # with exactly |p| variables a pure column loses its below-the-column box
    assert pieri_mult(P((1, 1)), 2) == [P((2, 1))]


@pytest.mark.parametrize(
    "call, name, shape",
    [
        (lambda: schur((2, -1), 2), "schur", (2, -1)),
        (lambda: schur((1, 2), 2), "schur", (1, 2)),
        (lambda: branch_r1((2, 1), 3), "branch_r1", (2, 1)),
        (lambda: pieri_mult((2, 1), 3), "pieri_mult", (2, 1)),
    ],
    ids=["schur-negative", "schur-unsorted", "branch_r1", "pieri_mult"],
)
def test_a_character_refuses_a_shape_that_is_not_a_partition(call, name, shape):
    # a plain tuple is neither sorted nor checked: schur((2, -1), 2) had two terms
    with pytest.raises(TypeError, match=rf"^{name} asks for a Partition, got {re.escape(repr(shape))}$"):
        call()


def test_schur_stability_under_restriction():
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(6):
            if len(lam.parts) <= n - 1:
                assert restrict_last_var(schur(lam, n)) == schur(lam, n - 1)


def test_branching_rule_equals_tableau_enumeration():
    for n in range(8):
        for lam in partitions_up_to(7):
            assert schur(lam, n).terms == dict(_tableau_schur_terms(lam.parts, n))


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_characters_suite_checks_the_branching_rule(e):
    report = run_verify("characters", e, 8)
    (result,) = [r for r in report.results if r.name == "schur_tableaux_agree"]
    assert result.passed and result.params == {"max_size": 6, "max_vars": 4}


def test_schur_tableaux_agree_catches_a_dropped_term(monkeypatch):
    import fockspace.verify as verify_module

    def drop_second_term(shape, n):
        terms = sorted(schur(shape, n).terms.items())
        return SymPolynomial._trusted(dict(terms[:1] + terms[2:]), n)

    monkeypatch.setattr(verify_module, "schur", drop_second_term)
    assert check_schur_tableaux_agree(4, 4) == "lambda=[1], n=2"


def dominant_part(terms):
    return tuple((exps, c) for exps, c in terms if list(exps) == sorted(exps, reverse=True))


@settings(deadline=None)
@given(partition_strategy(max_size=7), st.integers(min_value=0, max_value=8))
def test_kostka_is_the_dominant_part_of_the_tableau_counts(lam, n):
    assert _kostka(lam.parts, n) == dominant_part(_tableau_schur_terms(lam.parts, n))


def test_characters_suite_checks_the_kostka_rows():
    report = run_verify("characters", 3, 8)
    (result,) = [r for r in report.results if r.name == "kostka_agree"]
    assert result.passed and result.params == {"max_size": 6, "max_vars": 6}


def test_kostka_agree_catches_rows_without_the_dominance_filter(monkeypatch):
    import fockspace.verify as verify_module

    # every exponent vector, dominant or not: the branching rule unfiltered
    monkeypatch.setattr(
        verify_module, "_kostka", lambda shape, n: tuple(sorted(schur(shape, n).terms.items()))
    )
    assert check_kostka_agree(6, 6) == "lambda=[1], n=2"


def test_a_dropped_schur_term_fails_both_schur_oracles(monkeypatch):
    import fockspace.verify as verify_module

    def drop_last_term(shape, n):
        return SymPolynomial._trusted(dict(sorted(schur(shape, n).terms.items())[:-1]), n)

    monkeypatch.setattr(verify_module, "schur", drop_last_term)
    failed = {
        r.name: r.counterexample for r in run_verify("characters", 3, 4).results if not r.passed
    }
    # kostka_agree reads _kostka against the tableau counts, not schur, so it passes
    assert failed == {
        "symmetry": "lambda=[1], n=2: not symmetric at (0, 1) <-> (1, 0)",
        "schur_tableaux_agree": "lambda=[], n=0",
        "jacobi_trudi": "lambda=[], n=0",
    }


def test_a_dropped_kostka_row_fails_both_kostka_oracles(monkeypatch):
    import fockspace.characters as characters_module
    import fockspace.verify as verify_module

    def drop_last_row(shape, n):
        return _kostka(shape, n)[:-1]

    monkeypatch.setattr(characters_module, "_kostka", drop_last_row)
    monkeypatch.setattr(verify_module, "_kostka", drop_last_row)
    failed = {
        r.name: r.counterexample for r in run_verify("characters", 3, 4).results if not r.passed
    }
    assert failed["schur_tableaux_agree"] == "lambda=[], n=0"
    assert failed["kostka_agree"] == "lambda=[], n=0"


def test_schur_in_1500_variables_has_one_term_per_variable():
    with deadline(30):
        poly = schur(P((1,)), 1500)
        assert len(poly.terms) == 1500
        assert set(poly.terms.values()) == {1}
        assert schur_expand(poly) == {P((1,)): 1}


def test_schur_matches_jacobi_trudi():
    for n in range(7):
        for lam in partitions_up_to(7):
            assert schur(lam, n) == schur_jacobi_trudi(lam, n)


def test_complete_homogeneous():
    h2 = complete_homogeneous(2, 2)
    assert h2.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert complete_homogeneous(0, 3) == SymPolynomial.one(3)
    assert complete_homogeneous(-1, 3).is_zero()
    assert complete_homogeneous(2, 2) == schur(P((2,)), 2)
    for k in (-1, 0, 2):
        with pytest.raises(ValueError, match="number of variables must be >= 0, got -1"):
            complete_homogeneous(k, -1)
    # every exponent vector of sum k once: C(n + k - 1, k) of them
    for k in range(7):
        for n in range(6):
            terms = complete_homogeneous(k, n).terms
            assert set(terms) == {e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k}
            assert set(terms.values()) <= {1}
            assert len(terms) == (math.comb(n + k - 1, k) if n else int(k == 0))


def test_schur_expand_roundtrip():
    poly = schur(P((2, 1)), 3) + 2 * schur(P((3,)), 3)
    assert schur_expand(poly) == {P((3,)): 2, P((2, 1)): 1}
    assert schur_expand(SymPolynomial.zero(3)) == {}


def test_schur_expand_rejects_an_uncancelled_leading_term(monkeypatch):
    import fockspace.characters as characters_module

    product = schur(P((1,)), 3) * schur(P((2, 1)), 3)
    monkeypatch.setattr(characters_module, "_kostka", lambda shape, n: _kostka(shape, n)[:-1])
    with deadline(30), pytest.raises(
        ArithmeticError, match=r"^s_\[3, 1\] does not cancel its leading term \(3, 1, 0\)$"
    ):
        schur_expand(product)


def test_schur_expand_rejects_a_row_above_its_leading_term(monkeypatch):
    import fockspace.characters as characters_module

    def with_a_larger_term(shape, n):
        return _kostka(shape, n) + (((9,) + (0,) * (n - 1), 1),)

    product = schur(P((1,)), 3) * schur(P((2, 1)), 3)
    monkeypatch.setattr(characters_module, "_kostka", with_a_larger_term)
    with deadline(30), pytest.raises(
        ArithmeticError, match=r"^s_\[3, 1\] leaves \(9, 0, 0\) above its leading term \(3, 1, 0\)$"
    ):
        schur_expand(product)


def test_schur_expand_rejects_a_leading_term_that_is_not_a_partition(monkeypatch):
    import fockspace.characters as characters_module

    def with_a_term_out_of_order(shape, n):
        return _kostka(shape, n) + (((0, 1, 3), 1),)

    product = schur(P((1,)), 3) * schur(P((2, 1)), 3)
    monkeypatch.setattr(characters_module, "_kostka", with_a_term_out_of_order)
    with deadline(30), pytest.raises(
        ArithmeticError, match=r"^leading exponent \(0, 1, 3\) is not a partition$"
    ):
        schur_expand(product)


def test_branch_matches_removable_boxes():
    for lam in partitions_up_to(5):
        for n in range(lam.size, 5):
            expected = sorted(
                (remove_box(lam, b) for b in removable_boxes(lam)), reverse=True
            )
            assert branch_r1(lam, n) == expected


def test_pieri_matches_addable_boxes():
    for lam in partitions_up_to(5):
        for n in range(max(lam.size, 1), 5):
            expected = sorted(
                (add_box(lam, b) for b in addable_boxes(lam) if b.row <= n),
                reverse=True,
            )
            assert pieri_mult(lam, n) == expected


def test_pieri_and_branch_do_not_depend_on_n_past_their_stable_range():
    for lam in partitions_up_to(6):
        assert pieri_mult(lam, 10**4) == pieri_mult(lam, lam.size + 1)
        assert branch_r1(lam, 10**4) == branch_r1(lam, lam.size)


@pytest.mark.parametrize("e", [0, 2, 3])
def test_pieri_matrix_equals_total_f_matrix(e):
    for d in range(5):
        total = None
        for i in residue_window(e, d):
            m = op_matrix("f", i, e, d)
            total = m if total is None else total + m
        assert total == pieri_matrix(d)


@given(partition_strategy(max_size=5), st.integers(min_value=1, max_value=4))
def test_schur_is_symmetric(lam, n):
    poly = schur(lam, n)
    SymPolynomial(n, poly.terms)


def hook_content_count(p, n):
    """Number of semistandard fillings via the hook-content formula."""
    from fractions import Fraction

    parts = p.parts
    conj = [0] * (parts[0] if parts else 0)
    for length in parts:
        for c in range(length):
            conj[c] += 1
    total = Fraction(1)
    for r, length in enumerate(parts, start=1):
        for c in range(1, length + 1):
            hook = (length - c) + (conj[c - 1] - r) + 1
            total *= Fraction(n + c - r, hook)
    assert total.denominator == 1
    return int(total)


def test_tableau_counts_match_hook_content_formula():
    for n in range(9):
        for lam in partitions_up_to(8):
            assert sum(schur(lam, n).terms.values()) == hook_content_count(lam, n)


def test_product_of_schurs_is_symmetric():
    prod = schur(P((2, 1)), 3) * schur(P((1, 1)), 3)
    SymPolynomial(3, prod.terms)
    total = sum(c for c in prod.terms.values())
    # dimension bookkeeping: products of monomial counts match
    s21 = sum(schur(P((2, 1)), 3).terms.values())
    s11 = sum(schur(P((1, 1)), 3).terms.values())
    assert total == s21 * s11
