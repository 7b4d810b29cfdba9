"""The integer-combination arithmetic shared by FockVector, SymPolynomial and HeckeElement."""

import copy
import json
import pickle
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import partition_strategy
from fockspace.characters import SymPolynomial, schur
from fockspace.fock import FockVector
from fockspace.hecke import HeckeElement
from fockspace.partitions import Partition

P = Partition
coefficients = st.integers(-3, 3)


def _schur_combination(coeffs):
    total = SymPolynomial.zero(3)
    for p, k in coeffs.items():
        total = total + k * schur(p, 3)
    return total


ELEMENTS = {
    "FockVector": st.dictionaries(partition_strategy(5), coefficients, max_size=6).map(FockVector),
    "SymPolynomial": st.dictionaries(
        partition_strategy(4).filter(lambda p: len(p) <= 3), coefficients, max_size=4
    ).map(_schur_combination),
    "HeckeElement": st.dictionaries(
        st.tuples(
            st.tuples(*[st.integers(0, 2)] * 3), st.sampled_from(list(permutations((1, 2, 3))))
        ),
        coefficients,
        max_size=6,
    ).map(lambda terms: HeckeElement(3, terms)),
}


def _is_checked(x):
    return all(type(c) is int and c for c in x.terms.values())


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@given(data=st.data(), k=coefficients)
def test_the_module_axioms_hold_for_every_type(kind, data, k):
    a, b = data.draw(ELEMENTS[kind]), data.draw(ELEMENTS[kind])
    zero = a - a
    results = [a + b, (a + b) - b, k * (a + b), a * k, -a, zero]
    assert a + b == b + a
    assert (a + b) - b == a
    assert k * (a + b) == k * a + k * b
    assert a * k == k * a
    assert -a == (-1) * a
    assert not zero and zero.is_zero() and zero + a == a
    # equal elements built in another term order hash alike
    reordered = type(a)._trusted(dict(reversed(a.terms.items())), a.ring)
    assert reordered == a and hash(reordered) == hash(a) == hash((a + b) - b)
    assert all(type(x) is type(a) and x.ring == a.ring and _is_checked(x) for x in results)


FOCK = FockVector({P((2, 1)): 2, P((1,)): -1})
SYM = schur(P((2, 1)), 2)
HECKE = HeckeElement(2, {((1, 0), (2, 1)): 3, ((0, 0), (1, 2)): -1})

OPERANDS = {
    "FockVector * 3": (lambda: FOCK * 3, lambda: 3 * FOCK),
    "SymPolynomial * 3": (lambda: SYM * 3, lambda: 3 * SYM),
    "HeckeElement * 3": (lambda: HECKE * 3, lambda: 3 * HECKE),
    "HeckeElement * True": (lambda: HECKE * True, lambda: HECKE),
    "-SymPolynomial": (lambda: -SYM, lambda: (-1) * SYM),
    "FockVector * 2.5": (lambda: FOCK * 2.5, TypeError),
    "SymPolynomial * 2.5": (lambda: SYM * 2.5, TypeError),
    "HeckeElement * 2.5": (lambda: HECKE * 2.5, TypeError),
    "2.5 * SymPolynomial": (lambda: 2.5 * SYM, TypeError),
    "SymPolynomial * HeckeElement": (lambda: SYM * HeckeElement.one(2), TypeError),
    "HeckeElement * SymPolynomial": (lambda: HECKE * SYM, TypeError),
    "FockVector * FockVector": (lambda: FOCK * FOCK, TypeError),
    "FockVector + SymPolynomial": (lambda: FockVector.basis(P((2, 1))) + SYM, TypeError),
    "SymPolynomial - HeckeElement": (lambda: SYM - HECKE, TypeError),
    "HeckeElement + 1": (lambda: HECKE + 1, TypeError),
    "SymPolynomial + other variable count": (lambda: SYM + schur(P((2, 1)), 3), ValueError),
    "SymPolynomial * other variable count": (lambda: SYM * schur(P((2, 1)), 3), ValueError),
    "HeckeElement - other rank": (lambda: HECKE - HeckeElement.one(3), ValueError),
    "HeckeElement * other rank": (lambda: HECKE * HeckeElement.one(3), ValueError),
}


@pytest.mark.parametrize("case", list(OPERANDS))
def test_right_and_mixed_operands(case):
    operation, expected = OPERANDS[case]
    if isinstance(expected, type):
        with pytest.raises(expected):
            operation()
    else:
        assert operation() == expected()


@pytest.mark.parametrize(
    "build",
    [
        lambda: FockVector({P((2, 1)): 2.5}),
        lambda: SymPolynomial(1, {(1,): 2.7}),
        lambda: HeckeElement(2, {((0, 0), (1, 2)): 1.9}),
        lambda: FockVector({P((2, 1)): "3"}),
    ],
    ids=["FockVector 2.5", "SymPolynomial 2.7", "HeckeElement 1.9", "FockVector '3'"],
)
def test_a_coefficient_that_is_not_an_int_is_refused_not_rounded(build):
    with pytest.raises(TypeError, match="coefficients must be integers"):
        build()


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SymPolynomial(2, {(1.5, 1.5): 1}), "exponents must be integers"),
        (lambda: HeckeElement(2, {((0.5, 0), (1, 2)): 1}), "term entries must be integers"),
        (lambda: HeckeElement(2, {((0, 0), (1.0, 2.0)): 1}), "term entries must be integers"),
    ],
    ids=["SymPolynomial exponent 1.5", "HeckeElement exponent 0.5", "HeckeElement permutation 1.0"],
)
def test_a_key_entry_that_is_not_an_int_is_refused(build, match):
    with pytest.raises(TypeError, match=match):
        build()


def test_bool_key_entries_count_as_ints():
    assert SymPolynomial(1, {(True,): 1}) == SymPolynomial(1, {(1,): 1})
    assert HeckeElement(2, {((True, 0), (2, True)): 1}) == HeckeElement(2, {((1, 0), (2, 1)): 1})


def test_bool_key_entries_are_stored_as_ints():
    hecke = HeckeElement(2, {((True, 0), (2, True)): 1})
    assert json.dumps(hecke.json_list()) == '[{"exponents": [1, 0], "permutation": [2, 1], "coeff": 1}]'
    assert repr(SymPolynomial(1, {(True,): 1})) == "SymPolynomial(1, 1*x^[1])"


def test_int_and_bool_coefficients_are_kept_as_ints():
    built = [
        FockVector({P((2, 1)): True, P((1,)): 3, P((2,)): False}),
        SymPolynomial(1, {(1,): True, (0,): -2}),
        HeckeElement(2, {((0, 0), (1, 2)): True, ((1, 0), (2, 1)): 4}),
    ]
    assert [x.terms for x in built] == [
        {P((2, 1)): 1, P((1,)): 3},
        {(1,): 1, (0,): -2},
        {((0, 0), (1, 2)): 1, ((1, 0), (2, 1)): 4},
    ]
    assert all(_is_checked(x) for x in built)


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@given(data=st.data())
def test_a_combination_cannot_be_changed_after_it_is_built(kind, data):
    x = data.draw(ELEMENTS[kind])
    before, h = dict(x.terms), hash(x)
    key = next(iter(before), P((1,)))
    for change in (
        lambda: setattr(x, "ring", 7),
        lambda: setattr(x, "terms", {}),
        lambda: delattr(x, "terms"),
        lambda: x.terms.__setitem__(key, 5),
        lambda: x.terms.pop(key),
    ):
        with pytest.raises((AttributeError, TypeError)):
            change()
    assert x.terms == before and hash(x) == h and x in {x: 0}


def test_a_hashed_vector_and_a_schur_polynomial_stay_as_built():
    p = P((2, 1))
    v, s = FockVector({p: 1}), schur(p, 2)
    h = hash(v)
    with pytest.raises(TypeError):
        v.terms[p] = 5
    with pytest.raises(AttributeError):
        s.ring = 3
    v.__init__({p: 5})  # construction happens in __new__; nothing to redo
    assert (hash(v), v in {v: 0}, v.coefficient(p), s.num_vars) == (h, True, 1, 2)
    assert {p: 1} == v.terms == {p: 1}


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@given(data=st.data())
def test_copied_and_pickled_combinations_are_equal_and_frozen(kind, data):
    x = data.draw(ELEMENTS[kind])
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and y.ring == x.ring
        with pytest.raises(AttributeError):
            y.ring = None
