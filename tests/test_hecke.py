import itertools
import random

import pytest

from fockspace.hecke import (
    HeckeElement,
    all_reduced_words,
    compose,
    from_generator,
    identity_perm,
    multiply,
    parse_expression,
    reduced_word,
    simple_transposition,
    straighten_word_times_poly,
    verify_relations,
)


def gens(n):
    y = {k: from_generator("y", k, n) for k in range(1, n + 1)}
    t = {k: from_generator("t", k, n) for k in range(1, n)}
    return y, t


def test_from_generator_examples():
    y, t = gens(2)
    assert y[1].terms == {((1, 0), (1, 2)): 1}
    _, t3 = gens(3)
    assert t3[1].terms == {((0, 0, 0), (2, 1, 3)): 1}
    with pytest.raises(ValueError):
        from_generator("y", 3, 2)
    with pytest.raises(ValueError):
        from_generator("t", 2, 2)
    with pytest.raises(ValueError):
        from_generator("z", 1, 2)


def test_cross_relation_examples():
    y, t = gens(2)
    one = HeckeElement.one(2)
    assert t[1] * y[2] == y[1] * t[1] + one
    assert t[1] * y[1] == y[2] * t[1] - one
    assert t[1] * t[1] == one


def test_rank_mismatch():
    with pytest.raises(ValueError):
        multiply(HeckeElement.one(2), HeckeElement.one(3))


def test_permutation_helpers():
    assert identity_perm(3) == (1, 2, 3)
    assert simple_transposition(2, 3) == (1, 3, 2)
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    assert reduced_word((3, 2, 1)) in ([1, 2, 1], [2, 1, 2])
    assert sorted(all_reduced_words((3, 2, 1))) == [(1, 2, 1), (2, 1, 2)]
    assert list(all_reduced_words((1, 2, 3))) == [()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_relations(n):
    report = verify_relations(n)
    assert report and all(report.values())


def test_verify_relations_rank_too_small():
    with pytest.raises(ValueError):
        verify_relations(1)


def test_braid_relation_explicitly():
    _, t = gens(3)
    assert t[1] * t[2] * t[1] == t[2] * t[1] * t[2]


def random_basis_element(rng, n, max_degree=3):
    exps = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(n)] += 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return HeckeElement(n, {(tuple(exps), tuple(perm)): 1})


def test_associativity_on_seeded_random_triples():
    rng = random.Random(20240801)
    checked = 0
    for n in (2, 3, 4):
        for _ in range(40):
            a, b, c = (random_basis_element(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            checked += 1
    assert checked >= 100


def test_reduced_word_independence_s3():
    for perm in itertools.permutations((1, 2, 3)):
        words = list(all_reduced_words(perm))
        for exps in itertools.product(range(3), repeat=3):
            outcomes = {straighten_word_times_poly(w, exps, 3) for w in words}
            assert len(outcomes) == 1, (perm, exps)


def test_straightening_matches_multiply():
    for perm in itertools.permutations((1, 2, 3)):
        w_elt = HeckeElement(3, {((0, 0, 0), perm): 1})
        for exps in itertools.product(range(2), repeat=3):
            y_elt = HeckeElement(3, {(exps, identity_perm(3)): 1})
            assert straighten_word_times_poly(reduced_word(perm), exps, 3) == w_elt * y_elt


def test_y_degree_filtration():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(40):
            a, b = random_basis_element(rng, n), random_basis_element(rng, n)
            prod = a * b
            if prod:
                assert prod.y_degree() <= a.y_degree() + b.y_degree()


def test_subalgebras_embed():
    idp = identity_perm(3)
    ya = HeckeElement(3, {((2, 1, 0), idp): 3, ((0, 0, 1), idp): -1})
    yb = HeckeElement(3, {((1, 1, 1), idp): 2})
    assert all(w == idp for _, w in (ya * yb).terms)
    wa = HeckeElement(3, {((0, 0, 0), (2, 1, 3)): 1, ((0, 0, 0), (3, 2, 1)): 4})
    assert all(e == (0, 0, 0) for e, _ in (wa * wa).terms)


def elementary_sym_in_y(k, n):
    terms = {}
    for combo in itertools.combinations(range(n), k):
        exps = tuple(1 if j in combo else 0 for j in range(n))
        terms[(exps, identity_perm(n))] = 1
    return HeckeElement(n, terms)


def power_sum_in_y(k, n):
    terms = {}
    for j in range(n):
        exps = tuple(k if jj == j else 0 for jj in range(n))
        terms[(exps, identity_perm(n))] = 1
    return HeckeElement(n, terms)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_polynomials_in_y_are_central(n):
    """The Bernstein center: S_n-invariant y-polynomials commute with everything."""
    generators = [from_generator("t", i, n) for i in range(1, n)]
    generators += [from_generator("y", i, n) for i in range(1, n + 1)]
    centrals = [elementary_sym_in_y(k, n) for k in range(1, n + 1)]
    centrals += [power_sum_in_y(2, n), power_sum_in_y(3, n)]
    for z in centrals:
        for g in generators:
            assert z * g == g * z
    # a non-symmetric polynomial must fail, or this test checks nothing
    y1 = from_generator("y", 1, n)
    t1 = from_generator("t", 1, n)
    assert y1 * t1 != t1 * y1


def test_parse_expression():
    y, t = gens(2)
    one = HeckeElement.one(2)
    assert parse_expression("t1*y2*t1", 2) == t[1] * y[2] * t[1]
    assert parse_expression("t1*y2 - y1*t1", 2) == one
    assert parse_expression("2*y1 + (-3)*t1", 2) == 2 * y[1] - 3 * t[1]
    assert parse_expression("-y1", 2) == -y[1]
    assert parse_expression("(y1 + y2) * t1", 2) == (y[1] + y[2]) * t[1]
    assert parse_expression("5", 2) == HeckeElement.scalar(5, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "y", "q1", "y1 *", "(y1", "y1 y2", "t9*y1", "y1 + + y2"],
)
def test_parse_expression_errors(bad):
    with pytest.raises(ValueError):
        parse_expression(bad, 2)


@pytest.mark.parametrize("rank", [0, -1])
def test_parse_expression_rejects_rank_below_one(rank):
    with pytest.raises(ValueError, match="rank must be >= 1"):
        parse_expression("y1", rank)


def test_json_list_is_sorted_and_stable():
    y, t = gens(2)
    element = t[1] * y[2] * t[1]
    assert element.json_list() == [
        {"exponents": [0, 0], "permutation": [2, 1], "coeff": 1},
        {"exponents": [1, 0], "permutation": [1, 2], "coeff": 1},
    ]
