import functools
import itertools
import json
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockspace.cli import main
import fockspace.hecke as hecke_module
from fockspace.hecke import (
    MAX_NESTING,
    HeckeElement,
    _times_letter,
    all_reduced_words,
    from_generator,
    identity_perm,
    multiply,
    parse_expression,
    reduced_word,
    simple_transposition,
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
    for kind in ("y", "t"):
        assert from_generator(kind, True, 2) == from_generator(kind, 1, 2)
        for index in (1.5, 1.0, "1", None):
            message = f"generator index must be an integer, got {index!r}"
            with pytest.raises(TypeError, match=re.escape(message)):
                from_generator(kind, index, 2)


def test_cross_relation_examples():
    y, t = gens(2)
    one = HeckeElement.one(2)
    assert t[1] * y[2] == y[1] * t[1] + one
    assert t[1] * y[1] == y[2] * t[1] - one
    assert t[1] * t[1] == one


def test_rank_mismatch():
    with pytest.raises(ValueError):
        multiply(HeckeElement.one(2), HeckeElement.one(3))


def compose(w, v):
    """(w * v)(x) = w(v(x)): v acts first."""
    return tuple([w[x - 1] for x in v])


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


def word_times_poly(word, exps, n):
    """t_word[0] ... t_word[-1] * y^exps, one generator at a time through ``multiply``."""
    _, t = gens(n)
    y = HeckeElement(n, {(exps, identity_perm(n)): 1})
    return functools.reduce(lambda v, i: t[i] * v, reversed(word), y)


def test_reduced_word_independence_s3():
    for perm in itertools.permutations((1, 2, 3)):
        words = list(all_reduced_words(perm))
        for exps in itertools.product(range(3), repeat=3):
            outcomes = {word_times_poly(w, exps, 3) for w in words}
            assert len(outcomes) == 1, (perm, exps)


def test_straightening_matches_multiply():
    for perm in itertools.permutations((1, 2, 3)):
        w_elt = HeckeElement(3, {((0, 0, 0), perm): 1})
        for exps in itertools.product(range(2), repeat=3):
            y_elt = HeckeElement(3, {(exps, identity_perm(3)): 1})
            assert word_times_poly(reduced_word(perm), exps, 3) == w_elt * y_elt


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


# every refusal of the parser, by its exact message
PARSE_REFUSALS = {
    "": "empty expression",
    "   ": "empty expression",
    "y": "generator 'y' needs an index",
    "y+1": "generator 'y+' needs an index",
    "q1": "unexpected character 'q' in expression",
    "y1 *": "unexpected end of expression",
    "(y1": "unexpected end of expression",
    "--": "unexpected end of expression",
    "y1 y2": "trailing token 'y2' in expression",
    "y1)": "trailing token ')' in expression",
    "t9*y1": "transposition index must be in 1..1, got 9",
    "y1 + + y2": "unexpected token '+'",
    "()": "unexpected token ')'",
    "*y1": "unexpected token '*'",
    "(y1 y2)": "unbalanced parentheses",
    # a bad character anywhere comes first, then a letter without an index
    # in text order, then an empty text, then the parse
    "y ²": "unexpected character '²' in expression",
    "t y1 q": "unexpected character 'q' in expression",
    ")y": "generator 'y' needs an index",
    "y1 t y": "generator 't ' needs an index",
}


@pytest.mark.parametrize("bad", list(PARSE_REFUSALS))
def test_parse_expression_errors(bad):
    with pytest.raises(ValueError) as refused:
        parse_expression(bad, 2)
    assert str(refused.value) == PARSE_REFUSALS[bad]


@pytest.mark.parametrize("bad", ["y²", "2² * y1", "y1 + ３", "t١"])
def test_parse_expression_reads_only_ascii_digits(bad):
    (ch,) = [c for c in bad if c.isdigit() and not c.isascii()]
    with pytest.raises(ValueError, match=f"unexpected character '{ch}'"):
        parse_expression(bad, 2)


def test_parse_expression_nesting_bound():
    y, _ = gens(2)
    deepest = "(" * MAX_NESTING + "y1" + ")" * MAX_NESTING
    assert parse_expression(deepest, 2) == y[1]
    assert parse_expression("-" * MAX_NESTING + "y1", 2) == y[1]
    for too_deep in ["(" + deepest + ")", "-" * (MAX_NESTING + 1) + "y1", "-(" + deepest + ")"]:
        with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
            parse_expression(too_deep, 2)


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


def dict_oracle(element):
    """The JSON structure built a dict and two lists per term: json_text's oracle."""
    return [
        {"exponents": list(exps), "permutation": list(perm), "coeff": c}
        for (exps, perm), c in element.sorted_terms()
    ]


def json_text_cases():
    """Seeded elements at ranks 1-5, with negative coefficients and some past 2**64."""
    yield HeckeElement.zero(1)
    yield HeckeElement.zero(3)
    yield HeckeElement.one(1)
    yield HeckeElement.scalar(-(2**64) - 1, 1)
    rng = random.Random(26)
    for n in (1, 2, 3, 4, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for _ in range(10):
            element = seeded_factor(rng, n, rng.sample(perms, min(len(perms), 4)), (0, 1, 3))
            yield element
            yield rng.choice((-1, 1)) * (2**64 + rng.randrange(2**70)) * element
            yield element * seeded_factor(rng, n, [rng.choice(perms)], (1, 2))


def test_json_text_equals_the_dumped_dict_oracle():
    cases = list(json_text_cases())
    assert any(c < 0 for element in cases for c in element.terms.values())
    assert any(abs(c) > 2**64 for element in cases for c in element.terms.values())
    for element in cases:
        assert element.json_text() == json.dumps(dict_oracle(element)), element
        assert element.json_list() == dict_oracle(element)
    assert HeckeElement.zero(2).json_text() == "[]"


@pytest.mark.parametrize("rank", [sys.maxsize + 1, 2**64])
def test_parse_expression_rejects_a_rank_no_tuple_can_have(rank):
    with pytest.raises(ValueError, match=f"rank must be at most {sys.maxsize}, got {rank}"):
        parse_expression("t1", rank)


def test_a_scalar_that_is_not_an_integer_is_refused():
    y, _ = gens(2)
    assert 3 * y[1] == y[1] + y[1] + y[1]
    with pytest.raises(TypeError):
        2.5 * y[1]


# The oracle: straightening that peels one y factor per recursion step
# (t_i y_{i+1} f = y_i (t_i f) + f, t_i y_i f = y_{i+1} (t_i f) - f), and a
# product that straightens every pair of terms anew.  The closed-form divided
# difference and the per-call straightening of hecke.py must agree with it.


def slow_tau_times_monomial(i, exps, n):
    out = {}
    if exps[i] > 0:
        rest = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        for (e2, w), c in slow_tau_times_monomial(i, rest, n).items():
            bumped = e2[: i - 1] + (e2[i - 1] + 1,) + e2[i:]
            out[(bumped, w)] = out.get((bumped, w), 0) + c
        key = (rest, identity_perm(n))
        out[key] = out.get(key, 0) + 1
    elif exps[i - 1] > 0:
        rest = exps[: i - 1] + (exps[i - 1] - 1,) + exps[i:]
        for (e2, w), c in slow_tau_times_monomial(i, rest, n).items():
            bumped = e2[:i] + (e2[i] + 1,) + e2[i + 1:]
            out[(bumped, w)] = out.get((bumped, w), 0) + c
        key = (rest, identity_perm(n))
        out[key] = out.get(key, 0) - 1
    else:
        out[(exps, simple_transposition(i, n))] = 1
    return {t: c for t, c in out.items() if c}


def slow_word_times_poly(word, exps, n):
    terms = {(exps, identity_perm(n)): 1}
    for i in reversed(word):
        new = {}
        for (e2, u), c in terms.items():
            for (e3, u2), c2 in slow_tau_times_monomial(i, e2, n).items():
                key = (e3, compose(u2, u))
                new[key] = new.get(key, 0) + c * c2
        terms = {t: c for t, c in new.items() if c}
    return terms


def slow_multiply(a, b):
    n = a.n
    out = {}
    for (ea, w), ca in a.terms.items():
        for (eb, v), cb in b.terms.items():
            for (em, u), cm in slow_word_times_poly(reduced_word(w), eb, n).items():
                key = (tuple(x + y for x, y in zip(ea, em)), compose(u, v))
                out[key] = out.get(key, 0) + ca * cb * cm
    return HeckeElement(n, out)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_matches_peeling_for_exponents_up_to_4(n):
    for i in range(1, n):
        for exps in itertools.product(range(5), repeat=n):
            one = {(exps, identity_perm(n)): 1}
            assert _times_letter(i, one) == slow_tau_times_monomial(i, exps, n), (i, exps)


@st.composite
def element_pairs(draw):
    """Two elements of one rank 1-5 whose terms share a few permutations."""
    n = draw(st.integers(1, 5))
    perms = draw(st.lists(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=3))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.sampled_from(perms))
    a, b = (draw(st.dictionaries(term, st.integers(-3, 3), max_size=5)) for _ in range(2))
    return HeckeElement(n, a), HeckeElement(n, b)


@settings(max_examples=200, deadline=None)
@given(element_pairs())
@example((  # a right factor of pure permutations: w * y^0 needs no straightening
    HeckeElement(3, {((1, 0, 2), (2, 3, 1)): 2, ((0, 1, 0), (1, 2, 3)): -1}),
    HeckeElement(3, {((0, 0, 0), (3, 1, 2)): 1, ((0, 0, 0), (2, 1, 3)): 3}),
))
@example((  # right terms on one exponent vector: each w * y^eb is straightened once
    HeckeElement(3, {((0, 1, 0), (3, 2, 1)): 1, ((2, 0, 0), (2, 3, 1)): -2}),
    HeckeElement(3, {((1, 0, 2), (1, 2, 3)): 1, ((1, 0, 2), (3, 2, 1)): -2, ((1, 0, 2), (2, 1, 3)): 1}),
))
@example((  # rank 1: the only permutation has the empty word
    HeckeElement(1, {((2,), (1,)): 3}),
    HeckeElement(1, {((1,), (1,)): -1, ((0,), (1,)): 2}),
))
def test_multiply_matches_the_uncached_product(pair):
    a, b = pair
    assert multiply(a, b) == slow_multiply(a, b)


def seeded_factor(rng, n, perms, degrees):
    terms = {}
    for perm in perms:
        exps = [0] * n
        for _ in range(rng.choice(degrees)):
            exps[rng.randrange(n)] += 1
        terms[(tuple(exps), perm)] = rng.choice((-2, -1, 1, 3))
    return HeckeElement(n, terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_multiply_matches_the_oracle_on_seeded_pairs(n):
    """Left factors hold the longest permutation, right factors non-identity
    permutations (but at rank 1) on monomials of degree 2-3."""
    rng = random.Random(1000 + n)
    longest = tuple(range(n, 0, -1))
    others = [p for p in itertools.permutations(range(1, n + 1)) if p != identity_perm(n)]
    for _ in range(8):
        left = [longest] + [tuple(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(0, 3))]
        right = [rng.choice(others or [identity_perm(n)]) for _ in range(rng.randint(1, 4))]
        a = seeded_factor(rng, n, left, (0, 1, 2))
        b = seeded_factor(rng, n, right, (2, 3))
        assert multiply(a, b) == slow_multiply(a, b)


def test_a_memo_emptied_mid_product_leaves_the_product_unchanged(monkeypatch):
    n = 4
    a = HeckeElement(n, {
        ((k % 2, 0, 0, 0), perm): 1 for k, perm in enumerate(itertools.permutations(range(1, n + 1)))
    })
    b = parse_expression("y1*y2*y2 + y3*y4*y4 + 2*t1*t3*y3*y4*y1", n)
    letters = []

    def counted(i, terms):
        letters.append(i)
        return _times_letter(i, terms)

    monkeypatch.setattr(hecke_module, "_times_letter", counted)
    full = multiply(a, b)
    assert len(letters) == 23  # one letter per permutation but the identity
    assert full == slow_multiply(a, b)
    letters.clear()
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", n * 330)  # b and all 23 images: 447 terms
    assert multiply(a, b) == full
    assert len(letters) > 23  # images forgotten with the memo were built again


def peeled_oracle(q, base=100):
    """t_1 y_2^q at rank 2: the peeling oracle at exponent ``base``, then induction.

    Peeling one y_2 gives t_1 y_2^k = y_1 (t_1 y_2^(k-1)) + y_2^(k-1), so
    t_1 y_2^q = y_1^(q-base) (t_1 y_2^base) + sum over base <= k < q of y_1^(q-1-k) y_2^k.
    """
    out = {
        ((p + q - base, r), w): c
        for ((p, r), w), c in slow_tau_times_monomial(1, (0, base), 2).items()
    }
    for k in range(base, q):
        key = ((q - 1 - k, k), (1, 2))
        out[key] = out.get(key, 0) + 1
    return out


def test_a_large_exponent_straightens_without_recursion():
    q = 2000
    product = from_generator("t", 1, 2) * HeckeElement(2, {((0, q), (1, 2)): 1})
    assert len(product.terms) == q + 1
    assert product.terms == peeled_oracle(q)


def test_normal_form_command_straightens_a_large_exponent(capsys):
    q = 2000
    code = main(["hecke", "normal-form", "--rank", "2", "--expr", "t1*(" + "*".join(["y2"] * q) + ")"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    terms = json.loads(captured.out)
    assert len(terms) == q + 1
    got = {(tuple(t["exponents"]), tuple(t["permutation"])): t["coeff"] for t in terms}
    assert got == peeled_oracle(q)


def test_a_product_up_to_the_size_limit_is_built(monkeypatch):
    expected = parse_expression("(t1+y1)*(t1+y2)", 2)
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", 2 * len(expected.terms))
    assert parse_expression("(t1+y1)*(t1+y2)", 2) == expected
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", 2 * len(expected.terms) - 1)
    with pytest.raises(ValueError, match="terms times rank"):
        parse_expression("(t1+y1)*(t1+y2)", 2)


def test_a_product_past_the_size_limit_stops_before_it_is_complete(monkeypatch):
    a = parse_expression("(t1+y1)*(t2+y2)*(t1+y3)", 3)
    b = parse_expression("(t2+y1)*(t1+y2)", 3)
    full = len(multiply(a, b).terms)
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", 3 * 10)
    with pytest.raises(ValueError, match="at most 30 terms times rank") as info:
        multiply(a, b)
    built = int(re.search(r"got (\d+) terms at rank 3", str(info.value)).group(1))
    assert 10 < built < full  # checked after each term of a, not at the end


def test_a_one_term_left_factor_is_refused_before_the_product_is_built(monkeypatch):
    longest = parse_expression("t1*t2*t1*t3*t2*t1", 4)
    b = parse_expression("(t1+y1)*(t2+y2)*(t3+y3)*(t1+y4)", 4)
    full = len(multiply(longest, b).terms)
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", 4 * (full // 2))
    message = r"got (\d+) terms at rank 4 in one permutation of its left factor times its right factor"
    with pytest.raises(ValueError, match=message) as info:
        multiply(longest, b)
    assert int(re.search(message, str(info.value)).group(1)) < full  # a shorter image passed it


def test_a_sum_up_to_the_size_limit_is_built(monkeypatch):
    expected = parse_expression("y1 + y2 - y1*y2", 2)
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", 2 * 3)
    assert parse_expression("y1 + y2 - y1*y2", 2) == expected
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", 2 * 2)
    for expr in ("y1 + y2 - y1*y2", "y1 - y2 + y1*y2", "(y1 + y2 + t1) * 1"):
        with pytest.raises(ValueError, match=re.escape(
            "a sum may have at most 4 terms times rank, got 3 terms at rank 2 in the expression"
        )):
            parse_expression(expr, 2)


def test_normal_form_command_refuses_a_product_past_the_size_limit(monkeypatch, capsys):
    monkeypatch.setattr(hecke_module, "MAX_PRODUCT_SIZE", 1000)
    expr = "*".join(f"(t{m % 7 + 1}+y{m % 8 + 1})" for m in range(20))
    code = main(["hecke", "normal-form", "--rank", "8", "--expr", expr])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: a product may have at most 1000 terms times rank, got ")


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: HeckeElement(2, {((1,), (1, 2)): 1}), ValueError, "term ((1,), (1, 2)) does not have rank 2"),
        (lambda: HeckeElement(2, {((-1, 0), (1, 2)): 1}), ValueError, "negative exponent in (-1, 0)"),
        (lambda: HeckeElement(2, {((0, 0), (1, 1)): 1}), ValueError, "(1, 1) is not a permutation of 1..2"),
        (lambda: multiply(HeckeElement.one(2), 3), TypeError, "cannot multiply a HeckeElement by int"),
        (lambda: parse_expression("(y1 y2)", 2), ValueError, "unbalanced parentheses"),
        (lambda: reduced_word((3, 1)), ValueError, "(3, 1) is not a permutation of 1..2"),
        (lambda: reduced_word((2, 2, 1)), ValueError, "(2, 2, 1) is not a permutation of 1..3"),
        (lambda: reduced_word(("b", "a")), TypeError, "permutation entries must be integers, got ('b', 'a')"),
        (lambda: all_reduced_words((3, 1)), ValueError, "(3, 1) is not a permutation of 1..2"),
        (lambda: all_reduced_words((2, 2, 1)), ValueError, "(2, 2, 1) is not a permutation of 1..3"),
        (lambda: all_reduced_words(("b", "a")), TypeError, "permutation entries must be integers, got ('b', 'a')"),
    ],
    ids=[
        "wrong_rank", "negative_exponent", "not_a_permutation", "int_factor", "unbalanced",
        "reduced_word_out_of_range", "reduced_word_repeated", "reduced_word_non_int",
        "all_reduced_words_out_of_range", "all_reduced_words_repeated", "all_reduced_words_non_int",
    ],
)
def test_each_refusal_names_its_fault(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
