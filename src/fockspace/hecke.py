"""The degenerate affine Hecke algebra in PBW normal form.

Elements are integer combinations of y^a * w with the polynomial part on
the left and the permutation on the right.  The defining relations

    t_i y_{i+1} = y_i t_i + 1
    t_i y_i     = y_{i+1} t_i - 1
    t_i y_j     = y_j t_i          for j not in {i, i+1}

say, for any polynomial f, that t_i f = (s_i f) t_i + d_i(f), where s_i
swaps y_i and y_{i+1} and d_i(f) = (f - s_i f) / (y_{i+1} - y_i) is the
divided difference.  On a monomial with p = a_i and q = a_{i+1}, d_i is a
geometric sum: sign(q - p) times |q - p| monomials, with no recursion.  A
letter acts on a term by t_i y^a u = y^{s_i a} (s_i u) + d_i(y^a) u, where
s_i u swaps the values i and i+1 of u.  A product a * b lets each
permutation w of a act on the whole of b: within one call the images
w * b are memoised, each built one letter from a shorter one, and a term
y^ea * w of a only shifts the exponents of its image.

Permutations are stored in one-line notation; the product w * v means
"apply v first".
"""

from __future__ import annotations

import json
import sys
from itertools import repeat
from operator import add
from typing import Callable, Iterator, Mapping

from .combination import IntCombination
from .partitions import _check_int

Perm = tuple[int, ...]
Exps = tuple[int, ...]
Term = tuple[Exps, Perm]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def simple_transposition(i: int, n: int) -> Perm:
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index must be in 1..{n - 1}, got {i}")
    line = list(range(1, n + 1))
    line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def _check_perm(w: Perm) -> None:
    """Raise unless w lists 1..len(w) in some order: TypeError for a non-int entry."""
    if not all(map(isinstance, w, repeat(int))):
        raise TypeError(f"permutation entries must be integers, got {w!r}")
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")


def reduced_word(w: Perm) -> list[int]:
    """One reduced word for w, peeled off right descents."""
    _check_perm(w)
    line = list(w)
    peeled = []
    while True:
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                peeled.append(i + 1)
                break
        else:
            return list(reversed(peeled))


def all_reduced_words(w: Perm) -> Iterator[tuple[int, ...]]:
    """Every reduced word of w (exponential; meant for small ranks)."""
    _check_perm(w)
    return _reduced_words(tuple(w))


def _reduced_words(w: Perm) -> Iterator[tuple[int, ...]]:
    """Every reduced word of the permutation w, which is the identity when it has no descent."""
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    if not descents:
        yield ()
    for i in descents:
        shorter = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
        yield from (word + (i,) for word in _reduced_words(shorter))


class HeckeElement(IntCombination):
    """An integer combination of normal-form basis elements y^a * w."""

    __slots__ = ()
    _MISMATCH = "rank mismatch: {} vs {}"

    def __new__(cls, n: int, terms: Mapping[Term, int] | None = None):
        n = _check_int(n, "rank", 1)
        return super().__new__(cls, terms, n)

    @property
    def n(self) -> int:
        return self.ring

    def _checked_key(self, term: Term) -> Term:
        exps, perm = term
        n = self.ring
        if len(exps) != n or len(perm) != n:
            raise ValueError(f"term {(exps, perm)} does not have rank {n}")
        if not all(map(isinstance, (*exps, *perm), repeat(int))):
            raise TypeError(f"term entries must be integers, got {term!r}")
        if any(x < 0 for x in exps):
            raise ValueError(f"negative exponent in {exps}")
        _check_perm(perm)
        return (tuple(map(int, exps)), tuple(map(int, perm)))  # a bool entry as its int

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        return cls.scalar(1, n)

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n)

    @classmethod
    def scalar(cls, value: int, n: int) -> "HeckeElement":
        return cls(_check_int(n, "rank", 1), {((0,) * n, identity_perm(n)): value})

    def y_degree(self) -> int:
        """Maximal total y-degree over the support; -1 for zero."""
        return max((sum(exps) for exps, _ in self.terms), default=-1)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if type(other) is not HeckeElement:
            return self.__rmul__(other)  # an int scalar, or NotImplemented
        return multiply(self, other)

    def sorted_terms(self) -> list[tuple[Term, int]]:
        return sorted(self.terms.items())

    def json_text(self) -> str:
        """The sorted terms as JSON, laid out as ``json.dumps`` lays it out.

        Each term is ``{"exponents": [...], "permutation": [...], "coeff": c}``;
        every value is an int or a list of ints, so nothing needs escaping.
        """
        return "[" + ", ".join(
            f'{{"exponents": {list(exps)}, "permutation": {list(perm)}, "coeff": {c}}}'
            for (exps, perm), c in self.sorted_terms()
        ) + "]"

    def json_list(self) -> list[dict]:
        return json.loads(self.json_text())

    def __repr__(self) -> str:
        if not self.terms:
            return f"HeckeElement(n={self.n}, 0)"
        body = " + ".join(
            f"{c}*y^{list(e)}*{list(w)}" for (e, w), c in self.sorted_terms()
        )
        return f"HeckeElement(n={self.n}, {body})"


def from_generator(kind: str, index: int, n: int) -> HeckeElement:
    """The generator y_index (kind 'y') or t_index (kind 't') at rank n."""
    index = _check_int(index, "generator index")
    n = _check_int(n, "rank")
    if kind == "y":
        if not 1 <= index <= n:
            raise ValueError(f"y index must be in 1..{n}, got {index}")
        exps = tuple(1 if k == index - 1 else 0 for k in range(n))
        return HeckeElement._trusted({(exps, identity_perm(n)): 1}, n)
    if kind == "t":
        return HeckeElement._trusted({((0,) * n, simple_transposition(index, n)): 1}, n)
    raise ValueError(f"generator kind must be 'y' or 't', got {kind!r}")


def _times_letter(i: int, terms: Mapping[Term, int]) -> dict[Term, int]:
    """t_i times a combination of terms y^a * u, in normal form.

    With p = a_i, q = a_{i+1} and lo, hi = sorted((p, q)), d_i(y^a) is
    sign(q - p) times the monomials with entries (hi - 1 - k, lo + k) at
    i-1 and i, for k < hi - lo.
    """
    new: dict[Term, int] = {}
    for (a, u), c in terms.items():
        p, q = a[i - 1], a[i]
        head, tail = a[: i - 1], a[i + 1:]
        swapped = list(u)
        swapped[u.index(i)], swapped[u.index(i + 1)] = i + 1, i
        key = (head + (q, p) + tail, tuple(swapped))
        new[key] = new.get(key, 0) + c
        lo, hi, sign = (p, q, c) if p < q else (q, p, -c)
        for k in range(hi - lo):
            key = (head + (hi - 1 - k, lo + k) + tail, u)
            new[key] = new.get(key, 0) + sign
    return {t: c for t, c in new.items() if c}


MAX_PRODUCT_SIZE = 400_000
"""Most terms times rank a product, a sum or a product's memo may hold;
every term holds two rank-long tuples."""


def _too_large(what: str, size: int, n: int, where: str) -> ValueError:
    return ValueError(
        f"{what} may have at most {MAX_PRODUCT_SIZE} terms times rank, "
        f"got {size} terms at rank {n} {where}"
    )


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in normal form, from the images w * b of the permutations w of a.

    The image of the identity is b.  A missing image is built from the
    nearest memoised one: w * b = t_i (s_i w * b) when i is a left descent
    of w (value i + 1 comes before value i), so the least one is peeled,
    one letter at a time.  Each term y^ea * w of a then adds y^ea times the
    image of w, which only shifts exponents.

    Raises ValueError as soon as an image, or the terms of the product
    built so far, times the rank, pass MAX_PRODUCT_SIZE: an image is checked
    when its letter builds it, the product after each term of a.  When the
    memo's terms times rank pass it, the memo is emptied back to b.
    """
    if not a._same_ring(b):
        raise TypeError(f"cannot multiply a HeckeElement by {type(b).__name__}")
    n = a.ring
    identity = identity_perm(n)
    images: dict[Perm, Mapping[Term, int]] = {identity: b.terms}
    held = len(b.terms)
    out: dict[Term, int] = {}
    for (ea, w), ca in a.terms.items():
        if w not in images:
            inverse = sorted(range(n), key=w.__getitem__)  # inverse[x - 1] is where x stands
            line, peeled = list(w), []
            while (u := tuple(line)) not in images:
                i = next(i for i in range(1, n) if inverse[i] < inverse[i - 1])
                peeled.append((i, u))
                inverse[i - 1], inverse[i] = inverse[i], inverse[i - 1]
                line[inverse[i - 1]], line[inverse[i]] = i, i + 1
            image = images[u]
            for i, u in reversed(peeled):
                image = _times_letter(i, image)
                if len(image) * n > MAX_PRODUCT_SIZE:
                    raise _too_large("a product", len(image), n,
                                     "in one permutation of its left factor times its right factor")
                held += len(image)
                if held * n > MAX_PRODUCT_SIZE:
                    images, held = {identity: b.terms}, len(b.terms) + len(image)
                images[u] = image
        for (eb, v), c in images[w].items():
            key = (tuple(map(add, ea, eb)), v)
            out[key] = out.get(key, 0) + ca * c
        if len(out) * n > MAX_PRODUCT_SIZE:
            raise _too_large("a product", len(out), n, "before it was complete")
    return HeckeElement._trusted(out, n)


def verify_relations(n: int) -> dict[str, bool]:
    """Check the defining relations at rank n via ``multiply``."""
    _check_int(n, "rank", 2)
    y = [from_generator("y", k, n) for k in range(1, n + 1)]
    t = [from_generator("t", k, n) for k in range(1, n)]
    one = HeckeElement.one(n)
    report: dict[str, bool] = {}

    report["involutions"] = all(t[i] * t[i] == one for i in range(n - 1))
    report["braid"] = all(
        t[i] * t[i + 1] * t[i] == t[i + 1] * t[i] * t[i + 1] for i in range(n - 2)
    )
    report["distant_transpositions_commute"] = all(
        t[i] * t[j] == t[j] * t[i]
        for i in range(n - 1)
        for j in range(n - 1)
        if abs(i - j) >= 2
    )
    report["polynomial_subalgebra_commutes"] = all(
        y[i] * y[j] == y[j] * y[i] for i in range(n) for j in range(n)
    )
    report["cross_commutation"] = all(
        t[i] * y[j] == y[j] * t[i]
        for i in range(n - 1)
        for j in range(n)
        if j not in (i, i + 1)
    )
    report["cross_relation"] = all(
        t[i] * y[i + 1] - y[i] * t[i] == one for i in range(n - 1)
    )
    return report


def _tokenize(expr: str) -> list[str]:
    """The tokens as written: y, t or a digit with the digits after it, else one character."""
    if bad := [ch for ch in expr if not (ch.isspace() or ch in "0123456789yt+-*()")]:
        raise ValueError(f"unexpected character {bad[0]!r} in expression")
    tokens: list[str] = []
    k = 0
    while k < len(expr):
        j = k + 1
        if expr[k] in "yt0123456789":
            while j < len(expr) and expr[j].isdigit():
                j += 1
            if j == k + 1 and expr[k] in "yt":
                raise ValueError(f"generator {expr[k:j + 1]!r} needs an index")
        if not expr[k].isspace():
            tokens.append(expr[k:j])
        k = j
    return tokens


def _read_int(digits: str, what: str) -> int:
    """``int(digits)``; a literal past int()'s limit on digits is named as ``what``."""
    try:
        return int(digits)
    except ValueError:  # the tokenizer passes only ASCII digits, so this is the limit
        raise ValueError(
            f"{what} in expression has {len(digits)} digits, "
            f"more than {sys.get_int_max_str_digits()}"
        ) from None


MAX_NESTING = 100
"""Deepest nesting of parentheses and unary minus signs an expression may use."""


class _Parser:
    """Recursive descent for: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := '-' factor | atom."""

    def __init__(self, tokens: list[str], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.depth = 0

    def nested(self, parse: Callable[[], HeckeElement]) -> HeckeElement:
        """Parse one level deeper, refusing to pass MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ValueError(f"expression nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self) -> HeckeElement:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing token {self.peek()!r} in expression")
        return value

    def expr(self) -> HeckeElement:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
            if len(value.terms) * self.n > MAX_PRODUCT_SIZE:
                raise _too_large("a sum", len(value.terms), self.n, "in the expression")
        return value

    def term(self) -> HeckeElement:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> HeckeElement:
        if self.peek() == "-":
            self.take()
            return -self.nested(self.factor)
        return self.atom()

    def atom(self) -> HeckeElement:
        token = self.take()
        kind = token[0]
        if kind in "yt":
            return from_generator(kind, _read_int(token[1:], f"index of {kind}"), self.n)
        if kind.isdigit():
            return HeckeElement.scalar(_read_int(token, "integer"), self.n)
        if token == "(":
            value = self.nested(self.expr)
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return value
        raise ValueError(f"unexpected token {token!r}")


def parse_expression(expr: str, n: int) -> HeckeElement:
    """Evaluate a generator expression like ``t1*y2*t1 - y1`` at rank n.

    Parentheses and unary minus signs nest at most MAX_NESTING deep; deeper
    input raises ValueError, as does a rank no tuple can have as its length.
    """
    if _check_int(n, "rank", 1) > sys.maxsize:
        raise ValueError(f"rank must be at most {sys.maxsize}, got {n}")
    tokens = _tokenize(expr)
    if not tokens:
        raise ValueError("empty expression")
    return _Parser(tokens, n).parse()
