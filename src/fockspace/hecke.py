"""The degenerate affine Hecke algebra in PBW normal form.

Elements are integer combinations of y^a * w with the polynomial part on
the left and the permutation on the right.  Multiplication straightens by
pushing each simple transposition leftwards through y-monomials one
generator at a time:

    t_i y_{i+1} = y_i t_i + 1
    t_i y_i     = y_{i+1} t_i - 1
    t_i y_j     = y_j t_i          for j not in {i, i+1}

Permutations are stored in one-line notation; the product w * v means
"apply v first".
"""

from __future__ import annotations

from typing import Iterator, Mapping

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


def compose(w: Perm, v: Perm) -> Perm:
    """(w * v)(x) = w(v(x)): v acts first."""
    return tuple(w[v[x] - 1] for x in range(len(w)))


def reduced_word(w: Perm) -> list[int]:
    """One reduced word for w, peeled off right descents."""
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
    if all(w[k] == k + 1 for k in range(len(w))):
        yield ()
        return
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            shorter = list(w)
            shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
            for word in all_reduced_words(tuple(shorter)):
                yield word + (i,)


class HeckeElement:
    """An integer combination of normal-form basis elements y^a * w."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Term, int] | None = None):
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        self.n = n
        self.terms: dict[Term, int] = {}
        if terms:
            for (exps, perm), coeff in terms.items():
                if len(exps) != n or len(perm) != n:
                    raise ValueError(f"term {(exps, perm)} does not have rank {n}")
                if any(x < 0 for x in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if sorted(perm) != list(range(1, n + 1)):
                    raise ValueError(f"{perm} is not a permutation of 1..{n}")
                if coeff:
                    self.terms[(tuple(exps), tuple(perm))] = int(coeff)

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        return cls(n, {((0,) * n, identity_perm(n)): 1})

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n)

    @classmethod
    def scalar(cls, value: int, n: int) -> "HeckeElement":
        return cls(n, {((0,) * n, identity_perm(n)): value})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def y_degree(self) -> int:
        """Maximal total y-degree over the support; -1 for zero."""
        return max((sum(exps) for exps, _ in self.terms), default=-1)

    def _require_same_rank(self, other: "HeckeElement") -> None:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._require_same_rank(other)
        out = dict(self.terms)
        for term, c in other.terms.items():
            out[term] = out.get(term, 0) + c
        return HeckeElement(self.n, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-1) * other

    def __neg__(self) -> "HeckeElement":
        return (-1) * self

    def __rmul__(self, scalar: int) -> "HeckeElement":
        return HeckeElement(self.n, {t: scalar * c for t, c in self.terms.items()})

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return multiply(self, other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> list[tuple[Term, int]]:
        return sorted(self.terms.items())

    def json_list(self) -> list[dict]:
        return [
            {"exponents": list(exps), "permutation": list(perm), "coeff": c}
            for (exps, perm), c in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        if not self.terms:
            return f"HeckeElement(n={self.n}, 0)"
        body = " + ".join(
            f"{c}*y^{list(e)}*{list(w)}" for (e, w), c in self.sorted_terms()
        )
        return f"HeckeElement(n={self.n}, {body})"


def from_generator(kind: str, index: int, n: int) -> HeckeElement:
    """The generator y_index (kind 'y') or t_index (kind 't') at rank n."""
    if kind == "y":
        if not 1 <= index <= n:
            raise ValueError(f"y index must be in 1..{n}, got {index}")
        exps = tuple(1 if k == index - 1 else 0 for k in range(n))
        return HeckeElement(n, {(exps, identity_perm(n)): 1})
    if kind == "t":
        return HeckeElement(
            n, {((0,) * n, simple_transposition(index, n)): 1}
        )
    raise ValueError(f"generator kind must be 'y' or 't', got {kind!r}")


def _tau_times_monomial(i: int, exps: Exps, n: int) -> dict[Term, int]:
    """t_i * y^exps in normal form.  Recursion peels one y factor at a time."""
    out: dict[Term, int] = {}
    if exps[i] > 0:
        # t_i y_{i+1} y^rest = y_i (t_i y^rest) + y^rest
        rest = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        for (e2, w), c in _tau_times_monomial(i, rest, n).items():
            bumped = e2[: i - 1] + (e2[i - 1] + 1,) + e2[i:]
            out[(bumped, w)] = out.get((bumped, w), 0) + c
        key = (rest, identity_perm(n))
        out[key] = out.get(key, 0) + 1
    elif exps[i - 1] > 0:
        # t_i y_i y^rest = y_{i+1} (t_i y^rest) - y^rest
        rest = exps[: i - 1] + (exps[i - 1] - 1,) + exps[i:]
        for (e2, w), c in _tau_times_monomial(i, rest, n).items():
            bumped = e2[:i] + (e2[i] + 1,) + e2[i + 1:]
            out[(bumped, w)] = out.get((bumped, w), 0) + c
        key = (rest, identity_perm(n))
        out[key] = out.get(key, 0) - 1
    else:
        out[(exps, simple_transposition(i, n))] = 1
    return {t: c for t, c in out.items() if c}


def _word_times_poly(word: list[int] | tuple[int, ...], exps: Exps, n: int) -> dict[Term, int]:
    """(t_{word[0]} ... t_{word[-1]}) * y^exps in normal form."""
    terms: dict[Term, int] = {(exps, identity_perm(n)): 1}
    for i in reversed(word):
        new: dict[Term, int] = {}
        for (e2, u), c in terms.items():
            for (e3, u2), c2 in _tau_times_monomial(i, e2, n).items():
                key = (e3, compose(u2, u))
                new[key] = new.get(key, 0) + c * c2
        terms = {t: c for t, c in new.items() if c}
    return terms


def straighten_word_times_poly(word: list[int] | tuple[int, ...], exps: Exps, n: int) -> HeckeElement:
    """Normal form of an explicit generator word times a y-monomial.

    Exposed so that independence of the chosen reduced word can be checked
    directly against ``multiply``.
    """
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for rank {n}")
    return HeckeElement(n, _word_times_poly(tuple(word), tuple(exps), n))


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in normal form by straightening each w past each y-monomial."""
    a._require_same_rank(b)
    n = a.n
    out: dict[Term, int] = {}
    word_cache: dict[Perm, list[int]] = {}
    for (ea, w), ca in a.terms.items():
        if w not in word_cache:
            word_cache[w] = reduced_word(w)
        word = word_cache[w]
        for (eb, v), cb in b.terms.items():
            for (em, u), cm in _word_times_poly(word, eb, n).items():
                exps = tuple(x + y for x, y in zip(ea, em))
                key = (exps, compose(u, v))
                out[key] = out.get(key, 0) + ca * cb * cm
    return HeckeElement(n, out)


def verify_relations(n: int) -> dict[str, bool]:
    """Check the defining relations at rank n via ``multiply``."""
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
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


def _tokenize(expr: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    k = 0
    while k < len(expr):
        ch = expr[k]
        if ch.isspace():
            k += 1
        elif ch in "yt":
            j = k + 1
            while j < len(expr) and expr[j].isdigit():
                j += 1
            if j == k + 1:
                raise ValueError(f"generator {expr[k:j + 1]!r} needs an index")
            tokens.append((ch, expr[k + 1:j]))
            k = j
        elif ch.isdigit():
            j = k
            while j < len(expr) and expr[j].isdigit():
                j += 1
            tokens.append(("int", expr[k:j]))
            k = j
        elif ch in "+-*":
            tokens.append(("op", ch))
            k += 1
        elif ch in "()":
            tokens.append(("paren", ch))
            k += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in expression")
    return tokens


class _Parser:
    """Recursive descent for: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := '-' factor | atom."""

    def __init__(self, tokens: list[tuple[str, str]], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
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
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> HeckeElement:
        value = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> HeckeElement:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        return self.atom()

    def atom(self) -> HeckeElement:
        kind, text = self.take()
        if kind == "y":
            return from_generator("y", int(text), self.n)
        if kind == "t":
            return from_generator("t", int(text), self.n)
        if kind == "int":
            return HeckeElement.scalar(int(text), self.n)
        if (kind, text) == ("paren", "("):
            value = self.expr()
            if self.take() != ("paren", ")"):
                raise ValueError("unbalanced parentheses")
            return value
        raise ValueError(f"unexpected token {text!r}")


def parse_expression(expr: str, n: int) -> HeckeElement:
    """Evaluate a generator expression like ``t1*y2*t1 - y1`` at rank n."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    tokens = _tokenize(expr)
    if not tokens:
        raise ValueError("empty expression")
    return _Parser(tokens, n).parse()
