"""Schur polynomials and the character-level branching and Pieri rules.

Schur polynomials are computed by the branching rule (Macdonald, I (5.11))

    s_lam(x_1..x_n) = sum of s_mu(x_1..x_{n-1}) * x_n^{|lam/mu|}

over the mu for which lam/mu is a horizontal strip, which is the restriction
step of the inverse system Lambda = lim Lambda_n; its work grows with the
number of distinct terms, not with the number of semistandard tableaux.
Tableau enumeration (in ``verify``) and the Jacobi-Trudi determinant over
complete homogeneous polynomials are independent second constructions used
for cross-checking.  Expanding a symmetric polynomial in the Schur basis
works by repeatedly subtracting the Schur polynomial whose leading monomial
matches: the lexicographically greatest exponent vector of a symmetric
polynomial is weakly decreasing, and subtracting its Schur polynomial only
leaves lex-smaller terms, so the loop terminates.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from operator import add
from typing import Iterable, Mapping

from .partitions import Partition


class SymPolynomial:
    """A symmetric polynomial in n variables, exponent vector -> integer."""

    __slots__ = ("num_vars", "terms")

    def __init__(
        self,
        num_vars: int,
        terms: Mapping[tuple[int, ...], int] | None = None,
    ):
        if num_vars < 0:
            raise ValueError(f"number of variables must be >= 0, got {num_vars}")
        self.num_vars = num_vars
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != num_vars:
                    raise ValueError(f"exponent vector {exps} is not length {num_vars}")
                if any(x < 0 for x in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coeff:
                    self.terms[tuple(exps)] = int(coeff)
        self._check_symmetric()

    @classmethod
    def _trusted(
        cls, num_vars: int, items: Iterable[tuple[tuple[int, ...], int]]
    ) -> "SymPolynomial":
        """Wrap terms known to be valid and symmetric; only zero coefficients go."""
        poly = object.__new__(cls)
        poly.num_vars = num_vars
        poly.terms = {exps: c for exps, c in items if c}
        return poly

    def _check_symmetric(self) -> None:
        # adjacent transpositions generate the full symmetric group
        for exps, coeff in self.terms.items():
            for k in range(self.num_vars - 1):
                if exps[k] == exps[k + 1]:
                    continue
                swapped = list(exps)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                if self.terms.get(tuple(swapped), 0) != coeff:
                    raise ValueError(f"not symmetric at {exps} <-> {tuple(swapped)}")

    @classmethod
    def zero(cls, num_vars: int) -> "SymPolynomial":
        return cls(num_vars)

    @classmethod
    def one(cls, num_vars: int) -> "SymPolynomial":
        return cls(num_vars, {(0,) * num_vars: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exps), 0)

    def _require_same_ring(self, other: "SymPolynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable counts differ: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "SymPolynomial") -> "SymPolynomial":
        self._require_same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return SymPolynomial._trusted(self.num_vars, out.items())

    def __sub__(self, other: "SymPolynomial") -> "SymPolynomial":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "SymPolynomial":
        return SymPolynomial._trusted(
            self.num_vars, ((e, scalar * c) for e, c in self.terms.items())
        )

    def __mul__(self, other: "SymPolynomial") -> "SymPolynomial":
        self._require_same_ring(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return SymPolynomial._trusted(self.num_vars, out.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymPolynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return f"SymPolynomial({self.num_vars}, 0)"
        body = " + ".join(
            f"{c}*x^{list(e)}" for e, c in sorted(self.terms.items(), reverse=True)
        )
        return f"SymPolynomial({self.num_vars}, {body})"


@lru_cache(maxsize=4096)
def _schur_terms(shape: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The sorted (exponent vector, coefficient) pairs of s_shape(x_1..x_n).

    Sub-shapes are memoised for this call only, so the lru cache holds just
    the requested pairs.
    """
    if len(shape) > n:
        return ()
    return tuple(sorted(_branch(shape, n, {}).items()))


def _branch(
    shape: tuple[int, ...], n: int, memo: dict[tuple[tuple[int, ...], int], dict]
) -> dict[tuple[int, ...], int]:
    """s_shape(x_1..x_n) by the branching rule; needs len(shape) <= n."""
    if n == 0:
        return {(): 1}
    key = (shape, n)
    if key in memo:
        return memo[key]
    terms: dict[tuple[int, ...], int] = {}
    size = sum(shape)
    # mu interlaces shape: shape_{k+1} <= mu_k <= shape_k, with at most n-1 rows
    bounds = [
        range(shape[k + 1] if k + 1 < len(shape) else 0, shape[k] + 1)
        for k in range(min(len(shape), n - 1))
    ]
    for mu in product(*bounds):
        tail = (size - sum(mu),)
        for exps, c in _branch(tuple(x for x in mu if x), n - 1, memo).items():
            exps += tail
            terms[exps] = terms.get(exps, 0) + c
    memo[key] = terms
    return terms


def schur(p: Partition, n: int) -> SymPolynomial:
    """The Schur polynomial s_p(x_1..x_n) by the branching rule.

    Zero when p has more than n rows.
    """
    if n < 0:
        raise ValueError(f"number of variables must be >= 0, got {n}")
    if len(p.parts) > n:
        return SymPolynomial.zero(n)
    return SymPolynomial._trusted(n, _schur_terms(p.parts, n))


def complete_homogeneous(k: int, n: int) -> SymPolynomial:
    """h_k(x_1..x_n): every monomial of total degree k once."""
    if k < 0:
        return SymPolynomial.zero(n)
    if n == 0:
        return SymPolynomial.one(0) if k == 0 else SymPolynomial.zero(0)

    terms: dict[tuple[int, ...], int] = {}

    def compositions(remaining: int, slots: int, acc: list[int]) -> None:
        if slots == 1:
            terms[tuple(acc + [remaining])] = 1
            return
        for v in range(remaining + 1):
            compositions(remaining - v, slots - 1, acc + [v])

    compositions(k, n, [])
    return SymPolynomial._trusted(n, terms.items())


def schur_jacobi_trudi(p: Partition, n: int) -> SymPolynomial:
    """The Schur polynomial as det(h_{p_i - i + j}); oracle for ``schur``."""
    ell = len(p.parts)
    if ell == 0:
        return SymPolynomial.one(n)
    if ell > n:
        # the determinant also vanishes, but short-circuit for speed
        return SymPolynomial.zero(n)
    h = {}
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            k = p.parts[i - 1] - i + j
            if k not in h:
                h[k] = complete_homogeneous(k, n)
    total = SymPolynomial.zero(n)
    for sigma in permutations(range(1, ell + 1)):
        sign = _permutation_sign(sigma)
        prod = SymPolynomial.one(n)
        for i, j in enumerate(sigma, start=1):
            prod = prod * h[p.parts[i - 1] - i + j]
            if prod.is_zero():
                break
        total = total + sign * prod
    return total


def _permutation_sign(sigma: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for a in range(len(sigma))
        for b in range(a + 1, len(sigma))
        if sigma[a] > sigma[b]
    )
    return -1 if inversions % 2 else 1


def restrict_last_var(f: SymPolynomial) -> SymPolynomial:
    """Set the last variable to zero, landing in one variable fewer."""
    if f.num_vars < 1:
        raise ValueError("no variable left to restrict")
    terms = ((exps[:-1], c) for exps, c in f.terms.items() if exps[-1] == 0)
    return SymPolynomial._trusted(f.num_vars - 1, terms)


def schur_expand(f: SymPolynomial) -> dict[Partition, int]:
    """Expand a symmetric polynomial in the Schur basis (greedy subtraction).

    Raises ``ArithmeticError`` when subtracting s_shape leaves its own
    leading term behind, which only a wrong Schur engine can cause.
    """
    coeffs: dict[Partition, int] = {}
    remaining = dict(f.terms)
    while remaining:
        lead = max(remaining)
        shape = tuple(x for x in lead if x)
        if any(shape[k] < shape[k + 1] for k in range(len(shape) - 1)):
            raise ArithmeticError(f"leading exponent {lead} is not a partition")
        c = remaining[lead]
        coeffs[Partition(shape)] = c
        for exps, k in _schur_terms(shape, f.num_vars):
            left = remaining.get(exps, 0) - c * k
            if left:
                remaining[exps] = left
            else:
                del remaining[exps]
        if lead in remaining:
            raise ArithmeticError(f"s_{list(shape)} does not cancel its leading term {lead}")
    return coeffs


def _expand_to_multiset(f: SymPolynomial) -> list[Partition]:
    out: list[Partition] = []
    for mu, c in schur_expand(f).items():
        if c < 0:
            raise ArithmeticError(f"negative multiplicity {c} at {mu}")
        out.extend([mu] * c)
    return sorted(out, reverse=True)


def branch_r1(p: Partition, n: int) -> list[Partition]:
    """Degree-one branching layer of s_p in n+1 variables, Schur-expanded.

    Extracts the coefficient of the first power of the extra variable in
    s_p(x_1..x_n, t) and expands it in the Schur basis of n variables.  The
    result is the multiset of partitions obtained by removing one box.
    """
    if n < p.size:
        raise ValueError(f"need n >= |p| = {p.size}, got {n}")
    big = schur(p, n + 1)
    layer = ((exps[:-1], c) for exps, c in big.terms.items() if exps[-1] == 1)
    return _expand_to_multiset(SymPolynomial._trusted(n, layer))


def pieri_mult(p: Partition, n: int) -> list[Partition]:
    """Schur expansion of s_(1) * s_p in n variables.

    The result is the multiset of partitions obtained by adding one box,
    restricted to partitions with at most n rows (for n >= |p| + 1 nothing
    is ever cut off).
    """
    if n < p.size:
        raise ValueError(f"need n >= |p| = {p.size}, got {n}")
    product = schur(Partition((1,)), n) * schur(p, n)
    return _expand_to_multiset(product)
