"""Schur polynomials and the character-level branching and Pieri rules.

A symmetric polynomial is fixed by its coefficients on dominant (weakly
decreasing) exponent vectors, s_lam = sum of K_lam,mu m_mu (Macdonald, I §2,
§6).  ``_kostka`` computes the Kostka row K_lam,. by the branching rule
(Macdonald, I (5.11))

    s_lam(x_1..x_n) = sum of s_mu(x_1..x_{n-1}) * x_n^{|lam/mu|}

over the mu for which lam/mu is a horizontal strip, restricted to dominant
vectors.  The prefix of a dominant vector is dominant, so the restriction is
closed, and the row has at most p(|lam|) entries whatever n is.  The Kostka
numbers do not depend on n, which is the inverse-limit statement Lambda =
lim Lambda_n: past |lam| variables the row only gains zeros, so no recursion
goes deeper than |lam| + 1.  This is the one Schur engine.  The full terms
of ``schur`` are the distinct rearrangements of each row's mu, each with
coefficient K_lam,mu; ``pieri_mult`` and ``branch_r1`` work in at most
|lam| + 1 variables and never build them.  Tableau enumeration (in
``verify``) and the Jacobi-Trudi determinant over complete homogeneous
polynomials are independent second constructions used for cross-checking.

Expanding in the Schur basis reads the dominant terms only: the greatest one
is the leading term, a partition, and subtracting its Kostka row only leaves
smaller ones, so the loop terminates.

One module cache lives here, reused within one request: the branching
rule's sub-shapes (``_dominant_branch``).  ``_kostka`` and
``complete_homogeneous`` are not cached; ``schur_jacobi_trudi`` memoises its
h_k and minors for the call.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations_with_replacement, product, repeat
from operator import add
from typing import Iterator, Mapping

from .combination import IntCombination
from .partitions import Partition, _check_int


class SymPolynomial(IntCombination):
    """A symmetric polynomial in n variables, exponent vector -> integer."""

    __slots__ = ()
    _MISMATCH = "variable counts differ: {} vs {}"

    def __new__(
        cls,
        num_vars: int,
        terms: Mapping[tuple[int, ...], int] | None = None,
    ):
        num_vars = _check_int(num_vars, "number of variables", 0)
        element = super().__new__(cls, terms, num_vars)
        element._check_symmetric()
        return element

    @property
    def num_vars(self) -> int:
        return self.ring

    def _checked_key(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        if len(exps) != self.ring:
            raise ValueError(f"exponent vector {exps} is not length {self.ring}")
        if not all(map(isinstance, exps, repeat(int))):
            raise TypeError(f"exponents must be integers, got {exps!r}")
        if any(x < 0 for x in exps):
            raise ValueError(f"negative exponent in {exps}")
        return tuple(map(int, exps))  # a bool entry as its int

    def _check_symmetric(self) -> None:
        # adjacent transpositions generate the full symmetric group
        for exps, coeff in self.terms.items():
            for k in range(self.ring - 1):
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
        return cls(_check_int(num_vars, "number of variables", 0), {(0,) * num_vars: 1})

    def __mul__(self, other: "SymPolynomial") -> "SymPolynomial":
        if not self._same_ring(other):
            return self.__rmul__(other)  # an int scalar, or NotImplemented
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return SymPolynomial._trusted(out, self.ring)

    def __repr__(self) -> str:
        if not self.terms:
            return f"SymPolynomial({self.num_vars}, 0)"
        body = " + ".join(
            f"{c}*x^{list(e)}" for e, c in sorted(self.terms.items(), reverse=True)
        )
        return f"SymPolynomial({self.num_vars}, {body})"


def _rearrangements(mu: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct rearrangements of mu in increasing lexicographic order.

    Next permutation: find the last ascent a_j < a_{j+1}, swap a_j with the
    last entry greater than it, and reverse the tail after j.
    """
    a = sorted(mu)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[k] <= a[j]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def _kostka(shape: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The sorted (dominant exponent vector mu, K_shape,mu) pairs of s_shape(x_1..x_n).

    The dominant (weakly decreasing) part of s_shape, which fixes the
    symmetric polynomial: s_shape = sum of K_shape,mu m_mu.  No mu has more
    than |shape| nonzero parts and the Kostka numbers do not depend on n, so
    past n = |shape| the row is the one in |shape| variables padded with
    zeros, and the branching rule recurses at most |shape| + 1 deep.
    """
    if len(shape) > n:
        return ()
    m = min(n, sum(shape))
    pad = (0,) * (n - m)
    return tuple(sorted((mu + pad, k) for mu, k in _dominant_branch(shape, m, 0)))


def _strips(
    shape: tuple[int, ...], n: int, lo: int, hi: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(mu, |shape/mu|) for each horizontal strip shape/mu of lo..hi boxes, mu with < n rows."""
    rows = min(len(shape), n - 1)
    size = sum(shape)
    # rows below the first n-1 lie in the strip whole; mu interlaces the
    # rest, shape_{k+1} <= mu_k <= shape_k, and no row gives up more than hi
    forced = size - sum(shape[:rows])
    bounds = [
        range(max(shape[k + 1] if k + 1 < len(shape) else 0, shape[k] - hi + forced), shape[k] + 1)
        for k in range(rows)
    ]
    for mu in product(*bounds):
        tail = size - sum(mu)
        if lo <= tail <= hi:
            yield tuple(x for x in mu if x), tail


@lru_cache(maxsize=1 << 16)
def _dominant_branch(
    shape: tuple[int, ...], n: int, floor: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The dominant terms of s_shape(x_1..x_n) whose exponents are all >= floor.

    The branching rule restricted to dominant exponent vectors, which is
    closed because the prefix of a dominant vector is dominant: a term in n
    variables extends a term in n-1 variables whose exponents are all at
    least its last one, and that last one is at most |shape| / n.  Needs
    len(shape) <= n.  Cached (the value is a tuple), so the Kostka rows of
    one expansion share their sub-shapes; the cache holds every sub-shape
    of a 22-box partition (about 17k entries for the slowest one found).
    """
    if n == 0:
        return (((), 1),)
    terms: dict[tuple[int, ...], int] = {}
    for mu, tail in _strips(shape, n, floor, sum(shape) // n):
        for exps, c in _dominant_branch(mu, n - 1, tail):
            exps += (tail,)
            terms[exps] = terms.get(exps, 0) + c
    return tuple(terms.items())


def schur(p: Partition, n: int) -> SymPolynomial:
    """The Schur polynomial s_p(x_1..x_n), every term, from its Kostka row.

    Zero when p has more than n rows, where ``_kostka`` has no row.
    """
    if not isinstance(p, Partition):
        raise TypeError(f"schur asks for a Partition, got {p!r}")
    n = _check_int(n, "number of variables", 0)
    return SymPolynomial._trusted(
        {exps: k for mu, k in _kostka(p, n) for exps in _rearrangements(mu)}, n
    )


def complete_homogeneous(k: int, n: int) -> SymPolynomial:
    """h_k(x_1..x_n): every monomial of total degree k once, one per multiset of k variables."""
    n = _check_int(n, "number of variables", 0)
    k = _check_int(k, "degree")
    if k < 0:
        return SymPolynomial.zero(n)
    terms = {}
    for indices in combinations_with_replacement(range(n), k):
        exps = [0] * n
        for x in indices:
            exps[x] += 1
        terms[tuple(exps)] = 1
    return SymPolynomial._trusted(terms, n)


def schur_jacobi_trudi(p: Partition, n: int) -> SymPolynomial:
    """The Schur polynomial as det(h_{p_i - i + j}); oracle for ``schur``.

    Laplace expansion along the top row, each minor (the bottom rows against
    a set of columns) computed once: ell * 2^(ell-1) products, not the ell!
    of the Leibniz sum.  Entries h_k with k < 0 are zero and skipped.
    """
    _check_int(n, "number of variables", 0)
    ell = len(p)
    if ell > n:
        # the determinant also vanishes, but short-circuit for speed
        return SymPolynomial.zero(n)
    h = cache(complete_homogeneous)

    @cache
    def minor(cols: tuple[int, ...]) -> SymPolynomial:
        """The determinant of the last len(cols) rows against the columns cols."""
        row = ell - len(cols)
        total = SymPolynomial.zero(n) if cols else SymPolynomial.one(n)
        for t, j in enumerate(cols):
            k = p[row] - row + j
            if k >= 0:
                term = h(k, n) * minor(cols[:t] + cols[t + 1:])
                total = total - term if t % 2 else total + term
        return total

    return minor(tuple(range(ell)))


def restrict_last_var(f: SymPolynomial) -> SymPolynomial:
    """Set the last variable to zero, landing in one variable fewer."""
    if f.num_vars < 1:
        raise ValueError("no variable left to restrict")
    terms = {exps[:-1]: c for exps, c in f.terms.items() if exps[-1] == 0}
    return SymPolynomial._trusted(terms, f.num_vars - 1)


def schur_expand(f: SymPolynomial) -> dict[Partition, int]:
    """Expand a symmetric polynomial in the Schur basis (greedy subtraction).

    Only the dominant terms are read.  Raises ``ArithmeticError`` when
    subtracting s_shape leaves its own leading term behind, which only a
    wrong Schur engine can cause.
    """
    dominant = {
        exps: c for exps, c in f.terms.items() if all(a >= b for a, b in zip(exps, exps[1:]))
    }
    return _expand_dominant(f.num_vars, dominant)


def _expand_dominant(num_vars: int, remaining: dict[tuple[int, ...], int]) -> dict[Partition, int]:
    """``schur_expand`` of the symmetric polynomial with these dominant terms.

    The greatest dominant vector is the leading term; subtracting c times
    the Kostka row of its shape leaves only smaller ones.  Consumes
    ``remaining``.  So the leading terms strictly decrease, which ends the
    loop; a row that breaks this (only a wrong engine can) raises
    ``ArithmeticError`` instead of looping.
    """
    coeffs: dict[Partition, int] = {}
    above = None
    while remaining:
        lead = max(remaining)
        if above is not None and lead > above:
            raise ArithmeticError(f"s_{list(shape)} leaves {lead} above its leading term {above}")
        above = lead
        shape = tuple(x for x in lead if x)
        if any(shape[k] < shape[k + 1] for k in range(len(shape) - 1)):
            raise ArithmeticError(f"leading exponent {lead} is not a partition")
        c = remaining[lead]
        coeffs[Partition(shape)] = c
        for exps, k in _kostka(shape, num_vars):
            left = remaining.get(exps, 0) - c * k
            if left:
                remaining[exps] = left
            else:
                del remaining[exps]
        if lead in remaining:
            raise ArithmeticError(f"s_{list(shape)} does not cancel its leading term {lead}")
    return coeffs


def _expand_to_multiset(num_vars: int, dominant: dict[tuple[int, ...], int]) -> list[Partition]:
    out: list[Partition] = []
    for mu, c in _expand_dominant(num_vars, dominant).items():
        if c < 0:
            raise ArithmeticError(f"negative multiplicity {c} at {mu}")
        out.extend([mu] * c)
    return sorted(out, reverse=True)


def branch_r1(p: Partition, n: int) -> list[Partition]:
    """Degree-one branching layer of s_p in n+1 variables, Schur-expanded.

    The coefficient of t^1 in s_p(x_1..x_n, t) is expanded in the Schur
    basis of n variables.  The t^1 part of the monomial symmetric function
    m_nu(x, t) is m_{nu minus one part 1}(x) when nu has a part 1 and zero
    otherwise, so the layer is read off the Kostka numbers K_p,nu alone.
    The result is the multiset of partitions obtained by removing one box.

    The answer is the same for every n >= |p|: the Kostka numbers do not
    depend on the number of variables, every partition of |p| already fits
    in |p| + 1 of them, and no shape of |p| - 1 boxes is cut off in |p|.
    So the work is done at n = |p|, which also keeps the branching-rule
    recursion |p| + 1 deep whatever n is.
    """
    if not isinstance(p, Partition):
        raise TypeError(f"branch_r1 asks for a Partition, got {p!r}")
    n = _check_int(n, "number of variables")
    if n < p.size:
        raise ValueError(f"need n >= |p| = {p.size}, got {n}")
    n = p.size
    layer: dict[tuple[int, ...], int] = {}
    for nu, k in _dominant_branch(p, n + 1, 0):
        if 1 in nu:
            j = nu.index(1)
            layer[nu[:j] + nu[j + 1:]] = k
    return _expand_to_multiset(n, layer)


def pieri_mult(p: Partition, n: int) -> list[Partition]:
    """Schur expansion of s_(1) * s_p in n variables.

    The coefficient of m_nu in s_(1) * s_p is the sum of K_p,sort(nu - e_j)
    over the positions j with nu_j > 0.  Read the other way round: raising
    one part v of a dominant mu to v + 1 gives nu, and m_(1) * m_mu holds
    m_nu once per part v + 1 of nu.  The result is the multiset of
    partitions obtained by adding one box, restricted to partitions with at
    most n rows.

    For n >= |p| + 1 nothing is cut off and the Kostka numbers do not depend
    on n, so the work is done at min(n, |p| + 1) variables; that also keeps
    the branching-rule recursion at most |p| + 1 deep whatever n is.
    """
    if not isinstance(p, Partition):
        raise TypeError(f"pieri_mult asks for a Partition, got {p!r}")
    n = _check_int(n, "number of variables")
    if n < p.size:
        raise ValueError(f"need n >= |p| = {p.size}, got {n}")
    n = min(n, p.size + 1)
    terms: dict[tuple[int, ...], int] = {}
    for mu, k in _dominant_branch(p, n, 0):
        for j in range(n):
            if j == 0 or mu[j - 1] > mu[j]:
                nu = (*mu[:j], mu[j] + 1, *mu[j + 1:])
                terms[nu] = terms.get(nu, 0) + k * nu.count(mu[j] + 1)
    return _expand_to_multiset(n, terms)
