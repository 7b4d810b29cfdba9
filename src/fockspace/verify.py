"""Property suites behind the ``verify`` command.

Every check sweeps an exhaustive parameter range and returns either None
(pass) or a string describing the first counterexample found.  The
``CHECKS`` registry groups the checks into suites and states each one's
parameters once; the acceptance tests drive the same check functions at
their own parameter ranges, so there is exactly one implementation of each
property.

No check keeps a memo past its own call.  Operator matrices, powers of e_i
and the normal forms of a rewriting search are ``functools.cache`` closures
made inside the check, so a patched engine never meets pieces built before
the patch.  The checks of one ``run_verify`` call may run in different
forked processes, so none may rely on another having run.
"""

from __future__ import annotations

import random
import time
from functools import cache, reduce
from itertools import permutations, product
from operator import le
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional

from .blocks import blocks
from .casimir import casimir_scalar, x_eigenvalue, y_eigenvalue
from .characters import (
    SymPolynomial,
    _kostka,
    branch_r1,
    pieri_mult,
    restrict_last_var,
    schur,
    schur_jacobi_trudi,
)
from .crystal import (
    Signature,
    cogood_box,
    crystal_graph,
    e_tilde,
    epsilon,
    f_tilde,
    good_box,
    phi,
    reduced_signature,
)
from .hecke import (
    HeckeElement,
    all_reduced_words,
    from_generator,
    identity_perm,
    verify_relations,
)
from .fock import (
    FockVector,
    SparseMatrix,
    apply_e,
    apply_f,
    cartan_entry,
    op_matrix,
    weight,
)
from .forked import run_shared
from .partitions import (
    PLUS,
    Box,
    Partition,
    _check_int,
    _edit_row,
    addable_boxes,
    add_box,
    check_modulus,
    content,
    core_and_weight,
    i_corners,
    m_count,
    n_value,
    p_core,
    partitions_of,
    partitions_up_to,
    removable_boxes,
    remove_box,
    removable_rim_hooks,
    residue,
    residue_counts,
    residue_window,
)

DEFAULT_SEED = 20240801


# ---------------------------------------------------------------------------
# Graded operator matrices
#
# The relation checks compare e_i, f_i and h_i as matrices, one graded piece
# at a time.  A matrix out of degree d is held in column form: a
# {column index: {row index: coefficient}} dict of its nonzero columns, or
# None when it is zero.  Columns index the partitions of d and rows those of
# the target degree, both in the order of partitions_of, so a product is
# composition.

Columns = dict[int, dict[int, int]]


def _op_columns(e: int) -> Callable[[str, int, int], Optional[Columns]]:
    """A getter for op_matrix(kind, i, e, d) in column form, each built once.

    Degrees below zero have no partitions, so their matrices are zero.
    """

    @cache
    def get(kind: str, i: int, d: int) -> Optional[Columns]:
        cols: Columns = {}
        if d >= 0:
            for r, c, v in op_matrix(kind, i, e, d).entries:
                cols.setdefault(c, {})[r] = v
        return cols or None

    return get


def _product(a: Optional[Columns], b: Optional[Columns]) -> Optional[Columns]:
    """The product a*b of two matrices in column form; None stands for zero."""
    if a is None or b is None:
        return None
    out: Columns = {}
    for c, col in b.items():
        acc: dict[int, int] = {}
        for r, v in col.items():
            if r in a:
                for s, w in a[r].items():
                    acc[s] = acc.get(s, 0) + v * w
        if nonzero := {s: x for s, x in acc.items() if x}:
            out[c] = nonzero
    return out or None


Relation = Iterator[tuple[int, int, list[tuple[int, Optional[Columns]]]]]


def _first_counterexample(
    e: int, max_size: int, relation: Callable[[int], Relation]
) -> Optional[str]:
    """The first basis vector on which a graded relation fails, or None.

    ``relation(d)`` yields ``(i, j, terms)`` in the order the relation is
    read per basis vector; it holds on v_lambda, |lambda| = d, when column
    lambda of sum(coeff * matrix for coeff, matrix in terms) is zero.  The
    report names the smallest failing (lambda, then yield order), which is
    the first failure of the loop over lambda, then (i, j).  A column that
    no term holds sums to zero, so only the terms' nonzero columns are read.
    """
    for d in range(max_size + 1):
        first = None
        for i, j, terms in relation(d):
            terms = [(k, m) for k, m in terms if k and m is not None]
            for c in sorted({c for _, m in terms for c in m}):
                # a later column than the first failure so far is never reported
                if first is not None and c >= first[0]:
                    break
                acc: dict[int, int] = {}
                for k, m in terms:
                    for r, v in m.get(c, {}).items():
                        acc[r] = acc.get(r, 0) + k * v
                if any(acc.values()):
                    first = (c, i, j)
                    break
        if first is not None:
            c, i, j = first
            return f"lambda={partitions_of(d)[c]}, i={i}, j={j}, e={e}"
    return None


# ---------------------------------------------------------------------------
# Kac-Moody module checks


def check_commutators(e: int, max_size: int) -> Optional[str]:
    """[e_i, f_j] = delta_ij n_i on every basis vector of size <= max_size.

    Per degree d: E_i(d+1) F_j(d) - F_j(d-1) E_i(d) = delta_ij H_i(d).
    """
    window = residue_window(e, max_size)
    op = _op_columns(e)

    def relation(d: int) -> Relation:
        for i in window:
            for j in window:
                yield i, j, [
                    (1, _product(op("e", i, d + 1), op("f", j, d))),
                    (-1, _product(op("f", j, d - 1), op("e", i, d))),
                    (-1 if i == j else 0, op("h", i, d)),
                ]

    return _first_counterexample(e, max_size, relation)


def check_weight_ladder(e: int, max_size: int) -> Optional[str]:
    """f_i lands in weight wt - alpha_i and e_i in wt + alpha_i."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        counts = residue_counts(lam, e)
        for i in window:
            for mu in apply_f(FockVector.basis(lam), i, e).terms:
                if m_count(mu, i, e) != counts.get(i, 0) + 1:
                    return f"f: lambda={lam}, mu={mu}, i={i}, e={e}"
            for mu in apply_e(FockVector.basis(lam), i, e).terms:
                if m_count(mu, i, e) != counts.get(i, 0) - 1:
                    return f"e: lambda={lam}, mu={mu}, i={i}, e={e}"
    return None


def check_cartan_pairing(e: int, max_size: int) -> Optional[str]:
    """n_i(lambda), a corner count, equals <h_i, wt(lambda)> from the residue counts."""
    window = residue_window(e, max_size)
    cartan = {i: [(j, cartan_entry(i, j, e)) for j in window] for i in window}
    for lam in partitions_up_to(max_size):
        counts = residue_counts(lam, e)
        for i in window:
            pairing = (1 if i == 0 else 0) - sum(counts.get(j, 0) * a for j, a in cartan[i])
            if pairing != n_value(lam, i, e):
                return f"lambda={lam}, i={i}, e={e}"
    return None


def check_matrix_transpose(e: int, max_degree: int) -> Optional[str]:
    """The e_i and f_i matrices on graded pieces are mutual transposes."""
    for d in range(1, max_degree + 1):
        for i in residue_window(e, d):
            if op_matrix("e", i, e, d) != op_matrix("f", i, e, d - 1).transpose():
                return f"d={d}, i={i}, e={e}"
    return None


def _n_addable(p: Partition, i: int, e: int) -> int:
    return sum(1 for sign, _ in i_corners(p, i, e) if sign == PLUS)


def check_integrability(e: int, max_size: int) -> Optional[str]:
    """f_i^N kills v_lambda once N exceeds the number of addable i-boxes."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        for i in window:
            n_addable = _n_addable(lam, i, e)
            v = FockVector.basis(lam)
            for _ in range(n_addable + 1):
                v = apply_f(v, i, e)
            if not v.is_zero():
                return f"lambda={lam}, i={i}, e={e}, N={n_addable + 1}"
    return None


def check_residue_partition(e: int, max_size: int) -> Optional[str]:
    """The residues in the window partition the boxes: sum_i m_i = |lambda|.

    For e >= 2 the window is Z/eZ; for e = 0 this checks that the window
    holds every content of a partition of size <= max_size.
    """
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        counts = residue_counts(lam, e)
        if sum(counts.get(i, 0) for i in window) != lam.size:
            return f"lambda={lam}, e={e}"
    return None


# ---------------------------------------------------------------------------
# Cartan action and Serre relations


def check_cartan_action(e: int, max_size: int) -> Optional[str]:
    """[h_i, e_j] = a_ij e_j on every basis vector of size <= max_size.

    Per degree d: H_i(d-1) E_j(d) - E_j(d) H_i(d) = a_ij E_j(d).
    """
    window = residue_window(e, max_size)
    op = _op_columns(e)

    def relation(d: int) -> Relation:
        for j in window:
            ej = op("e", j, d)
            for i in window:
                yield i, j, [
                    (1, _product(op("h", i, d - 1), ej)),
                    (-1, _product(ej, op("h", i, d))),
                    (-cartan_entry(i, j, e), ej),
                ]

    return _first_counterexample(e, max_size, relation)


def check_serre(e: int, max_size: int) -> Optional[str]:
    """ad(e_i)^{1 - a_ij}(e_j) annihilates every small basis vector.

    Per degree d and i != j, with m = 1 - a_ij:
    sum_k (-1)^k C(m,k) E_i^{m-k} E_j E_i^k = 0.
    """
    window = residue_window(e, max_size)
    pairs = [(i, j, 1 - cartan_entry(i, j, e)) for i in window for j in window if i != j]
    op = _op_columns(e)

    @cache
    def power(i: int, k: int, d: int) -> Optional[Columns]:
        """E_i^k out of degree d."""
        if k == 0:
            return {c: {c: 1} for c in range(len(partitions_of(d)))} or None
        return _product(op("e", i, d - k + 1), power(i, k - 1, d))

    def relation(d: int) -> Relation:
        for i, j, m in pairs:
            terms = []
            sign, binom = 1, 1
            for k in range(m + 1):
                inner = _product(op("e", j, d - k), power(i, k, d))
                terms.append((sign * binom, _product(power(i, m - k, d - k - 1), inner)))
                sign = -sign
                binom = binom * (m - k) // (k + 1)
            yield i, j, terms

    return _first_counterexample(e, max_size, relation)


# ---------------------------------------------------------------------------
# Crystal checks


def check_partial_inverse(e: int, max_size: int) -> Optional[str]:
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        for i in window:
            mu = f_tilde(lam, i, e)
            if mu is not None and e_tilde(mu, i, e) != lam:
                return f"f_tilde: lambda={lam}, i={i}, e={e}"
            nu = e_tilde(lam, i, e)
            if nu is not None and f_tilde(nu, i, e) != lam:
                return f"e_tilde: lambda={lam}, i={i}, e={e}"
    return None


def check_string_lengths(e: int, max_size: int) -> Optional[str]:
    """The e_tilde and f_tilde strings of lambda have lengths epsilon and phi.

    Each walk stops one step past its expected length, so an operator that
    never returns None is reported instead of walked forever.
    """
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        for i in window:
            for name, step, length in (
                ("epsilon", e_tilde, epsilon(lam, i, e)),
                ("phi", f_tilde, phi(lam, i, e)),
            ):
                steps, cur = 0, lam
                while steps <= length and (cur := step(cur, i, e)) is not None:
                    steps += 1
                if steps > length:
                    return f"{name}: lambda={lam}, i={i}, e={e}, string longer than {length}"
                if steps != length:
                    return f"{name}: lambda={lam}, i={i}, e={e}"
    return None


def check_tilde_signature_agree(e: int, max_size: int) -> Optional[str]:
    """The bracket scans of e_tilde/f_tilde edit the good/cogood box of the
    signature oracle, and crystal_graph, which calls f_tilde only for the
    residues of a node's cogood rows, has the edges of the oracle over the
    whole window."""
    window = residue_window(e, max_size)
    edges = []
    for lam in partitions_up_to(max_size):
        for i in window:
            good, cogood = good_box(lam, i, e), cogood_box(lam, i, e)
            if e_tilde(lam, i, e) != (None if good is None else _edit_row(lam, good.row, -1)):
                return f"e_tilde: lambda={lam}, i={i}, e={e}"
            target = None if cogood is None else _edit_row(lam, cogood.row, 1)
            if f_tilde(lam, i, e) != target:
                return f"f_tilde: lambda={lam}, i={i}, e={e}"
            if target is not None and lam.size < max_size:
                edges.append((lam, target, i))
    if crystal_graph(e, max_size).edges != tuple(edges):
        return f"crystal_graph edges differ from the whole-window oracle (e={e}, d={max_size})"
    return None


def check_weight_compat(e: int, max_size: int) -> Optional[str]:
    """phi_i - epsilon_i = n_i(lambda)."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        for i in window:
            diff = phi(lam, i, e) - epsilon(lam, i, e)
            if diff != n_value(lam, i, e):
                return f"lambda={lam}, i={i}, e={e}"
    return None


def _normal_forms(moves: Callable[[Hashable], Iterable[Hashable]]) -> Callable[[Hashable], frozenset]:
    """The ends of every maximal sequence of moves from a state; the moves must terminate.

    Each state is searched once for as long as the returned search lives,
    so two searches never share results.
    """

    @cache
    def forms(state: Hashable) -> frozenset:
        return frozenset().union(*map(forms, moves(state))) or frozenset([state])

    return forms


def check_confluence(max_len: int) -> Optional[str]:
    """Every order of +- cancellations reaches the stack-scan normal form."""
    normal_forms_of = _normal_forms(
        lambda w: [w[:k] + w[k + 2:] for k in range(len(w) - 1) if w[k:k + 2] == "+-"]
    )
    boxes = [Box(k + 1, 1) for k in range(max_len)]
    for length in range(max_len + 1):
        for bits in product("+-", repeat=length):
            word = "".join(bits)
            normal_forms = normal_forms_of(word)
            synthetic = Signature(tuple(zip(word, boxes)))
            stacked = reduced_signature(synthetic).word
            if normal_forms != frozenset([stacked]):
                return f"word={word}, forms={sorted(normal_forms)}, stack={stacked}"
    return None


def check_socle_coherence(e: int, max_size: int) -> Optional[str]:
    """f_tilde(lambda), when defined, appears with coefficient 1 in f_i."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        for i in window:
            mu = f_tilde(lam, i, e)
            if mu is None:
                continue
            coeff = apply_f(FockVector.basis(lam), i, e).coefficient(mu)
            if coeff != 1:
                return f"lambda={lam}, mu={mu}, i={i}, e={e}, coeff={coeff}"
    return None


def check_connectivity(e: int, max_size: int) -> Optional[str]:
    """Reachability from the empty partition.

    For e = 0 the whole graph is one component rooted at the empty
    partition.  For e >= 2 the graph is genuinely disconnected; the
    component of the empty partition is the highest-weight crystal, whose
    vertices are exactly the e-restricted partitions (consecutive part
    differences < e), and that is what is checked.

    Each edge adds one box and the edges come sorted by source, in node
    order, which is by size: a source's reachability is settled before its
    first edge is read, so one pass finds the component.  An edge out of
    order can only leave a node unreached, never reach one wrongly.
    """
    graph = crystal_graph(e, max_size)
    reached = {Partition()}
    for src, dst, _ in graph.edges:
        if src in reached:
            reached.add(dst)

    def is_restricted(p: Partition) -> bool:
        padded = p + (0,)
        return all(padded[k] - padded[k + 1] < e for k in range(len(padded) - 1))

    for p, _ in graph.nodes:
        if (p in reached) != (not e or is_restricted(p)):
            if not e:
                return f"unreachable node {p} (e=0, d={max_size})"
            return f"component mismatch at {p} (e={e}, d={max_size})"
    return None


def check_addable_monotone(e: int, max_size: int) -> Optional[str]:
    """Adding a cogood i-box never increases the number of addable i-boxes."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        for i in window:
            mu = f_tilde(lam, i, e)
            if mu is None:
                continue
            if _n_addable(mu, i, e) > _n_addable(lam, i, e):
                return f"lambda={lam}, mu={mu}, i={i}, e={e}"
    return None


def check_box_counts(max_size: int) -> Optional[str]:
    """|addable| = |removable| + 1 and add/remove round-trips."""
    for lam in partitions_up_to(max_size):
        if len(addable_boxes(lam)) != len(removable_boxes(lam)) + 1:
            return f"counts: lambda={lam}"
        for b in addable_boxes(lam):
            if remove_box(add_box(lam, b), b) != lam:
                return f"roundtrip: lambda={lam}, box={tuple(b)}"
    return None


# ---------------------------------------------------------------------------
# Block checks


def check_weight_iff_core(e: int, max_degree: int) -> Optional[str]:
    """Equal weight iff equal core, both computed independently."""
    for d in range(max_degree + 1):
        layer = partitions_of(d)
        cores = {p: p_core(p, e) for p in layer}
        weights = {p: weight(p, e) for p in layer}
        for a in layer:
            for b in layer:
                if (cores[a] == cores[b]) != (weights[a] == weights[b]):
                    return f"lambda={a}, mu={b}, d={d}, e={e}"
    return None


def check_zero_modulus_blocks(e: int, max_degree: int) -> Optional[str]:
    """Blocks are singletons and the weight map is injective (true for e = 0)."""
    for d in range(max_degree + 1):
        for block in blocks(d, e):
            if len(block.members) != 1:
                return f"block of core {block.core} has {len(block.members)} members, d={d}"
        layer = partitions_of(d)
        weights = [weight(p, e) for p in layer]
        if len(set(weights)) != len(layer):
            return f"weight map not injective on degree {d}"
    return None


def check_block_sizes(e: int, max_degree: int) -> Optional[str]:
    for d in range(max_degree + 1):
        total = sum(len(b.members) for b in blocks(d, e))
        if total != len(partitions_of(d)):
            return f"d={d}, e={e}, total={total}"
    return None


def check_block_p_weights(e: int, max_degree: int) -> Optional[str]:
    """Each member's greedy hook-removal count matches its block's p-weight."""
    for d in range(max_degree + 1):
        for block in blocks(d, e):
            for member in block.members:
                if _greedy_core_and_weight(member, e)[1] != block.p_weight:
                    return f"member={member}, block core={block.core}, e={e}"
    return None


def _skew_boxes(outer: Partition, inner: Partition) -> list[Box]:
    boxes = []
    for r, length in enumerate(outer, start=1):
        start = inner.row(r)
        boxes.extend(Box(r, c) for c in range(start + 1, length + 1))
    return boxes


def _is_border_strip(boxes: list[Box]) -> bool:
    """Connected skew shape containing no 2x2 square."""
    if not boxes:
        return False
    cells = set(boxes)
    for r, c in cells:
        if {(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= cells:
            return False
    seen = {boxes[0]}
    frontier = [boxes[0]]
    while frontier:
        r, c = frontier.pop()
        for nb in (Box(r - 1, c), Box(r + 1, c), Box(r, c - 1), Box(r, c + 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cells)


def _brute_force_rim_hooks(p: Partition, length: int) -> list[tuple[frozenset[Box], Partition]]:
    """Rim hooks by searching every partition mu of |p| - length inside p.

    Exponential in |p|; the independent oracle for the abacus
    ``removable_rim_hooks``, returning the same list in the same rim order.
    """
    hooks = []
    for mu in partitions_of(p.size - length):
        if len(mu) > len(p) or not all(map(le, mu, p)):
            continue
        skew = _skew_boxes(p, mu)
        if _is_border_strip(skew):
            hooks.append((frozenset(skew), mu))
    hooks.sort(key=lambda hook: min(content(b) for b in hook[0]))
    return hooks


def check_core_well_defined(e: int, max_size: int) -> Optional[str]:
    """Every maximal hook-removal sequence ends at the same core."""
    removal_results = _normal_forms(lambda p: [mu for _, mu in _brute_force_rim_hooks(p, e)])
    for lam in partitions_up_to(max_size):
        results = removal_results(lam)
        expected = p_core(lam, e)
        if results != frozenset([expected]):
            return f"lambda={lam}, e={e}, endpoints={sorted(map(str, results))}"
    return None


def check_rim_hooks_agree(e: int, max_size: int) -> Optional[str]:
    """The abacus rim hooks equal the brute-force ones: boxes, leftovers, order.

    Hooks have length e, or every length 1..|lambda| when e == 0.
    """
    for lam in partitions_up_to(max_size):
        for length in [e] if e else range(1, lam.size + 1):
            if removable_rim_hooks(lam, length) != _brute_force_rim_hooks(lam, length):
                return f"lambda={lam}, length={length}"
    return None


def _greedy_core_and_weight(p: Partition, e: int) -> tuple[Partition, int]:
    """The oracle for ``core_and_weight``: remove the first rim e-hook until none is left."""
    core, hooks_removed = p, 0
    while e and (hooks := removable_rim_hooks(core, e)):
        core, hooks_removed = hooks[0][1], hooks_removed + 1
    return core, hooks_removed


def check_core_beta_agree(e: int, max_size: int) -> Optional[str]:
    """The bead-sliding core and weight agree with greedy hook removal."""
    for lam in partitions_up_to(max_size):
        if core_and_weight(lam, e) != _greedy_core_and_weight(lam, e):
            return f"lambda={lam}, e={e}"
    return None


# ---------------------------------------------------------------------------
# Casimir checks


def check_casimir_branching(max_size: int) -> Optional[str]:
    """c_{n+1}(lam) - c_n(lam - box) = 2(lam_l - l) + |lam| + n, exactly."""
    for lam in partitions_up_to(max_size):
        for box in removable_boxes(lam):
            mu = remove_box(lam, box)
            row = box.row
            for n in range(lam.size, lam.size + 4):
                lhs = casimir_scalar(lam, n + 1) - casimir_scalar(mu, n)
                rhs = 2 * (lam[row - 1] - row) + lam.size + n
                if lhs != rhs:
                    return f"lambda={lam}, box={tuple(box)}, n={n}"
    return None


def check_eigenvalue_contents(e: int, max_size: int) -> Optional[str]:
    """Casimir-derived eigenvalues equal box residues (contents for e=0)."""
    for lam in partitions_up_to(max_size):
        n = lam.size
        for box in removable_boxes(lam):
            if x_eigenvalue(lam, box, n, e) != residue(box, e):
                return f"removal: lambda={lam}, box={tuple(box)}, e={e}"
        for box in addable_boxes(lam):
            if y_eigenvalue(lam, box, max(n + 1, box.row), e) != residue(box, e):
                return f"addition: lambda={lam}, box={tuple(box)}, e={e}"
    return None


def check_eigenvalue_n_independence(e: int, max_size: int) -> Optional[str]:
    for lam in partitions_up_to(max_size):
        for box in removable_boxes(lam):
            values = {
                x_eigenvalue(lam, box, n, e)
                for n in range(lam.size, lam.size + 4)
            }
            if len(values) != 1:
                return f"removal: lambda={lam}, box={tuple(box)}, e={e}"
        for box in addable_boxes(lam):
            start = max(lam.size + 1, box.row)
            values = {
                y_eigenvalue(lam, box, n, e) for n in range(start, start + 4)
            }
            if len(values) != 1:
                return f"addition: lambda={lam}, box={tuple(box)}, e={e}"
    return None


def check_casimir_padding(max_size: int) -> Optional[str]:
    """Evaluating with explicit zero padding changes nothing."""
    for lam in partitions_up_to(max_size):
        for n in range(len(lam), len(lam) + 4):
            padded = lam + (0,) * (n - len(lam))
            direct = sum(
                (n - 2 * i + 1) * part + part * part
                for i, part in enumerate(padded, start=1)
            )
            if direct != casimir_scalar(lam, n):
                return f"lambda={lam}, n={n}"
    return None


# ---------------------------------------------------------------------------
# Character checks


def check_schur_stability(max_size: int, max_vars: int) -> Optional[str]:
    for n in range(1, max_vars + 1):
        for lam in partitions_up_to(max_size):
            if len(lam) <= n - 1:
                left = restrict_last_var(schur(lam, n))
                if left != schur(lam, n - 1):
                    return f"lambda={lam}, n={n}"
    return None


def check_branch_coherence(max_size: int, max_vars: int) -> Optional[str]:
    """Polynomial branching layer equals removable-box enumeration.

    n runs from |lam| to max(|lam|, max_vars), so a partition of more than
    max_vars boxes is still examined, at n = |lam|.
    """
    for lam in partitions_up_to(max_size):
        for n in range(lam.size, max(lam.size, max_vars) + 1):
            expected = sorted(
                (remove_box(lam, b) for b in removable_boxes(lam)), reverse=True
            )
            if branch_r1(lam, n) != expected:
                return f"lambda={lam}, n={n}"
    return None


def check_pieri_coherence(max_size: int, max_vars: int) -> Optional[str]:
    """Schur expansion of s_1 * s_lam equals addable boxes with <= n rows.

    n runs from max(|lam|, 1) to max(|lam|, max_vars), as in branch coherence.
    """
    for lam in partitions_up_to(max_size):
        for n in range(max(lam.size, 1), max(lam.size, max_vars) + 1):
            expected = sorted(
                (add_box(lam, b) for b in addable_boxes(lam) if b.row <= n),
                reverse=True,
            )
            if pieri_mult(lam, n) != expected:
                return f"lambda={lam}, n={n}"
    return None


def pieri_matrix(d: int) -> SparseMatrix:
    """Matrix of adding one box, rows over degree d+1, via Schur expansions."""
    cols = partitions_of(d)
    rows = partitions_of(d + 1)
    row_index = {p: k for k, p in enumerate(rows)}
    entries: dict[tuple[int, int], int] = {}
    for c_idx, lam in enumerate(cols):
        for mu in pieri_mult(lam, d + 1):
            key = (row_index[mu], c_idx)
            entries[key] = entries.get(key, 0) + 1
    return SparseMatrix.build(rows, cols, entries)


def check_pieri_matrix(e: int, max_degree: int) -> Optional[str]:
    """Sum of the f_i matrices over all residues equals the Pieri matrix."""
    for d in range(max_degree + 1):
        total = None
        for i in residue_window(e, d):
            m = op_matrix("f", i, e, d)
            total = m if total is None else total + m
        if total != pieri_matrix(d):
            return f"d={d}, e={e}"
    return None


def check_schur_symmetry(max_size: int, max_vars: int) -> Optional[str]:
    for n in range(max_vars + 1):
        for lam in partitions_up_to(max_size):
            poly = schur(lam, n)
            try:
                SymPolynomial(n, poly.terms)
            except ValueError as exc:
                return f"lambda={lam}, n={n}: {exc}"
    return None


def _ssyt_rows(
    shape: tuple[int, ...], n: int, above: tuple[int, ...] = ()
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All semistandard fillings of the shape with entries in 1..n, below the row above."""
    if not shape:
        yield ()
        return
    for row in _ssyt_row(shape[0], n, above, 1):
        for rest in _ssyt_rows(shape[1:], n, row):
            yield (row,) + rest


def _ssyt_row(width: int, n: int, above: tuple[int, ...], lo: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing rows of entries in lo..n, each greater than the entry above it."""
    if not width:
        yield ()
        return
    for val in range(max(lo, above[0] + 1) if above else lo, n + 1):
        for rest in _ssyt_row(width - 1, n, above[1:], val):
            yield (val,) + rest


def _tableau_schur_terms(shape: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """s_shape(x_1..x_n) by counting semistandard tableaux per weight.

    Exponential in the size; the independent oracle for ``schur`` and
    ``_kostka``, returned as sorted (exponents, count) pairs.
    """
    counts: dict[tuple[int, ...], int] = {}
    for tableau in _ssyt_rows(shape, n):
        exps = [0] * n
        for row in tableau:
            for val in row:
                exps[val - 1] += 1
        key = tuple(exps)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def check_schur_tableaux_agree(max_size: int, max_vars: int) -> Optional[str]:
    """The terms of ``schur``, built from the Kostka rows, equal the tableau counts."""
    for n in range(max_vars + 1):
        for lam in partitions_up_to(max_size):
            if schur(lam, n).terms != dict(_tableau_schur_terms(lam, n)):
                return f"lambda={lam}, n={n}"
    return None


def check_kostka_agree(max_size: int, max_vars: int) -> Optional[str]:
    """The Kostka rows equal the dominant part of the tableau counts.

    One tableau table per shape, in m = min(max_vars, |lam|) variables.  The
    Kostka numbers do not depend on the number of variables, so the rows in
    n variables are the dominant rows of that table with at most n nonzero
    entries, cut or padded with zeros to length n.
    """
    shapes = partitions_up_to(max_size)
    tables = {
        lam: [
            (exps, c)
            for exps, c in _tableau_schur_terms(lam, min(max_vars, lam.size))
            if list(exps) == sorted(exps, reverse=True)
        ]
        for lam in shapes
    }
    for n in range(max_vars + 1):
        for lam in shapes:
            expected = tuple(
                ((exps + (0,) * n)[:n], c) for exps, c in tables[lam] if n >= len(exps) or not exps[n]
            )
            if _kostka(lam, n) != expected:
                return f"lambda={lam}, n={n}"
    return None


def check_jacobi_trudi(max_size: int, max_vars: int) -> Optional[str]:
    for n in range(max_vars + 1):
        for lam in partitions_up_to(max_size):
            if schur(lam, n) != schur_jacobi_trudi(lam, n):
                return f"lambda={lam}, n={n}"
    return None


# ---------------------------------------------------------------------------
# Hecke checks


def check_hecke_relations(max_rank: int) -> Optional[str]:
    for n in range(2, max_rank + 1):
        report = verify_relations(n)
        for name, ok in report.items():
            if not ok:
                return f"relation {name} fails at rank {n}"
    return None


def _random_basis_element(rng: random.Random, n: int, max_degree: int) -> HeckeElement:
    exps = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(n)] += 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return HeckeElement(n, {(tuple(exps), tuple(perm)): 1})


def check_hecke_associativity(max_rank: int, trials: int, seed: int) -> Optional[str]:
    rng = random.Random(seed)
    per_rank = max(1, trials // max(1, max_rank - 1))
    for n in range(2, max_rank + 1):
        for _ in range(per_rank):
            a = _random_basis_element(rng, n, 3)
            b = _random_basis_element(rng, n, 3)
            c = _random_basis_element(rng, n, 3)
            if (a * b) * c != a * (b * c):
                return f"n={n}, a={a!r}, b={b!r}, c={c!r}"
    return None


def check_reduced_word_independence(rank: int) -> Optional[str]:
    """All reduced words of each w in S_rank straighten w*y^a identically, a_k < 3.

    Each word acts on y^a one generator at a time through ``multiply``.  A
    t_w built whole would be peeled by ``multiply`` itself, the same way
    whatever the word, so the check would pass whatever the letters do.
    """
    t = {i: from_generator("t", i, rank) for i in range(1, rank)}
    identity = identity_perm(rank)
    for perm in permutations(range(1, rank + 1)):
        words = list(all_reduced_words(perm))
        for exps in product(range(3), repeat=rank):
            y = HeckeElement(rank, {(exps, identity): 1})
            outcomes = {reduce(lambda v, i: t[i] * v, reversed(word), y) for word in words}
            if len(outcomes) != 1:
                return f"w={perm}, exps={exps}"
    return None


def check_filtration_degree(seed: int) -> Optional[str]:
    rng = random.Random(seed)
    for n in (2, 3, 4):
        for _ in range(40):
            a = _random_basis_element(rng, n, 3)
            b = _random_basis_element(rng, n, 3)
            prod = a * b
            if prod and prod.y_degree() > a.y_degree() + b.y_degree():
                return f"n={n}, a={a!r}, b={b!r}"
    return None


def check_subalgebra_embedding(seed: int) -> Optional[str]:
    """Pure-polynomial and pure-permutation products stay in their subalgebra."""
    rng = random.Random(seed)
    for n in (2, 3, 4):
        ident = identity_perm(n)
        for _ in range(25):
            exps1 = tuple(rng.randint(0, 2) for _ in range(n))
            exps2 = tuple(rng.randint(0, 2) for _ in range(n))
            prod = HeckeElement(n, {(exps1, ident): 1}) * HeckeElement(
                n, {(exps2, ident): 1}
            )
            if any(w != ident for _, w in prod.terms):
                return f"polynomial: n={n}, exps={exps1},{exps2}"
            perm1 = list(range(1, n + 1))
            perm2 = list(range(1, n + 1))
            rng.shuffle(perm1)
            rng.shuffle(perm2)
            zero = (0,) * n
            prod = HeckeElement(n, {(zero, tuple(perm1)): 1}) * HeckeElement(
                n, {(zero, tuple(perm2)): 1}
            )
            if any(e != zero for e, _ in prod.terms):
                return f"permutation: n={n}, perms={perm1},{perm2}"
    return None


# ---------------------------------------------------------------------------
# Suite assembly


class SuiteResult(NamedTuple):
    suite: str
    name: str
    params: dict
    passed: bool
    counterexample: Optional[str]
    elapsed: float

    def json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "name": self.name,
            "params": self.params,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }
        if include_timings:
            out["elapsed"] = round(self.elapsed, 6)
        return out


class VerifyReport(NamedTuple):
    modulus: int
    max_size: int
    seed: int
    results: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def json_dict(self, include_timings: bool = False) -> dict:
        return {
            "modulus": self.modulus,
            "max_size": self.max_size,
            "seed": self.seed,
            "passed": self.passed,
            "results": [r.json_dict(include_timings) for r in self.results],
        }




class Check(NamedTuple):
    """One registry entry.

    The report shows ``params(e, d, seed)`` and the check runs on exactly
    its values, in order, so the two cannot disagree.  It runs only at the
    moduli e for which ``applies(e)`` holds.
    """

    suite: str
    name: str
    run: Callable[..., Optional[str]]
    params: Callable[[int, int, int], dict]
    applies: Callable[[int], bool] = lambda e: True


def _modulus_size(e: int, d: int, seed: int) -> dict:
    return {"modulus": e, "max_size": d}


def _modulus_degree(e: int, d: int, seed: int) -> dict:
    return {"modulus": e, "max_degree": d}


def _size(e: int, d: int, seed: int) -> dict:
    return {"max_size": d}


def _shapes(e: int, d: int, seed: int) -> dict:
    return {"max_size": min(d, 6), "max_vars": 4}


def _seed(e: int, d: int, seed: int) -> dict:
    return {"seed": seed}


# Grouped by suite in name order, which is the order of the report.
CHECKS: tuple[Check, ...] = (
    Check("blocks", "weight_iff_core", check_weight_iff_core, _modulus_degree),
    Check("blocks", "sizes_sum", check_block_sizes, _modulus_degree),
    Check("blocks", "p_weight_constant", check_block_p_weights, _modulus_degree),
    Check("blocks", "core_well_defined", check_core_well_defined,
          lambda e, d, seed: {"modulus": e, "max_degree": min(d, 8)}),
    Check("blocks", "core_beta_agree", check_core_beta_agree, _modulus_degree),
    Check("blocks", "rim_hooks_agree", check_rim_hooks_agree,
          lambda e, d, seed: {"modulus": e, "max_size": min(d, 10)}),
    Check("blocks", "singleton_blocks", check_zero_modulus_blocks, _modulus_degree,
          applies=lambda e: e == 0),
    Check("casimir", "branching_identity", check_casimir_branching, _size),
    Check("casimir", "eigenvalue_contents", check_eigenvalue_contents, _modulus_size),
    Check("casimir", "n_independence", check_eigenvalue_n_independence, _modulus_size),
    Check("casimir", "zero_padding", check_casimir_padding, _size),
    Check("characters", "schur_stability", check_schur_stability, _shapes),
    Check("characters", "branch_coherence", check_branch_coherence, _shapes),
    Check("characters", "pieri_coherence", check_pieri_coherence, _shapes),
    Check("characters", "pieri_matrix", check_pieri_matrix,
          lambda e, d, seed: {"modulus": e, "max_degree": min(d, 6)}),
    Check("characters", "symmetry", check_schur_symmetry, _shapes),
    Check("characters", "schur_tableaux_agree", check_schur_tableaux_agree, _shapes),
    Check("characters", "kostka_agree", check_kostka_agree,
          lambda e, d, seed: {"max_size": min(d, 6), "max_vars": 6}),
    Check("characters", "jacobi_trudi", check_jacobi_trudi,
          lambda e, d, seed: {"max_size": min(d, 5), "max_vars": 4}),
    Check("crystal", "partial_inverse", check_partial_inverse, _modulus_size),
    Check("crystal", "string_lengths", check_string_lengths, _modulus_size),
    Check("crystal", "weight_compat", check_weight_compat, _modulus_size),
    Check("crystal", "confluence", check_confluence, lambda e, d, seed: {"max_len": 10}),
    Check("crystal", "socle_coherence", check_socle_coherence, _modulus_size),
    Check("crystal", "connectivity", check_connectivity, _modulus_size),
    Check("crystal", "addable_monotone", check_addable_monotone, _modulus_size),
    Check("crystal", "box_counts", check_box_counts, _size),
    Check("crystal", "tilde_signature_agree", check_tilde_signature_agree, _modulus_size),
    Check("hecke", "relations", check_hecke_relations, lambda e, d, seed: {"max_rank": 4}),
    Check("hecke", "associativity", check_hecke_associativity,
          lambda e, d, seed: {"max_rank": 4, "trials": 120, "seed": seed}),
    Check("hecke", "reduced_word_independence", check_reduced_word_independence,
          lambda e, d, seed: {"rank": 3}),
    Check("hecke", "filtration_degree", check_filtration_degree, _seed),
    Check("hecke", "subalgebra_embedding", check_subalgebra_embedding, _seed),
    Check("kacmoody", "commutator", check_commutators, _modulus_size),
    Check("kacmoody", "weight_ladder", check_weight_ladder, _modulus_size),
    Check("kacmoody", "cartan_pairing", check_cartan_pairing, _modulus_size),
    Check("kacmoody", "matrix_transpose", check_matrix_transpose,
          lambda e, d, seed: {"modulus": e, "max_size": min(d, 6)}),
    Check("kacmoody", "integrability", check_integrability, _modulus_size),
    Check("kacmoody", "residue_partition", check_residue_partition, _modulus_size),
    Check("serre", "cartan_action", check_cartan_action, _modulus_size),
    Check("serre", "serre_relation", check_serre, _modulus_size),
)

SUITES: tuple[str, ...] = tuple(sorted({check.suite for check in CHECKS}))


def run_verify(suite: str, e: int, d: int, seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run one named suite, or all of them in fixed name order.

    The arguments are checked before any check runs: a size or seed that is
    not an int raises ``TypeError``, a bad modulus, size or suite ``ValueError``.
    An exception inside a check is that check's failure.  The counterexample
    of an ``ArithmeticError`` (a failed self-check) is its message; that of
    any other exception, such as a wrong engine handing ``remove_box`` a box
    that is not removable, is ``"<Type>: <message>"``.

    The checks run in this process and in up to one forked helper per
    further available CPU (``forked.run_shared``); the report is the same
    either way.  Under a profiler, a tracer or other threads they all run
    here.
    """
    e = check_modulus(e)
    d = _check_int(d, "max size", 0)
    seed = _check_int(seed, "seed")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {[*SUITES, 'all']}")
    checks = [check for check in CHECKS if suite in ("all", check.suite) and check.applies(e)]
    params = [check.params(e, d, seed) for check in checks]

    def run_one(k: int) -> tuple[Optional[str], float]:
        start = time.perf_counter()
        try:
            counterexample = checks[k].run(*params[k].values())
        except ArithmeticError as exc:
            counterexample = str(exc)
        except Exception as exc:
            counterexample = f"{type(exc).__name__}: {exc}"
        return counterexample, time.perf_counter() - start

    results = tuple(
        SuiteResult(check.suite, check.name, p, counterexample is None, counterexample, elapsed)
        for check, p, (counterexample, elapsed) in zip(checks, params, run_shared(run_one, len(checks)))
    )
    return VerifyReport(modulus=e, max_size=d, seed=seed, results=results)
