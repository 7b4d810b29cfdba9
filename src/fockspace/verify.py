"""Property suites behind the ``verify`` command.

Every check sweeps an exhaustive parameter range and returns either None
(pass) or a string describing the first counterexample found.  The suites
bundle related checks; the acceptance tests drive the same check functions
at their own parameter ranges, so there is exactly one implementation of
each property.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Optional

from .blocks import blocks
from .casimir import casimir_scalar, x_eigenvalue, y_eigenvalue
from .characters import (
    SymPolynomial,
    branch_r1,
    pieri_mult,
    restrict_last_var,
    schur,
    schur_jacobi_trudi,
)
from .crystal import (
    Signature,
    crystal_graph,
    e_tilde,
    epsilon,
    f_tilde,
    phi,
    reduced_signature,
)
from .hecke import (
    HeckeElement,
    all_reduced_words,
    identity_perm,
    straighten_word_times_poly,
    verify_relations,
)
from .fock import (
    FockVector,
    SparseMatrix,
    apply_e,
    apply_f,
    apply_h,
    cartan_entry,
    op_matrix,
    weight,
)
from .partitions import (
    Box,
    Partition,
    addable_boxes,
    add_box,
    canonical_residue,
    check_modulus,
    m_count,
    n_value,
    p_core,
    p_core_beta,
    p_weight,
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
# Kac-Moody module checks


def check_commutators(e: int, max_size: int) -> Optional[str]:
    """[e_i, f_j] = delta_ij n_i on every basis vector of size <= max_size."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        v = FockVector.basis(lam)
        for i in window:
            ei_v = apply_e(v, i, e)
            for j in window:
                lhs = apply_e(apply_f(v, j, e), i, e) - apply_f(ei_v, j, e)
                rhs = (n_value(lam, i, e) if i == j else 0) * v
                if lhs != rhs:
                    return f"lambda={lam}, i={i}, j={j}, e={e}"
    return None


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
    """n_i(lambda) equals the pairing of wt(lambda) against h_i."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        counts = residue_counts(lam, e)
        for i in window:
            pairing = (1 if canonical_residue(i, e) == canonical_residue(0, e) else 0) - sum(
                counts.get(j, 0) * cartan_entry(i, j, e) for j in window
            )
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


def check_integrability(e: int, max_size: int) -> Optional[str]:
    """f_i^N kills v_lambda once N exceeds the number of addable i-boxes."""
    for lam in partitions_up_to(max_size):
        for i in residue_window(e, max_size):
            n_addable = sum(1 for b in addable_boxes(lam) if residue(b, e) == canonical_residue(i, e))
            v = FockVector.basis(lam)
            for _ in range(n_addable + 1):
                v = apply_f(v, i, e)
            if not v.is_zero():
                return f"lambda={lam}, i={i}, e={e}, N={n_addable + 1}"
    return None


def check_residue_partition(e: int, max_size: int) -> Optional[str]:
    """For e >= 2 the residues partition the boxes: sum_i m_i = |lambda|."""
    if e == 0:
        return None
    for lam in partitions_up_to(max_size):
        if sum(m_count(lam, i, e) for i in range(e)) != lam.size:
            return f"lambda={lam}, e={e}"
    return None


# ---------------------------------------------------------------------------
# Cartan action and Serre relations


def check_cartan_action(e: int, max_size: int) -> Optional[str]:
    """[h_i, e_j] = a_ij e_j on every basis vector of size <= max_size."""
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        v = FockVector.basis(lam)
        for j in window:
            ej_v = apply_e(v, j, e)
            for i in window:
                lhs = apply_h(ej_v, i, e) - apply_e(apply_h(v, i, e), j, e)
                rhs = cartan_entry(i, j, e) * ej_v
                if lhs != rhs:
                    return f"lambda={lam}, i={i}, j={j}, e={e}"
    return None


def check_serre(e: int, max_size: int) -> Optional[str]:
    """ad(e_i)^{1 - a_ij}(e_j) annihilates every small basis vector.

    Checked for e = 0 and e >= 3 (simply-laced rows of the Cartan matrix).
    """
    if e == 2:
        return None
    window = residue_window(e, max_size)
    for lam in partitions_up_to(max_size):
        v = FockVector.basis(lam)
        for i in window:
            for j in window:
                if canonical_residue(i, e) == canonical_residue(j, e):
                    continue
                m = 1 - cartan_entry(i, j, e)
                # sum_k (-1)^k C(m,k) e_i^{m-k} e_j e_i^k
                total = FockVector.zero()
                sign, binom = 1, 1
                for k in range(m + 1):
                    term = v
                    for _ in range(k):
                        term = apply_e(term, i, e)
                    term = apply_e(term, j, e)
                    for _ in range(m - k):
                        term = apply_e(term, i, e)
                    total = total + (sign * binom) * term
                    sign = -sign
                    binom = binom * (m - k) // (k + 1)
                if not total.is_zero():
                    return f"lambda={lam}, i={i}, j={j}, e={e}"
    return None


# ---------------------------------------------------------------------------
# Crystal checks


def check_partial_inverse(e: int, max_size: int) -> Optional[str]:
    for lam in partitions_up_to(max_size):
        for i in residue_window(e, max_size):
            mu = f_tilde(lam, i, e)
            if mu is not None and e_tilde(mu, i, e) != lam:
                return f"f_tilde: lambda={lam}, i={i}, e={e}"
            nu = e_tilde(lam, i, e)
            if nu is not None and f_tilde(nu, i, e) != lam:
                return f"e_tilde: lambda={lam}, i={i}, e={e}"
    return None


def check_string_lengths(e: int, max_size: int) -> Optional[str]:
    for lam in partitions_up_to(max_size):
        for i in residue_window(e, max_size):
            steps, cur = 0, lam
            while (cur := e_tilde(cur, i, e)) is not None:
                steps += 1
            if steps != epsilon(lam, i, e):
                return f"epsilon: lambda={lam}, i={i}, e={e}"
            steps, cur = 0, lam
            while (cur := f_tilde(cur, i, e)) is not None:
                steps += 1
            if steps != phi(lam, i, e):
                return f"phi: lambda={lam}, i={i}, e={e}"
    return None


def check_weight_compat(e: int, max_size: int) -> Optional[str]:
    """phi_i - epsilon_i = n_i(lambda)."""
    for lam in partitions_up_to(max_size):
        for i in residue_window(e, max_size):
            diff = phi(lam, i, e) - epsilon(lam, i, e)
            if diff != n_value(lam, i, e):
                return f"lambda={lam}, i={i}, e={e}"
    return None


def _all_cancellations(word: str, memo: dict[str, frozenset[str]]) -> frozenset[str]:
    if word in memo:
        return memo[word]
    spots = [k for k in range(len(word) - 1) if word[k] == "+" and word[k + 1] == "-"]
    if not spots:
        result = frozenset([word])
    else:
        acc: set[str] = set()
        for k in spots:
            acc |= _all_cancellations(word[:k] + word[k + 2:], memo)
        result = frozenset(acc)
    memo[word] = result
    return result


def check_confluence(max_len: int) -> Optional[str]:
    """Every order of +- cancellations reaches the stack-scan normal form."""
    memo: dict[str, frozenset[str]] = {}
    for length in range(max_len + 1):
        for bits in product("+-", repeat=length):
            word = "".join(bits)
            normal_forms = _all_cancellations(word, memo)
            synthetic = Signature(
                tuple((ch, Box(k + 1, 1)) for k, ch in enumerate(word))
            )
            stacked = reduced_signature(synthetic).word
            if normal_forms != frozenset([stacked]):
                return f"word={word}, forms={sorted(normal_forms)}, stack={stacked}"
    return None


def check_socle_coherence(e: int, max_size: int) -> Optional[str]:
    """f_tilde(lambda), when defined, appears with coefficient 1 in f_i."""
    for lam in partitions_up_to(max_size):
        for i in residue_window(e, max_size):
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
    """
    graph = crystal_graph(e, max_size)
    reached = {Partition()}
    frontier = [Partition()]
    adjacency: dict[Partition, list[Partition]] = {}
    for src, dst, _ in graph.edges:
        adjacency.setdefault(src, []).append(dst)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, []):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    if e == 0:
        for p, _ in graph.nodes:
            if p not in reached:
                return f"unreachable node {p} (e=0, d={max_size})"
        return None

    def is_restricted(p: Partition) -> bool:
        padded = p.parts + (0,)
        return all(padded[k] - padded[k + 1] < e for k in range(len(padded) - 1))

    for p, _ in graph.nodes:
        if (p in reached) != is_restricted(p):
            return f"component mismatch at {p} (e={e}, d={max_size})"
    return None


def check_addable_monotone(e: int, max_size: int) -> Optional[str]:
    """Adding a cogood i-box never increases the number of addable i-boxes."""
    for lam in partitions_up_to(max_size):
        for i in residue_window(e, max_size):
            mu = f_tilde(lam, i, e)
            if mu is None:
                continue
            before = sum(1 for b in addable_boxes(lam) if residue(b, e) == canonical_residue(i, e))
            after = sum(1 for b in addable_boxes(mu) if residue(b, e) == canonical_residue(i, e))
            if after > before:
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


def check_zero_modulus_blocks(max_degree: int) -> Optional[str]:
    """For e = 0 blocks are singletons and the weight map is injective."""
    for d in range(max_degree + 1):
        for block in blocks(d, 0):
            if len(block.members) != 1:
                return f"block of core {block.core} has {len(block.members)} members, d={d}"
        layer = partitions_of(d)
        weights = [weight(p, 0) for p in layer]
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
    """Each member's own hook-removal count matches its block's p-weight."""
    if e == 0:
        return None
    for d in range(max_degree + 1):
        for block in blocks(d, e):
            for member in block.members:
                if p_weight(member, e) != block.p_weight:
                    return f"member={member}, block core={block.core}, e={e}"
    return None


def _removal_results(p: Partition, e: int, memo: dict[Partition, frozenset[Partition]]) -> frozenset[Partition]:
    if p in memo:
        return memo[p]
    hooks = removable_rim_hooks(p, e)
    if not hooks:
        result = frozenset([p])
    else:
        acc: set[Partition] = set()
        for _, mu in hooks:
            acc |= _removal_results(mu, e, memo)
        result = frozenset(acc)
    memo[p] = result
    return result


def check_core_well_defined(e: int, max_size: int) -> Optional[str]:
    """Every maximal hook-removal sequence ends at the same core."""
    if e == 0:
        return None
    memo: dict[Partition, frozenset[Partition]] = {}
    for lam in partitions_up_to(max_size):
        results = _removal_results(lam, e, memo)
        expected = p_core(lam, e)
        if results != frozenset([expected]):
            return f"lambda={lam}, e={e}, endpoints={sorted(map(str, results))}"
    return None


def check_core_beta_agree(e: int, max_size: int) -> Optional[str]:
    """Greedy removal agrees with the bead-sliding construction."""
    for lam in partitions_up_to(max_size):
        if p_core(lam, e) != p_core_beta(lam, e):
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
                rhs = 2 * (lam.parts[row - 1] - row) + lam.size + n
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
        for n in range(len(lam.parts), len(lam.parts) + 4):
            padded = lam.parts + (0,) * (n - len(lam.parts))
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
            if len(lam.parts) <= n - 1:
                left = restrict_last_var(schur(lam, n))
                if left != schur(lam, n - 1):
                    return f"lambda={lam}, n={n}"
    return None


def check_branch_coherence(max_size: int, max_vars: int) -> Optional[str]:
    """Polynomial branching layer equals removable-box enumeration."""
    for lam in partitions_up_to(max_size):
        for n in range(lam.size, max_vars + 1):
            expected = sorted(
                (remove_box(lam, b) for b in removable_boxes(lam)), reverse=True
            )
            if branch_r1(lam, n) != expected:
                return f"lambda={lam}, n={n}"
    return None


def check_pieri_coherence(max_size: int, max_vars: int) -> Optional[str]:
    """Schur expansion of s_1 * s_lam equals addable boxes with <= n rows."""
    for lam in partitions_up_to(max_size):
        for n in range(max(lam.size, 1), max_vars + 1):
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
                SymPolynomial(n, poly.terms, validate=True)
            except ValueError as exc:
                return f"lambda={lam}, n={n}: {exc}"
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


def check_reduced_word_independence() -> Optional[str]:
    """All reduced words of each w in S_3 straighten w*y^a identically."""
    for perm in permutations((1, 2, 3)):
        words = list(all_reduced_words(perm))
        for exps in product(range(3), repeat=3):
            outcomes = {
                straighten_word_times_poly(word, exps, 3) for word in words
            }
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


@dataclass(frozen=True)
class SuiteResult:
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


@dataclass(frozen=True)
class VerifyReport:
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


def _timed(suite: str, name: str, params: dict, fn: Callable[[], Optional[str]]) -> SuiteResult:
    start = time.perf_counter()
    counterexample = fn()
    elapsed = time.perf_counter() - start
    return SuiteResult(suite, name, params, counterexample is None, counterexample, elapsed)


def _suite_kacmoody(e: int, d: int, seed: int) -> list[SuiteResult]:
    ed = {"modulus": e, "max_size": d}
    return [
        _timed("kacmoody", "commutator", ed, lambda: check_commutators(e, d)),
        _timed("kacmoody", "weight_ladder", ed, lambda: check_weight_ladder(e, d)),
        _timed("kacmoody", "cartan_pairing", ed, lambda: check_cartan_pairing(e, d)),
        _timed("kacmoody", "matrix_transpose", ed, lambda: check_matrix_transpose(e, min(d, 6))),
        _timed("kacmoody", "integrability", ed, lambda: check_integrability(e, d)),
        _timed("kacmoody", "residue_partition", ed, lambda: check_residue_partition(e, d)),
    ]


def _suite_serre(e: int, d: int, seed: int) -> list[SuiteResult]:
    ed = {"modulus": e, "max_size": d}
    return [
        _timed("serre", "cartan_action", ed, lambda: check_cartan_action(e, d)),
        _timed("serre", "serre_relation", ed, lambda: check_serre(e, d)),
    ]


def _suite_crystal(e: int, d: int, seed: int) -> list[SuiteResult]:
    ed = {"modulus": e, "max_size": d}
    return [
        _timed("crystal", "partial_inverse", ed, lambda: check_partial_inverse(e, d)),
        _timed("crystal", "string_lengths", ed, lambda: check_string_lengths(e, d)),
        _timed("crystal", "weight_compat", ed, lambda: check_weight_compat(e, d)),
        _timed("crystal", "confluence", {"max_len": 10}, lambda: check_confluence(10)),
        _timed("crystal", "socle_coherence", ed, lambda: check_socle_coherence(e, d)),
        _timed("crystal", "connectivity", ed, lambda: check_connectivity(e, d)),
        _timed("crystal", "addable_monotone", ed, lambda: check_addable_monotone(e, d)),
        _timed("crystal", "box_counts", {"max_size": d}, lambda: check_box_counts(d)),
    ]


def _suite_blocks(e: int, d: int, seed: int) -> list[SuiteResult]:
    ed = {"modulus": e, "max_degree": d}
    out = [
        _timed("blocks", "weight_iff_core", ed, lambda: check_weight_iff_core(e, d)),
        _timed("blocks", "sizes_sum", ed, lambda: check_block_sizes(e, d)),
        _timed("blocks", "p_weight_constant", ed, lambda: check_block_p_weights(e, d)),
        _timed("blocks", "core_well_defined", ed, lambda: check_core_well_defined(e, min(d, 8))),
        _timed("blocks", "core_beta_agree", ed, lambda: check_core_beta_agree(e, d)),
    ]
    if e == 0:
        out.append(
            _timed("blocks", "singleton_blocks", ed, lambda: check_zero_modulus_blocks(d))
        )
    return out


def _suite_casimir(e: int, d: int, seed: int) -> list[SuiteResult]:
    ed = {"modulus": e, "max_size": d}
    return [
        _timed("casimir", "branching_identity", {"max_size": d}, lambda: check_casimir_branching(d)),
        _timed("casimir", "eigenvalue_contents", ed, lambda: check_eigenvalue_contents(e, d)),
        _timed("casimir", "n_independence", ed, lambda: check_eigenvalue_n_independence(e, d)),
        _timed("casimir", "zero_padding", {"max_size": d}, lambda: check_casimir_padding(d)),
    ]


def _suite_characters(e: int, d: int, seed: int) -> list[SuiteResult]:
    size = min(d, 6)
    nv = 4
    p = {"max_size": size, "max_vars": nv}
    return [
        _timed("characters", "schur_stability", p, lambda: check_schur_stability(size, nv)),
        _timed("characters", "branch_coherence", p, lambda: check_branch_coherence(size, nv)),
        _timed("characters", "pieri_coherence", p, lambda: check_pieri_coherence(size, nv)),
        _timed(
            "characters",
            "pieri_matrix",
            {"modulus": e, "max_degree": size},
            lambda: check_pieri_matrix(e, size),
        ),
        _timed("characters", "symmetry", p, lambda: check_schur_symmetry(size, nv)),
        _timed(
            "characters",
            "jacobi_trudi",
            {"max_size": min(size, 5), "max_vars": nv},
            lambda: check_jacobi_trudi(min(size, 5), nv),
        ),
    ]


def _suite_hecke(e: int, d: int, seed: int) -> list[SuiteResult]:
    return [
        _timed("hecke", "relations", {"max_rank": 4}, lambda: check_hecke_relations(4)),
        _timed(
            "hecke",
            "associativity",
            {"max_rank": 4, "trials": 120, "seed": seed},
            lambda: check_hecke_associativity(4, 120, seed),
        ),
        _timed(
            "hecke",
            "reduced_word_independence",
            {"rank": 3},
            lambda: check_reduced_word_independence(),
        ),
        _timed("hecke", "filtration_degree", {"seed": seed}, lambda: check_filtration_degree(seed)),
        _timed(
            "hecke",
            "subalgebra_embedding",
            {"seed": seed},
            lambda: check_subalgebra_embedding(seed),
        ),
    ]


SUITES: dict[str, Callable[[int, int, int], list[SuiteResult]]] = {
    "blocks": _suite_blocks,
    "casimir": _suite_casimir,
    "characters": _suite_characters,
    "crystal": _suite_crystal,
    "hecke": _suite_hecke,
    "kacmoody": _suite_kacmoody,
    "serre": _suite_serre,
}


def run_verify(suite: str, e: int, d: int, seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run one named suite, or all of them in fixed name order."""
    check_modulus(e)
    if d < 0:
        raise ValueError(f"max size must be >= 0, got {d}")
    if suite == "all":
        names = sorted(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES) + ['all']}")
    results: list[SuiteResult] = []
    for name in names:
        results.extend(SUITES[name](e, d, seed))
    return VerifyReport(modulus=e, max_size=d, seed=seed, results=tuple(results))
