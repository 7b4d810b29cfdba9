"""Acceptance gate: every exact identity at its stated parameter range.

Each test prints one ``ACCEPTANCE <k> ...: PASS`` line (run pytest with -s
to see them) and fails with the first counterexample otherwise.  All
comparisons are exact integer equalities; the stated runtime budgets are
asserted as upper bounds.
"""

import time

from fockspace.verify import (
    DEFAULT_SEED,
    check_branch_coherence,
    check_cartan_action,
    check_casimir_branching,
    check_commutators,
    check_core_well_defined,
    check_eigenvalue_contents,
    check_hecke_associativity,
    check_hecke_relations,
    check_integrability,
    check_partial_inverse,
    check_pieri_coherence,
    check_pieri_matrix,
    check_reduced_word_independence,
    check_serre,
    check_string_lengths,
    check_weight_compat,
    check_weight_iff_core,
)


def _gate(number: int, label: str, budget_seconds: float, runs) -> None:
    start = time.perf_counter()
    for description, thunk in runs:
        counterexample = thunk()
        assert counterexample is None, f"criterion {number} ({description}): {counterexample}"
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"


def test_criterion_1_kac_moody_commutators():
    _gate(
        1,
        "[e_i, f_j] = delta_ij n_i on |lam| <= 9, e in {0,2,3,5}",
        60.0,
        [
            (f"e={e}", lambda e=e: check_commutators(e, 9))
            for e in (0, 2, 3, 5)
        ],
    )


def test_criterion_2_cartan_and_serre():
    runs = []
    for e in (2, 3, 5, 0):
        runs.append((f"cartan e={e}", lambda e=e: check_cartan_action(e, 7)))
        runs.append((f"serre e={e}", lambda e=e: check_serre(e, 7)))
    _gate(2, "[h_i,e_j] = a_ij e_j and Serre on |lam| <= 7, e in {2,3,5,0}", 60.0, runs)


def test_criterion_3_crystal_axioms():
    runs = []
    for e in (0, 2, 3, 5):
        runs.append((f"partial inverse e={e}", lambda e=e: check_partial_inverse(e, 10)))
        runs.append((f"string lengths e={e}", lambda e=e: check_string_lengths(e, 10)))
        runs.append((f"weight compat e={e}", lambda e=e: check_weight_compat(e, 10)))
    _gate(3, "crystal axioms on |lam| <= 10, e in {0,2,3,5}", 30.0, runs)


def test_criterion_4_block_theorem():
    _gate(
        4,
        "weight equality iff core equality, d <= 10, e in {2,3,5}",
        60.0,
        [
            (f"e={e}", lambda e=e: check_weight_iff_core(e, 10))
            for e in (2, 3, 5)
        ],
    )


def test_criterion_5_casimir_identity():
    _gate(
        5,
        "Casimir branching identity and eigenvalue contents, |lam| <= 10",
        10.0,
        [
            ("branching identity", lambda: check_casimir_branching(10)),
            ("eigenvalues are contents", lambda: check_eigenvalue_contents(0, 10)),
        ],
    )


def test_criterion_6_branching_and_pieri():
    _gate(
        6,
        "Schur expansions equal box enumeration; total f matrix is Pieri",
        120.0,
        [
            ("branching layers", lambda: check_branch_coherence(6, 4)),
            ("Pieri products", lambda: check_pieri_coherence(6, 4)),
            ("Pieri matrix e=3", lambda: check_pieri_matrix(3, 6)),
            ("Pieri matrix e=0", lambda: check_pieri_matrix(0, 6)),
        ],
    )


def test_criterion_7_hecke_algebra():
    _gate(
        7,
        "Hecke relations, associativity, reduced-word independence",
        30.0,
        [
            ("relations n in {2,3,4}", lambda: check_hecke_relations(4)),
            (
                "associativity on 120 seeded triples",
                lambda: check_hecke_associativity(4, 120, DEFAULT_SEED),
            ),
            ("reduced words of S_3", lambda: check_reduced_word_independence(3)),
        ],
    )


def test_criterion_8_core_well_definedness():
    _gate(
        8,
        "every maximal hook-removal sequence reaches the core, |lam| <= 8",
        60.0,
        [
            (f"e={e}", lambda e=e: check_core_well_defined(e, 8))
            for e in (2, 3)
        ],
    )


def test_criterion_9_integrability():
    _gate(
        9,
        "f_i^(1 + addable count) kills v_lam, |lam| <= 8, e in {0,2,3}",
        10.0,
        [
            (f"e={e}", lambda e=e: check_integrability(e, 8))
            for e in (0, 2, 3)
        ],
    )
