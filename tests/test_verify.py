import inspect
import json

import pytest

import fockspace.characters as characters
import fockspace.forked as forked
import fockspace.hecke as hecke_module
import fockspace.verify as verify_module
from fockspace.crystal import Signature
from fockspace.partitions import MINUS, Partition
from fockspace.verify import (
    CHECKS,
    DEFAULT_SEED,
    SUITES,
    check_block_p_weights,
    check_branch_coherence,
    check_confluence,
    check_connectivity,
    check_core_well_defined,
    check_filtration_degree,
    check_jacobi_trudi,
    check_pieri_coherence,
    check_reduced_word_independence,
    check_residue_partition,
    check_rim_hooks_agree,
    check_schur_symmetry,
    check_subalgebra_embedding,
    check_zero_modulus_blocks,
    run_verify,
)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("e", [0, 2, 3])
def test_each_suite_passes_at_small_parameters(suite, e):
    report = run_verify(suite, e, 4, DEFAULT_SEED)
    failing = [r for r in report.results if not r.passed]
    assert not failing, failing


def test_run_all_collects_every_suite():
    report = run_verify("all", 3, 3, DEFAULT_SEED)
    assert {r.suite for r in report.results} == set(SUITES)
    # report order is fixed by suite name
    suites_in_order = [r.suite for r in report.results]
    assert suites_in_order == sorted(suites_in_order)
    assert len({(r.suite, r.name) for r in report.results}) == len(report.results)
    assert report.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify("nope", 2, 3)
    with pytest.raises(ValueError):
        run_verify("all", 1, 3)
    with pytest.raises(ValueError):
        run_verify("all", 2, -1)


def test_a_size_that_is_not_an_int_is_refused_before_any_check(monkeypatch):
    ran = []
    monkeypatch.setattr(
        verify_module, "CHECKS", tuple(c._replace(run=lambda *a: ran.append(a)) for c in CHECKS)
    )
    for d in (1.5, 3.0, "3"):
        with pytest.raises(TypeError, match="max size must be an integer, got"):
            run_verify("all", 3, d)
    assert ran == []


def test_the_normal_form_search_reports_every_normal_form():
    # n -> n - 2 or n - 3 while that stays >= 0: 7 ends at 1 by 7, 5, 3, 1 and at 0 by 7, 4, 2, 0
    searched = []

    def moves(n):
        searched.append(n)
        return [m for m in (n - 2, n - 3) if m >= 0]

    forms = verify_module._normal_forms(moves)
    assert forms(7) == frozenset([0, 1])
    assert forms(2) == frozenset([0]) and forms(1) == frozenset([1])
    # each state is searched once, however many paths reach it
    assert sorted(searched) == [0, 1, 2, 3, 4, 5, 7]


def test_two_normal_form_searches_do_not_share_results():
    to_b = verify_module._normal_forms(lambda s: ["b"] if s == "a" else [])
    to_c = verify_module._normal_forms(lambda s: ["c"] if s == "a" else [])
    assert to_b("a") == frozenset(["b"])
    assert to_c("a") == frozenset(["c"])
    assert to_b("a") == frozenset(["b"])


def test_confluence_and_core_checks_search_with_their_own_moves(monkeypatch):
    built = []
    original = verify_module._normal_forms

    def recording(moves):
        built.append(moves)
        return original(moves)

    monkeypatch.setattr(verify_module, "_normal_forms", recording)
    assert check_confluence(4) is None
    assert check_core_well_defined(2, 5) is None
    assert len(built) == 2
    assert built[0]("++--") == ["+-"]
    assert built[1](Partition((3,))) == [Partition((1,))]


def test_report_json_is_seed_stable():
    a = run_verify("hecke", 2, 3, 99).json_dict()
    b = run_verify("hecke", 2, 3, 99).json_dict()
    assert json.dumps(a) == json.dumps(b)


def test_timings_are_opt_in():
    report = run_verify("casimir", 2, 3, DEFAULT_SEED)
    plain = report.json_dict()
    timed = report.json_dict(include_timings=True)
    assert "elapsed" not in plain["results"][0]
    assert "elapsed" in timed["results"][0]


def test_counterexamples_are_none_on_pass():
    report = run_verify("crystal", 2, 4, DEFAULT_SEED)
    assert all(r.counterexample is None for r in report.results)


def test_confluence_reference():
    assert check_confluence(8) is None


def test_confluence_catches_a_scan_that_cancels_minus_plus(monkeypatch):
    def cancel_minus_plus(sig):
        minuses, pluses = [], []
        for symbol in sig.symbols:
            if symbol[0] == MINUS:
                minuses.append(symbol)
            elif minuses:
                minuses.pop()
            else:
                pluses.append(symbol)
        return Signature(tuple(pluses + minuses))

    monkeypatch.setattr(verify_module, "reduced_signature", cancel_minus_plus)
    assert check_confluence(6) == "word=+-, forms=[''], stack=+-"


def test_jacobi_trudi_catches_a_doubled_h2(monkeypatch):
    original = characters.complete_homogeneous
    monkeypatch.setattr(
        characters, "complete_homogeneous", lambda k, n: (2 if k == 2 else 1) * original(k, n)
    )
    assert check_jacobi_trudi(5, 4) == "lambda=[2], n=1"


def test_connectivity_both_regimes():
    assert check_connectivity(0, 6) is None
    assert check_connectivity(2, 6) is None
    assert check_connectivity(3, 6) is None


@pytest.mark.parametrize("e", [2, 3])
def test_exhaustive_hook_removal_well_defined(e):
    assert check_core_well_defined(e, 6) is None


def test_blocks_suite_checks_the_abacus_rim_hooks():
    for e in (0, 2, 3, 5):
        report = run_verify("blocks", e, 12, DEFAULT_SEED)
        (result,) = [r for r in report.results if r.name == "rim_hooks_agree"]
        assert result.passed and result.params == {"modulus": e, "max_size": 10}


def test_rim_hooks_agree_catches_a_wrong_rim_order(monkeypatch):
    original = verify_module.removable_rim_hooks
    monkeypatch.setattr(
        verify_module, "removable_rim_hooks", lambda p, length: original(p, length)[::-1]
    )
    assert check_rim_hooks_agree(2, 4) == "lambda=[2,2], length=2"


def _spy_on_checks(monkeypatch) -> list[tuple[str, str, tuple]]:
    """Swap every registry check for a passing spy; return the calls it sees.

    The spies record into this process, so every check runs here (one CPU).
    """
    calls: list[tuple[str, str, tuple]] = []
    monkeypatch.setattr(forked, "_available_cpus", lambda: 1)

    def spy(check):
        def record(*args):
            calls.append((check.suite, check.name, args))

        return record

    monkeypatch.setattr(
        verify_module, "CHECKS", tuple(check._replace(run=spy(check)) for check in CHECKS)
    )
    return calls


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("e", [0, 3])
@pytest.mark.parametrize("d", [6, 10])
def test_each_check_runs_at_the_params_it_reports(monkeypatch, suite, e, d):
    calls = _spy_on_checks(monkeypatch)
    report = run_verify(suite, e, d, DEFAULT_SEED)
    assert calls and report.passed
    assert calls == [(r.suite, r.name, tuple(r.params.values())) for r in report.results]
    # the real check is a public check function, not a wrapper that could
    # change the values, and it accepts exactly those arguments
    for check in CHECKS:
        if check.suite == suite:
            assert getattr(verify_module, check.run.__name__) is check.run
            assert check.run.__name__.startswith("check_")
            inspect.signature(check.run).bind(*check.params(e, d, DEFAULT_SEED).values())


def test_clamped_sizes_are_reported_as_run(monkeypatch):
    calls = _spy_on_checks(monkeypatch)
    kacmoody = {r.name: r.params for r in run_verify("kacmoody", 3, 8).results}
    assert kacmoody["matrix_transpose"] == {"modulus": 3, "max_size": 6}
    blocks = {r.name: r.params for r in run_verify("blocks", 3, 10).results}
    assert blocks["core_well_defined"] == {"modulus": 3, "max_degree": 8}
    assert ("kacmoody", "matrix_transpose", (3, 6)) in calls
    assert ("blocks", "core_well_defined", (3, 8)) in calls


def test_singleton_blocks_runs_only_at_modulus_zero():
    for e in (0, 2, 3, 5):
        names = [r.name for r in run_verify("blocks", e, 3).results]
        assert ("singleton_blocks" in names) == (e == 0)
    # the check itself takes the modulus its params state
    assert check_zero_modulus_blocks(0, 6) is None
    assert check_zero_modulus_blocks(3, 6) == "block of core [] has 3 members, d=3"


def test_reduced_word_independence_takes_its_rank():
    for rank in (1, 2, 3):
        assert check_reduced_word_independence(rank) is None


def test_reduced_word_independence_applies_each_letter(monkeypatch):
    """A wrong t_1 shows: a t_w built whole would be peeled alike for every word."""
    original = hecke_module._times_letter

    def negated_t1(i, terms):
        image = original(i, terms)
        if i != 1:
            return image
        kept = {u for _, u in terms}
        return {(a, u): -c if u in kept else c for (a, u), c in image.items()}

    monkeypatch.setattr(hecke_module, "_times_letter", negated_t1)
    assert check_reduced_word_independence(3) == "w=(3, 2, 1), exps=(0, 0, 1)"
    assert check_reduced_word_independence(4) == "w=(3, 2, 1, 4), exps=(0, 0, 1, 0)"


def test_hecke_relations_catch_negated_divided_differences(monkeypatch):
    """t_i y^a u = y^{s_i a} (s_i u) - d_i(y^a) u breaks t_1 y_2 - y_1 t_1 = 1 first."""
    original = hecke_module._times_letter

    def negated_differences(i, terms):
        swapped = {}
        for (a, u), c in terms.items():
            line = list(u)
            line[u.index(i)], line[u.index(i + 1)] = i + 1, i
            key = (a[:i - 1] + (a[i], a[i - 1]) + a[i + 1:], tuple(line))
            swapped[key] = swapped.get(key, 0) + c
        image = original(i, terms)
        faulty = {k: 2 * swapped.get(k, 0) - image.get(k, 0) for k in swapped.keys() | image.keys()}
        return {k: c for k, c in faulty.items() if c}

    monkeypatch.setattr(hecke_module, "_times_letter", negated_differences)
    expected = "relation cross_relation fails at rank 2"
    assert verify_module.check_hecke_relations(4) == expected
    report = run_verify("hecke", 3, 6)
    assert {r.name: r.counterexample for r in report.results}["relations"] == expected


def test_filtration_and_embedding_catch_a_letter_that_leaves_y_i_behind(monkeypatch):
    """t_i y^0 u gains an extra y_i u: the y-degree grows, and a product of two permutations gains y terms."""
    original = hecke_module._times_letter

    def leaving_y_i(i, terms):
        image = original(i, terms)
        for (a, u), c in terms.items():
            if not any(a):
                key = (a[:i - 1] + (1,) + a[i:], u)
                image[key] = image.get(key, 0) + c
        return {k: c for k, c in image.items() if c}

    monkeypatch.setattr(hecke_module, "_times_letter", leaving_y_i)
    filtration = "n=2, a=HeckeElement(n=2, 1*y^[2, 0]*[2, 1]), b=HeckeElement(n=2, 1*y^[0, 0]*[1, 2])"
    embedding = "permutation: n=2, perms=[2, 1],[1, 2]"
    assert check_filtration_degree(DEFAULT_SEED) == filtration
    assert check_subalgebra_embedding(DEFAULT_SEED) == embedding
    found = {r.name: r.counterexample for r in run_verify("hecke", 3, 6).results}
    assert (found["filtration_degree"], found["subalgebra_embedding"]) == (filtration, embedding)


def test_symmetry_catches_a_lost_rearrangement(monkeypatch):
    """Each Schur term with more than one rearrangement loses its last one."""
    original = characters._rearrangements

    def dropping_the_last(mu):
        vectors = list(original(mu))
        return vectors[:-1] if len(vectors) > 1 else vectors

    monkeypatch.setattr(characters, "_rearrangements", dropping_the_last)
    expected = "lambda=[1], n=2: not symmetric at (0, 1) <-> (1, 0)"
    assert check_schur_symmetry(6, 4) == expected
    report = run_verify("characters", 3, 6)
    assert {r.name: r.counterexample for r in report.results}["symmetry"] == expected


def _dropping_the_last_above_four_boxes(engine):
    return lambda lam, n: engine(lam, n)[:-1] if lam.size > 4 else engine(lam, n)


def test_branch_coherence_examines_partitions_past_max_vars(monkeypatch):
    monkeypatch.setattr(verify_module, "branch_r1",
                        _dropping_the_last_above_four_boxes(verify_module.branch_r1))
    assert check_branch_coherence(6, 4) == "lambda=[5], n=5"


def test_pieri_coherence_examines_partitions_past_max_vars(monkeypatch):
    monkeypatch.setattr(verify_module, "pieri_mult",
                        _dropping_the_last_above_four_boxes(verify_module.pieri_mult))
    assert check_pieri_coherence(6, 4) == "lambda=[5], n=5"


def test_residue_partition_examines_the_window_at_modulus_zero(monkeypatch):
    original = verify_module.residue_counts
    monkeypatch.setattr(
        verify_module,
        "residue_counts",
        lambda p, e: {i: c for i, c in original(p, e).items() if i >= 0},
    )
    assert check_residue_partition(0, 4) == "lambda=[1,1], e=0"


def test_p_weight_constant_examines_blocks_at_modulus_zero(monkeypatch):
    original = verify_module.blocks
    monkeypatch.setattr(
        verify_module,
        "blocks",
        lambda d, e: [b._replace(p_weight=b.p_weight + 1) for b in original(d, e)],
    )
    assert check_block_p_weights(0, 3) == "member=[], block core=[], e=0"


def test_core_well_defined_examines_cores_at_modulus_zero(monkeypatch):
    monkeypatch.setattr(verify_module, "p_core", lambda p, e: Partition())
    assert check_core_well_defined(0, 3) == "lambda=[1], e=0, endpoints=['[1]']"


@pytest.mark.parametrize(
    "e, expected",
    [(0, "unreachable node [2,1] (e=0, d=4)"), (3, "component mismatch at [2,1] (e=3, d=4)")],
)
def test_connectivity_names_a_node_whose_edges_in_are_dropped(monkeypatch, e, expected):
    original = verify_module.crystal_graph
    lost = Partition((2, 1))

    def graph_without_edges_into_lost(modulus, d):
        graph = original(modulus, d)
        return graph._replace(edges=tuple(edge for edge in graph.edges if edge[1] != lost))

    monkeypatch.setattr(verify_module, "crystal_graph", graph_without_edges_into_lost)
    assert check_connectivity(e, 4) == expected
