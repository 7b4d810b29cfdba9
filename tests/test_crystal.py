import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import large_partition_strategy
from fockspace.crystal import (
    Signature,
    cogood_box,
    crystal_graph,
    e_tilde,
    epsilon,
    f_tilde,
    good_box,
    reduced_signature,
    signature,
)
from fockspace.crystal import phi as phi_count
from fockspace.fock import apply_f, FockVector, weight
from fockspace.partitions import (
    Box,
    Partition,
    add_box,
    n_value,
    partitions_up_to,
    remove_box,
    residue_window,
    rim_corners,
)
from fockspace.verify import check_tilde_signature_agree

P = Partition


def synthetic(word):
    return Signature(tuple((ch, Box(k + 1, 1)) for k, ch in enumerate(word)))


def test_signature_examples():
    assert signature(P((1,)), 1, 2).word == "++"
    assert [b for _, b in signature(P((1,)), 1, 2).symbols] == [Box(2, 1), Box(1, 2)]
    assert signature(P((2,)), 1, 2).word == "+-"
    assert signature(P(), 0, 2).word == "+"


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_crystal_operators_equal_the_checked_box_edits(e):
    for lam in partitions_up_to(10):
        for i in residue_window(e, 11):
            good, cogood = good_box(lam, i, e), cogood_box(lam, i, e)
            assert e_tilde(lam, i, e) == (None if good is None else remove_box(lam, good))
            assert f_tilde(lam, i, e) == (None if cogood is None else add_box(lam, cogood))


def test_reduced_signature_examples():
    assert reduced_signature(synthetic("+-")).word == ""
    assert reduced_signature(synthetic("-+")).word == "-+"
    reduced = reduced_signature(synthetic("++-"))
    assert reduced.word == "+"
    assert reduced.symbols[0][1] == Box(1, 1)  # the adjacent pair cancels


def test_reduced_signature_is_sorted():
    for lam in partitions_up_to(7):
        for e in (0, 2, 3):
            for i in residue_window(e, 7):
                word = reduced_signature(signature(lam, i, e)).word
                assert word == "-" * word.count("-") + "+" * word.count("+")


def test_good_cogood_examples():
    assert good_box(P((1, 1)), 1, 2) == Box(2, 1)
    assert cogood_box(P((1,)), 1, 2) == Box(2, 1)
    assert good_box(P((2,)), 1, 2) is None
    assert cogood_box(P((2,)), 1, 2) is None


def test_e_tilde_examples():
    assert e_tilde(P(), 0, 2) is None
    assert e_tilde(P((1, 1)), 1, 2) == P((1,))
    assert e_tilde(P((2,)), 1, 2) is None


def test_f_tilde_examples():
    assert f_tilde(P(), 0, 3) == P((1,))
    assert f_tilde(P((1,)), 1, 2) == P((1, 1))
    assert f_tilde(P((2,)), 1, 2) is None
    # f_1 v_(2) is nonzero even though f_tilde vanishes
    assert not apply_f(FockVector.basis(P((2,))), 1, 2).is_zero()


def test_epsilon_phi_examples():
    assert (epsilon(P(), 0, 2), phi_count(P(), 0, 2)) == (0, 1)
    assert (epsilon(P((1, 1)), 1, 2), phi_count(P((1, 1)), 1, 2)) == (1, 1)
    assert (epsilon(P((1,)), 1, 2), phi_count(P((1,)), 1, 2)) == (0, 2)


def test_crystal_graph_examples():
    g = crystal_graph(2, 1)
    assert [p for p, _ in g.nodes] == [P(), P((1,))]
    assert g.edges == ((P(), P((1,)), 0),)

    g = crystal_graph(3, 2)
    assert g.edges == (
        (P(), P((1,)), 0),
        (P((1,)), P((2,)), 1),
        (P((1,)), P((1, 1)), 2),
    )

    assert len(crystal_graph(2, 4).nodes) == 12


def test_crystal_graph_bad_arguments():
    with pytest.raises(ValueError):
        crystal_graph(1, 3)
    with pytest.raises(ValueError):
        crystal_graph(2, -1)


def test_crystal_graph_keeps_a_bool_size_as_its_int():
    g = crystal_graph(2, True)
    assert type(g.max_size) is int and g.max_size == 1
    assert g.json_dict() == crystal_graph(2, 1).json_dict()


def test_graph_json_schema():
    obj = crystal_graph(3, 2).json_dict()
    assert obj["modulus"] == 3
    assert obj["nodes"][0] == {"partition": "[]", "size": 0, "weight": {}}
    assert {"src": "[1]", "dst": "[2]", "residue": 1} in obj["edges"]
    json.dumps(obj)


def test_graph_dot_output():
    dot = crystal_graph(2, 1).dot()
    assert dot.splitlines()[0] == "digraph crystal {"
    assert '"[]" -> "[1]" [label="0"];' in dot
    assert dot.rstrip().endswith("}")


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_partial_inverse(e):
    for lam in partitions_up_to(7):
        for i in residue_window(e, 7):
            mu = f_tilde(lam, i, e)
            if mu is not None:
                assert e_tilde(mu, i, e) == lam
            nu = e_tilde(lam, i, e)
            if nu is not None:
                assert f_tilde(nu, i, e) == lam


@pytest.mark.parametrize("e", [0, 2, 3])
def test_string_lengths_and_weight_compat(e):
    for lam in partitions_up_to(6):
        for i in residue_window(e, 6):
            cur, up = lam, 0
            while (cur := e_tilde(cur, i, e)) is not None:
                up += 1
            assert up == epsilon(lam, i, e)
            cur, down = lam, 0
            while (cur := f_tilde(cur, i, e)) is not None:
                down += 1
            assert down == phi_count(lam, i, e)
            assert down - up == n_value(lam, i, e)


@given(st.lists(st.sampled_from("+-"), max_size=9), st.randoms(use_true_random=False))
def test_cancellation_order_does_not_matter(symbols, rng):
    """Random cancellation orders agree with the stack scan."""
    word = "".join(symbols)
    expected = reduced_signature(synthetic(word)).word
    current = word
    while True:
        spots = [
            k for k in range(len(current) - 1) if current[k] == "+" and current[k + 1] == "-"
        ]
        if not spots:
            break
        k = rng.choice(spots)
        current = current[:k] + current[k + 2:]
    assert current == expected


def test_socle_coefficient_is_one():
    for e in (2, 3):
        for lam in partitions_up_to(6):
            for i in range(e):
                mu = f_tilde(lam, i, e)
                if mu is not None:
                    assert apply_f(FockVector.basis(lam), i, e).coefficient(mu) == 1


def _oracle_e_tilde(lam, i, e):
    good = good_box(lam, i, e)
    return None if good is None else remove_box(lam, good)


def _oracle_f_tilde(lam, i, e):
    cogood = cogood_box(lam, i, e)
    return None if cogood is None else add_box(lam, cogood)


@settings(deadline=None)
@given(large_partition_strategy(200), st.sampled_from([0, 2, 3, 5]))
def test_bracket_scans_equal_the_signature_oracle_at_large_sizes(lam, e):
    for i in residue_window(e, lam.size):
        assert e_tilde(lam, i, e) == _oracle_e_tilde(lam, i, e)
        assert f_tilde(lam, i, e) == _oracle_f_tilde(lam, i, e)


def test_bracket_scans_reduce_the_residue_and_check_the_modulus():
    lam = P((3, 1))
    assert f_tilde(lam, 5, 3) == f_tilde(lam, 2, 3) == _oracle_f_tilde(lam, 2, 3)
    assert e_tilde(lam, -1, 3) == e_tilde(lam, 2, 3) == _oracle_e_tilde(lam, 2, 3)
    for op in (e_tilde, f_tilde):
        with pytest.raises(ValueError, match="modulus"):
            op(lam, 0, 1)


def _whole_window_edges(e, d):
    """The edges over every residue of the window, through the signature oracle."""
    return tuple(
        (lam, mu, i)
        for lam in partitions_up_to(d - 1)
        for i in residue_window(e, d)
        if (mu := _oracle_f_tilde(lam, i, e)) is not None
    )


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_crystal_graph_equals_the_whole_window_loop(e):
    for d in range(11):
        assert crystal_graph(e, d).edges == _whole_window_edges(e, d)


@pytest.mark.parametrize("e", [0, 2, 3, 5, 7])
def test_crystal_graph_weights_equal_the_residue_counts(e):
    for d in range(15):
        assert crystal_graph(e, d).nodes == tuple((p, weight(p, e)) for p in partitions_up_to(d))


def test_tilde_signature_agree_catches_a_wrong_operator(monkeypatch):
    import fockspace.verify as verify_module

    # an e_tilde that returns its input where it should return None
    monkeypatch.setattr(verify_module, "e_tilde", lambda p, i, e: p)
    assert check_tilde_signature_agree(2, 2) == "e_tilde: lambda=[], i=0, e=2"


def test_tilde_signature_agree_catches_a_pruned_edge(monkeypatch):
    import fockspace.crystal as crystal_module

    # an f_tilde that misses every residue-0 box leaves edges out of the graph
    original = crystal_module.f_tilde
    monkeypatch.setattr(
        crystal_module, "f_tilde", lambda p, i, e: None if i == 0 else original(p, i, e)
    )
    assert check_tilde_signature_agree(3, 3) == (
        "crystal_graph edges differ from the whole-window oracle (e=3, d=3)"
    )


def test_f_tilde_reads_the_memo_of_the_partition_and_modulus_asked():
    # a memo entry kept for the wrong partition or modulus would show here;
    # False hashes and compares like 0, and is the same modulus
    p, q = P((3, 1)), P((2, 2, 1))
    for lam, e in ((p, 2), (q, 2), (p, 3), (p, 0), (p, False), (p, 2)):
        for i in residue_window(e, lam.size + 1):
            assert f_tilde(lam, i, e) == _oracle_f_tilde(lam, i, e)


def test_tilde_signature_agree_catches_the_last_cogood_row(monkeypatch):
    import fockspace.crystal as crystal_module

    def last_rows(p, e):  # keeps the last surviving + where the first is cogood
        pluses = {}
        for sign, row, col in rim_corners(p):
            i = (col - row) % e if e else col - row
            if sign > 0:
                pluses.setdefault(i, []).append(row)
            elif pluses.get(i):
                pluses[i].pop()
        return {i: rows[-1] for i, rows in pluses.items() if rows}

    crystal_module._cogood_rows.cache_clear()
    monkeypatch.setattr(crystal_module, "_cogood_rows", last_rows)
    assert check_tilde_signature_agree(2, 3) == "f_tilde: lambda=[1], i=1, e=2"


def test_crystal_graph_calls_f_tilde_once_per_edge(monkeypatch):
    import fockspace.crystal as crystal_module

    calls = []
    original = crystal_module.f_tilde

    def counting(p, i, e):
        calls.append((p, i))
        return original(p, i, e)

    monkeypatch.setattr(crystal_module, "f_tilde", counting)
    edges = crystal_graph(3, 4).edges
    assert calls == [(src, i) for src, _, i in edges]


def _oracle_dict(graph):
    """The JSON object of a graph, one dict per node, weight and edge."""
    labels = {p: str(p) for p, _ in graph.nodes}
    return {
        "modulus": graph.modulus,
        "nodes": [
            {"partition": labels[p], "size": p.size, "weight": w.json_dict()}
            for p, w in graph.nodes
        ],
        "edges": [
            {"src": labels[src], "dst": labels[dst], "residue": i}
            for src, dst, i in graph.edges
        ],
    }


GRAPH_SETTINGS = [(e, d) for e in (0, 2, 3, 5, 7, 10**21) for d in range(13)]


def _first_text_unlike_the_oracle():
    """The first (e, d) whose json_text is not json.dumps of the oracle dict."""
    for e, d in GRAPH_SETTINGS:
        graph = crystal_graph(e, d)
        if graph.json_text() != json.dumps(_oracle_dict(graph)):
            return e, d
    return None


def test_json_text_equals_the_dumped_oracle_dict():
    # d = 0 gives "weight": {} and no edges, e = 0 negative residue keys
    assert _first_text_unlike_the_oracle() is None
    for e, d in ((0, 6), (3, 0), (10**21, 4)):
        graph = crystal_graph(e, d)
        assert graph.json_dict() == _oracle_dict(graph)


def test_json_text_check_catches_a_mutant_writer(monkeypatch):
    import fockspace.crystal as crystal_module

    original = crystal_module.CrystalGraph.json_text

    def tight(graph):  # "," and ":" with no space after them
        return original(graph).replace(", ", ",").replace(": ", ":")

    def reversed_weights(graph):  # each weight's pairs in decreasing residue order
        nodes = tuple((p, w._replace(alpha=w.alpha[::-1])) for p, w in graph.nodes)
        return original(graph._replace(nodes=nodes))

    monkeypatch.setattr(crystal_module.CrystalGraph, "json_text", tight)
    assert _first_text_unlike_the_oracle() == (0, 0)
    monkeypatch.setattr(crystal_module.CrystalGraph, "json_text", reversed_weights)
    assert _first_text_unlike_the_oracle() == (0, 2)


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_edge_targets_and_weight_pairs_are_shared_with_the_nodes(e):
    graph = crystal_graph(e, 9)
    nodes = {id(p) for p, _ in graph.nodes}
    assert all(id(src) in nodes and id(dst) in nodes for src, dst, _ in graph.edges)
    alphas = {p: w.alpha for p, w in graph.nodes}
    for p, w in graph.nodes[1:]:
        parent = alphas[p[:-1] + ((p[-1] - 1,) if p[-1] > 1 else ())]
        new = [pair for pair in w.alpha if not any(pair is old for old in parent)]
        assert len(new) == 1  # the pair of the last box's residue
