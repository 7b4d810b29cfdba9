import copy
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import large_partition_strategy, partition_strategy
from fockspace.crystal import f_tilde
from fockspace.fock import FockVector, apply_f, op_matrix
from fockspace.partitions import (
    MINUS,
    PLUS,
    Box,
    Partition,
    _edit_row,
    _partition_tuples,
    _slide_beads,
    addable_boxes,
    add_box,
    canonical_residue,
    check_modulus,
    content,
    core_and_weight,
    i_corners,
    m_count,
    n_value,
    p_core,
    p_weight,
    partitions_of,
    partitions_up_to,
    removable_boxes,
    removable_rim_hooks,
    remove_box,
    residue,
    residue_counts,
    residue_window,
    rim_corners,
)
from fockspace.verify import _brute_force_rim_hooks, _greedy_core_and_weight


def test_partition_validation():
    assert Partition().parts == ()
    assert Partition((4, 4, 2, 1)).size == 11
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


@pytest.mark.parametrize("parts", [[2.7, 1], ["3"], "21", (2, 1.0)], ids=repr)
def test_a_part_that_is_not_an_int_is_refused_not_coerced(parts):
    with pytest.raises(TypeError, match="partition parts must be integers"):
        Partition(parts)


def test_bool_parts_count_as_ints():
    p = Partition([True, True])
    assert p == Partition((1, 1)) and all(type(x) is int for x in p)


def test_a_partition_is_the_tuple_of_its_parts():
    p = Partition((2, 1))
    assert p == Partition([2, 1]) == (2, 1) and hash(p) == hash(Partition([2, 1])) == hash((2, 1))
    assert type(p.parts) is tuple and p.parts == (2, 1)
    assert (str(p), repr(p)) == ("[2,1]", "Partition((2, 1))")
    assert (str(Partition()), repr(Partition())) == ("[]", "Partition(())")
    assert Box(1, 2) in Partition((2,)) and Box(1, 3) not in Partition((2,))
    assert Box(2, 1) not in Partition((2,)) and Box(0, 1) not in Partition((2,))
    assert (p[0], p[1:], type(p[1:])) == (2, (1,), tuple)
    assert json.dumps(p) == "[2, 1]"


@pytest.mark.parametrize("operand", [2, (1, 1), "[1]", None], ids=["int", "tuple", "str", "None"])
def test_membership_asks_for_a_box(operand):
    with pytest.raises(TypeError, match=r"Box\(row, col\)"):
        operand in Partition((2, 1))


def test_partitions_order_as_their_tuples():
    shapes = partitions_up_to(6)
    assert sorted(shapes) == sorted(shapes, key=tuple)
    assert all((p < q) == (p.parts < q.parts) for p in shapes for q in shapes)
    assert all((p <= q) == (p.parts <= q.parts) for p in shapes for q in shapes)
    assert all(partitions_of(d) == sorted(partitions_of(d), reverse=True) for d in range(7))


def test_trusted_copied_and_pickled_partitions_are_partitions():
    for p in partitions_up_to(5):
        built = [Partition._trusted(p.parts), copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))]
        assert all(type(q) is Partition and q == Partition(p.parts) for q in built)
    bad = pickle.dumps(Partition._trusted((1, 2)))
    with pytest.raises(ValueError, match="weakly decreasing"):
        pickle.loads(bad)  # unpickling goes through the constructor's checks


def test_a_partition_cannot_be_changed_in_place():
    p = Partition((2, 1))
    v = FockVector({p: 1})
    with pytest.raises(AttributeError):
        p.parts = (3,)
    with pytest.raises(AttributeError):
        next(iter(v.terms)).parts = (3,)
    with pytest.raises(TypeError):
        p[0] = 3
    assert (p, repr(v), v.coefficient(Partition((2, 1)))) == ((2, 1), "FockVector(1*v[2,1])", 1)


def test_parse_and_str_roundtrip():
    for text in ["[]", "[1]", "[4,4,2,1]", "[10,3]"]:
        assert str(Partition.parse(text)) == text
    assert Partition.parse(" [ 3 , 1 ] ") == Partition((3, 1))
    with pytest.raises(ValueError):
        Partition.parse("4,2")
    with pytest.raises(ValueError):
        Partition.parse("[4,x]")
    with pytest.raises(ValueError):
        Partition.parse("[1,2]")


@pytest.mark.parametrize("token", ["１２", "1_0", "+3", "٣", "²"])
def test_parse_accepts_only_ascii_digits(token):
    text = f"[{token}]"
    with pytest.raises(ValueError, match=re.escape(f"bad partition entry {token!r} in {text!r}")):
        Partition.parse(text)


def test_parse_names_an_entry_too_long_for_int():
    with pytest.raises(ValueError, match="^bad partition entry '9999"):
        Partition.parse("[" + "9" * 4400 + "]")


def test_content_examples():
    assert content(Box(1, 1)) == 0
    assert content(Box(1, 3)) == 2
    assert content(Box(4, 1)) == -3


def test_residue_examples():
    assert residue(Box(2, 1), 3) == 2
    assert residue(Box(1, 3), 0) == 2
    assert residue(Box(3, 1), 2) == 0
    with pytest.raises(ValueError):
        residue(Box(1, 1), 1)
    with pytest.raises(ValueError):
        check_modulus(-2)


def test_canonical_residue():
    assert canonical_residue(-1, 3) == 2
    assert canonical_residue(-1, 0) == -1
    assert canonical_residue(7, 5) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: canonical_residue(1.5, 3),
        lambda: apply_f(FockVector.basis(Partition((1,))), 1.5, 3),
        lambda: op_matrix("f", 1.5, 3, 2),
        lambda: i_corners(Partition((2, 1)), 2.5, 3),
        lambda: n_value(Partition((1,)), 1.5, 0),
        lambda: f_tilde(Partition((1,)), 0.5, 0),
    ],
    ids=["canonical_residue", "apply_f", "op_matrix", "i_corners", "n_value", "f_tilde"],
)
def test_a_residue_that_is_not_an_int_is_refused(call):
    # each of these once matched no box and answered zero, empty or None
    with pytest.raises(TypeError, match="residue must be an integer, got"):
        call()


def test_a_bool_residue_counts_as_its_int():
    assert canonical_residue(True, 3) == 1
    assert n_value(Partition((1,)), False, 2) == n_value(Partition((1,)), 0, 2)


def test_addable_boxes_examples():
    assert addable_boxes(Partition()) == [Box(1, 1)]
    assert addable_boxes(Partition((2, 1))) == [Box(3, 1), Box(2, 2), Box(1, 3)]
    assert addable_boxes(Partition((4, 4, 2, 1))) == [
        Box(5, 1),
        Box(4, 2),
        Box(3, 3),
        Box(1, 5),
    ]


def test_removable_boxes_examples():
    assert removable_boxes(Partition()) == []
    assert removable_boxes(Partition((2, 1))) == [Box(2, 1), Box(1, 2)]
    assert removable_boxes(Partition((4, 4, 2, 1))) == [Box(4, 1), Box(3, 2), Box(2, 4)]


def test_m_count_examples():
    for i in range(3):
        assert m_count(Partition(), i, 3) == 0
    assert m_count(Partition((2, 1)), 2, 3) == 1
    assert m_count(Partition((2,)), 1, 0) == 1


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_residue_counts_match_a_box_by_box_count(e):
    for lam in partitions_up_to(10):
        expected: dict[int, int] = {}
        for b in lam.boxes():
            i = residue(b, e)
            expected[i] = expected.get(i, 0) + 1
        assert residue_counts(lam, e) == expected


def test_residue_counts_rejects_a_bad_modulus():
    with pytest.raises(ValueError):
        residue_counts(Partition((2, 1)), 1)


def test_n_value_examples():
    assert n_value(Partition(), 0, 3) == 1
    assert n_value(Partition(), 0, 0) == 1
    assert n_value(Partition((2, 1)), 2, 3) == 0
    assert n_value(Partition((1,)), 0, 2) == -1


def test_add_remove_examples():
    assert add_box(Partition(), Box(1, 1)) == Partition((1,))
    assert add_box(Partition((2,)), Box(2, 1)) == Partition((2, 1))
    assert remove_box(Partition((2, 1)), Box(1, 2)) == Partition((1, 1))
    with pytest.raises(ValueError):
        add_box(Partition((2, 2)), Box(2, 3))
    with pytest.raises(ValueError):
        remove_box(Partition((2, 2)), Box(1, 2))


def test_rim_corners_example():
    assert rim_corners(Partition((2, 1))) == [
        (1, 3, 1), (-1, 2, 1), (1, 2, 2), (-1, 1, 2), (1, 1, 3)
    ]
    assert rim_corners(Partition()) == [(1, 1, 1)]


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_i_corners_match_the_filtered_and_sorted_box_lists(e):
    for lam in partitions_up_to(10):
        for i in residue_window(e, 11):
            expected = [(PLUS, b) for b in addable_boxes(lam) if residue(b, e) == canonical_residue(i, e)]
            expected += [(MINUS, b) for b in removable_boxes(lam) if residue(b, e) == canonical_residue(i, e)]
            expected.sort(key=lambda t: -t[1].row)
            assert i_corners(lam, i, e) == expected, (lam, i, e)


def test_i_corners_rejects_a_bad_modulus():
    for corners in (i_corners, n_value):
        with pytest.raises(ValueError, match="modulus"):
            corners(Partition((2, 1)), 0, 1)


def _row_edit(lam: Partition, box: Box, step: int):
    """The shape left by moving the end of row box.row by step, if box is that end."""
    rows = list(lam.parts) + [0, 0]
    end = rows[box.row - 1] + (1 if step > 0 else 0)
    if box.col != end:
        return None
    rows[box.row - 1] += step
    while rows and rows[-1] == 0:
        rows.pop()
    if any(x < 1 for x in rows) or any(a < b for a, b in zip(rows, rows[1:])):
        return None
    return Partition(rows)


def test_add_and_remove_box_accept_exactly_the_valid_row_edits():
    for lam in partitions_up_to(8):
        accepted = {1: [], -1: []}
        for r in range(1, len(lam) + 3):
            for c in range(1, lam.row(1) + 3):
                box = Box(r, c)
                for step, move, verb in ((1, add_box, "addable to"), (-1, remove_box, "removable from")):
                    expected = _row_edit(lam, box, step)
                    if expected is None:
                        with pytest.raises(ValueError, match=rf"^box \({r}, {c}\) is not {verb} {re.escape(str(lam))}$"):
                            move(lam, box)
                    else:
                        assert move(lam, box) == expected
                        accepted[step].append(box)
        # the accepted boxes, read bottom row first, are the corner lists in rim order
        assert sorted(accepted[1], key=lambda b: -b.row) == addable_boxes(lam)
        assert sorted(accepted[-1], key=lambda b: -b.row) == removable_boxes(lam)


def test_rim_hook_examples():
    hooks = removable_rim_hooks(Partition((2, 1, 1)), 2)
    assert hooks == [(frozenset({Box(2, 1), Box(3, 1)}), Partition((2,)))]
    assert removable_rim_hooks(Partition((1,)), 2) == []
    hooks = removable_rim_hooks(Partition((3,)), 3)
    assert hooks == [(frozenset({Box(1, 1), Box(1, 2), Box(1, 3)}), Partition())]
    with pytest.raises(ValueError):
        removable_rim_hooks(Partition((3,)), 0)


def test_rim_hooks_are_valid_strips():
    for lam in partitions_up_to(7):
        for length in (2, 3, 5):
            for boxes, mu in removable_rim_hooks(lam, length):
                assert len(boxes) == length
                assert mu.size == lam.size - length
                assert all(b in lam for b in boxes)
                # no 2x2 block inside the strip
                assert not any(
                    {Box(b.row, b.col + 1), Box(b.row + 1, b.col), Box(b.row + 1, b.col + 1)}
                    <= boxes
                    for b in boxes
                )


@pytest.mark.parametrize("e", [2, 3, 5])
def test_abacus_rim_hooks_match_the_brute_force_oracle(e):
    for lam in partitions_up_to(10):
        # same box sets, same leftover shapes, same rim order
        assert removable_rim_hooks(lam, e) == _brute_force_rim_hooks(lam, e), lam


def test_abacus_rim_hooks_far_past_the_brute_force_range():
    staircase = Partition(range(24, 0, -2))  # size 156
    # each row ends in a removable horizontal domino; the bottom row's comes first
    expected = []
    for r in range(len(staircase), 0, -1):
        rows = list(staircase.parts)
        rows[r - 1] -= 2
        domino = frozenset({Box(r, rows[r - 1] + 1), Box(r, rows[r - 1] + 2)})
        expected.append((domino, Partition(x for x in rows if x)))
    assert removable_rim_hooks(staircase, 2) == expected


def test_p_core_examples():
    assert p_core(Partition((4, 4, 2, 1)), 0) == Partition((4, 4, 2, 1))
    assert p_core(Partition((2, 1, 1)), 2) == Partition()
    assert p_core(Partition((2,)), 3) == Partition((2,))


def test_p_weight_examples():
    assert p_weight(Partition((2, 1, 1)), 2) == 2
    assert p_weight(Partition((2,)), 3) == 0
    assert p_weight(Partition((3,)), 3) == 1
    assert p_weight(Partition((5, 3, 1)), 0) == 0


@pytest.mark.parametrize("e", [2, 3, 5])
def test_core_greedy_matches_beta_numbers(e):
    for lam in partitions_up_to(8):
        assert p_core(lam, e) == _greedy_core_and_weight(lam, e)[0]


@pytest.mark.parametrize("e", [2, 3, 5])
def test_core_and_weight_matches_beta_numbers(e):
    for lam in partitions_up_to(12):
        core, hooks_removed = core_and_weight(lam, e)
        assert (core, hooks_removed) == _greedy_core_and_weight(lam, e)
        assert lam.size == core.size + e * hooks_removed


@settings(deadline=None)
@given(large_partition_strategy(500), st.sampled_from([2, 3, 5]))
def test_core_and_weight_matches_beta_numbers_at_large_sizes(lam, e):
    core, hooks_removed = core_and_weight(lam, e)
    assert (core, hooks_removed) == _greedy_core_and_weight(lam, e)
    assert lam.size == core.size + e * hooks_removed


@settings(deadline=None)
@given(large_partition_strategy(200), st.integers(min_value=1, max_value=40))
def test_a_partition_smaller_than_the_modulus_is_its_own_core(lam, excess):
    e = max(2, lam.size + excess)
    assert core_and_weight(lam, e) == _slide_beads(lam, e) == (lam, 0)


def test_core_and_weight_rejects_an_inconsistent_removal(monkeypatch):
    import fockspace.partitions as partitions_module

    # a hook search that finds a 2-hook even on the slid core [1]
    monkeypatch.setattr(
        partitions_module,
        "removable_rim_hooks",
        lambda p, length: [(frozenset(), Partition())],
    )
    with pytest.raises(ArithmeticError, match=r"core \[1\] of \[3\] still has a rim 2-hook"):
        core_and_weight(Partition((3,)), 2)


def test_core_and_weight_rejects_a_core_of_the_wrong_size(monkeypatch):
    import fockspace.partitions as partitions_module

    # the core [1] of [4] mod 3 read off the beads with its first row lost
    read_off = partitions_module._from_beads
    monkeypatch.setattr(
        partitions_module, "_from_beads", lambda beads: Partition(read_off(beads).parts[1:])
    )
    with pytest.raises(ArithmeticError, match=r"\|\[4\]\| != \|\[\]\| \+ 3 \* 1"):
        core_and_weight(Partition((4,)), 3)


def test_partitions_of_order_and_counts():
    assert [str(p) for p in partitions_of(4)] == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]
    assert [len(partitions_of(d)) for d in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert partitions_of(-1) == []


def _partition_numbers(top):
    """p(0..top) by Euler's pentagonal number recurrence."""
    counts = [1]
    for n in range(1, top + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pentagonal <= n:
                    total += sign * counts[n - pentagonal]
            k += 1
        counts.append(total)
    return counts


def test_partitions_of_lists_every_partition_once_in_descending_order():
    counts = _partition_numbers(30)
    assert counts[:9] == [1, 1, 2, 3, 5, 7, 11, 15, 22] and counts[30] == 5604
    for n in range(31):
        layer = partitions_of(n)
        assert len(layer) == counts[n], n
        assert all(p > q for p, q in zip(layer, layer[1:])), n  # strictly, so no repeats
        assert all(type(p) is Partition and p.size == n and _is_checked_partition(p) for p in layer), n


def test_partitions_up_to_joins_the_degrees():
    for d in range(31):
        assert partitions_up_to(d) == [p for k in range(d + 1) for p in partitions_of(k)], d


def test_a_returned_list_is_the_callers_own():
    for d in (0, 5, 12):
        first = partitions_of(d)
        first.clear()
        spread = partitions_up_to(d)
        spread.reverse()
        assert len(partitions_of(d)) == _partition_numbers(d)[d]
        assert partitions_up_to(d)[0] == Partition()


def test_a_bool_degree_lists_what_its_int_lists():
    _partition_tuples.cache_clear()  # True and 1 share a cache key: list True first
    assert partitions_of(True) == partitions_of(1) == [Partition((1,))]
    assert all(_is_checked_partition(p) for p in partitions_of(True))
    assert partitions_of(False) == [Partition()]


def test_partitions_of_refuses_a_degree_that_is_not_an_int():
    # warm the cache first: 2.0 hashes as 2, so only an explicit check refuses it
    assert len(partitions_of(2)) == 2
    for d in (2.0, 1.5, "2"):
        with pytest.raises(TypeError, match="degree must be an integer, got"):
            partitions_of(d)


@given(partition_strategy())
def test_addable_exceeds_removable_by_one(lam):
    assert len(addable_boxes(lam)) == len(removable_boxes(lam)) + 1


@given(partition_strategy())
def test_add_then_remove_roundtrip(lam):
    for b in addable_boxes(lam):
        assert remove_box(add_box(lam, b), b) == lam


@pytest.mark.parametrize("e", [2, 3, 5])
def test_residues_partition_the_boxes(e):
    for lam in partitions_up_to(7):
        assert sum(m_count(lam, i, e) for i in range(e)) == lam.size


def _is_checked_partition(p):
    """p holds a plain tuple of ints that the checking constructor accepts unchanged."""
    parts = p.parts
    return type(parts) is tuple and all(type(x) is int for x in parts) and Partition(parts) == p


@settings(deadline=None)
@given(large_partition_strategy(80))
def test_trusted_call_sites_return_checked_partitions(lam):
    made = [_edit_row(lam, box.row, 1) for box in addable_boxes(lam)]
    made += [_edit_row(lam, box.row, -1) for box in removable_boxes(lam)]
    for length in range(1, lam.size + 1):
        made += [left for _, left in removable_rim_hooks(lam, length)]
    assert all(_is_checked_partition(p) for p in made), lam


def test_partitions_of_returns_checked_partitions():
    for d in range(16):
        assert all(_is_checked_partition(p) for p in partitions_of(d))


@settings(deadline=None)
@given(large_partition_strategy(200), st.sampled_from([2, 3, 5]))
def test_core_read_off_the_beads_is_a_checked_partition(lam, e):
    core, hooks_removed = core_and_weight(lam, e)
    assert _is_checked_partition(core) and lam.size == core.size + e * hooks_removed, lam
