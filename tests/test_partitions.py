import pytest
from hypothesis import given

from conftest import partition_strategy
from fockspace.partitions import (
    Box,
    Partition,
    addable_boxes,
    add_box,
    canonical_residue,
    check_modulus,
    content,
    core_and_weight,
    m_count,
    n_value,
    p_core,
    p_core_beta,
    p_weight,
    partitions_of,
    partitions_up_to,
    removable_boxes,
    removable_rim_hooks,
    remove_box,
    residue,
    residue_counts,
)


def test_partition_validation():
    assert Partition().parts == ()
    assert Partition((4, 4, 2, 1)).size == 11
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


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
        assert p_core(lam, e) == p_core_beta(lam, e)


@pytest.mark.parametrize("e", [2, 3, 5])
def test_core_and_weight_matches_beta_numbers(e):
    for lam in partitions_up_to(12):
        core, hooks_removed = core_and_weight(lam, e)
        assert core == p_core_beta(lam, e)
        assert lam.size == core.size + e * hooks_removed


def test_core_and_weight_rejects_an_inconsistent_removal(monkeypatch):
    import fockspace.partitions as partitions_module

    # a "hook" that takes away three boxes when two were asked for
    monkeypatch.setattr(
        partitions_module,
        "removable_rim_hooks",
        lambda p, length: [(frozenset(), Partition())] if p.parts else [],
    )
    with pytest.raises(ArithmeticError):
        core_and_weight(Partition((3,)), 2)


def test_partitions_of_order_and_counts():
    assert [str(p) for p in partitions_of(4)] == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]
    assert [len(partitions_of(d)) for d in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert partitions_of(-1) == []


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
