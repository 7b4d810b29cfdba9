import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partitions_of_size
from fockspace.blocks import blocks, derived_equivalence_classes, same_block
from fockspace.fock import weight
from fockspace.partitions import Partition, p_core, p_weight, partitions_of

P = Partition


def test_blocks_examples():
    layer = blocks(2, 3)
    assert [str(b.core) for b in layer] == ["[2]", "[1,1]"]
    assert all(len(b.members) == 1 and b.p_weight == 0 for b in layer)

    layer = blocks(3, 3)
    assert len(layer) == 1
    block = layer[0]
    assert block.core == P()
    assert block.members == (P((3,)), P((2, 1)), P((1, 1, 1)))
    assert block.p_weight == 1
    assert block.weight.json_dict() == {"0": 1, "1": 1, "2": 1}

    layer = blocks(2, 2)
    assert len(layer) == 1 and layer[0].core == P()


def test_blocks_degree_zero():
    layer = blocks(0, 5)
    assert len(layer) == 1 and layer[0].members == (P(),)
    with pytest.raises(ValueError):
        blocks(-1, 2)


def test_blocks_keep_a_bool_degree_as_its_int():
    (block,) = blocks(True, 2)
    assert type(block.degree) is int and block.degree == 1
    assert block.json_dict() == blocks(1, 2)[0].json_dict()


def test_same_block_examples():
    assert same_block(P((2,)), P((1, 1)), 2) is True
    assert same_block(P((2,)), P((1, 1)), 3) is False
    assert same_block(P((2, 1)), P((2, 1)), 5) is True
    with pytest.raises(ValueError):
        same_block(P((2,)), P((1,)), 2)


def test_derived_equivalence_examples():
    classes = derived_equivalence_classes(blocks(3, 3))
    assert len(classes) == 1 and len(classes[0]) == 1 and classes[0][0].p_weight == 1

    classes = derived_equivalence_classes(blocks(2, 3))
    assert len(classes) == 1 and len(classes[0]) == 2
    assert all(b.p_weight == 0 for b in classes[0])

    classes = derived_equivalence_classes(blocks(0, 2))
    assert len(classes) == 1 and classes[0][0].members == (P(),)

    with pytest.raises(ValueError):
        derived_equivalence_classes(blocks(3, 0))


@pytest.mark.parametrize("layer_of", [list, iter, lambda layer: (b for b in layer)],
                         ids=["list", "iterator", "generator"])
def test_derived_equivalence_reads_its_layer_once(layer_of):
    classes = derived_equivalence_classes(layer_of(blocks(6, 3)))
    assert [[b.p_weight for b in c] for c in classes] == [[0, 0], [2]]
    assert classes == derived_equivalence_classes(blocks(6, 3))


@pytest.mark.parametrize("e", [2, 3, 5])
def test_weight_equality_iff_core_equality(e):
    for d in range(9):
        layer = partitions_of(d)
        cores = {p: p_core(p, e) for p in layer}
        weights = {p: weight(p, e) for p in layer}
        for a in layer:
            for b in layer:
                assert (cores[a] == cores[b]) == (weights[a] == weights[b])


def test_zero_modulus_blocks_are_singletons_with_injective_weights():
    for d in range(9):
        layer = blocks(d, 0)
        assert all(len(b.members) == 1 for b in layer)
        assert all(b.p_weight == 0 for b in layer)
        weights = [weight(p, 0) for p in partitions_of(d)]
        assert len(set(weights)) == len(weights)


@pytest.mark.parametrize("e", [2, 3, 5])
def test_block_sizes_sum_and_p_weight_constant(e):
    for d in range(9):
        layer = blocks(d, e)
        assert sum(len(b.members) for b in layer) == len(partitions_of(d))
        for block in layer:
            for member in block.members:
                assert p_weight(member, e) == block.p_weight
                assert p_core(member, e) == block.core
                assert weight(member, e) == block.weight


def test_block_json_dict():
    block = blocks(2, 2)[0]
    assert block.json_dict() == {
        "core": "[]",
        "members": ["[2]", "[1,1]"],
        "weight": {"0": 1, "1": 1},
        "p_weight": 1,
    }


@st.composite
def equal_size_pairs(draw, max_size: int = 120):
    size = draw(st.integers(0, max_size))
    return draw(partitions_of_size(size)), draw(partitions_of_size(size))


@settings(deadline=None)
@given(equal_size_pairs(), st.sampled_from([2, 3, 5]))
def test_same_block_iff_equal_weight_at_large_sizes(pair, e):
    p, q = pair
    assert same_block(p, q, e) == (weight(p, e) == weight(q, e))
