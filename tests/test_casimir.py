import json

import pytest

from fockspace.casimir import casimir_scalar, eigenvalue_table, x_eigenvalue, y_eigenvalue
from fockspace.partitions import (
    Box,
    Partition,
    addable_boxes,
    partitions_up_to,
    removable_boxes,
    remove_box,
    residue,
)

P = Partition


def test_casimir_scalar_examples():
    assert casimir_scalar(P(), 1) == 0
    assert casimir_scalar(P(), 7) == 0
    assert casimir_scalar(P((1,)), 1) == 1
    assert casimir_scalar(P((2,)), 2) == 6
    assert casimir_scalar(P((1, 1)), 2) == 2


def test_casimir_scalar_rank_too_small():
    with pytest.raises(ValueError):
        casimir_scalar(P((2, 1)), 1)


def test_standard_column_scalar_is_n():
    for n in range(1, 8):
        assert casimir_scalar(P((1,)), n) == n


def test_zero_padding_matches_explicit_evaluation():
    for lam in partitions_up_to(6):
        for n in range(len(lam.parts), len(lam.parts) + 4):
            padded = lam.parts + (0,) * (n - len(lam.parts))
            explicit = sum(
                (n - 2 * i + 1) * part + part * part
                for i, part in enumerate(padded, start=1)
            )
            assert explicit == casimir_scalar(lam, n)


def test_x_eigenvalue_examples():
    assert x_eigenvalue(P((1,)), Box(1, 1), 1, 0) == 0
    assert x_eigenvalue(P((1, 1)), Box(2, 1), 2, 3) == 2
    assert x_eigenvalue(P((2,)), Box(1, 2), 2, 0) == 1
    with pytest.raises(ValueError):
        x_eigenvalue(P((2,)), Box(2, 1), 2, 0)


def test_y_eigenvalue_examples():
    for n in (1, 2, 5):
        assert y_eigenvalue(P(), Box(1, 1), n, 0) == 0
    assert y_eigenvalue(P((1,)), Box(1, 2), 2, 0) == 1
    assert y_eigenvalue(P((1,)), Box(2, 1), 2, 0) == -1
    assert y_eigenvalue(P((1,)), Box(2, 1), 2, 2) == 1
    with pytest.raises(ValueError):
        y_eigenvalue(P((1,)), Box(1, 1), 2, 0)


def test_a_removal_rank_too_small_is_named_as_given():
    # p less the box must fit in n rows; the message names that n, not n + 1
    message = r"^rank -9 is smaller than the number of parts of \[2\]$"
    with pytest.raises(ValueError, match=message):
        x_eigenvalue(P((2, 1)), Box(2, 1), -9, 3)
    assert x_eigenvalue(P((1, 1)), Box(2, 1), 1, 0) == -1


def test_eigenvalues_of_a_non_corner_box_name_it():
    with pytest.raises(ValueError, match=r"^box \(2, 1\) is not removable from \[2\]$"):
        x_eigenvalue(P((2,)), Box(2, 1), 2, 0)
    with pytest.raises(ValueError, match=r"^box \(1, 1\) is not addable to \[1\]$"):
        y_eigenvalue(P((1,)), Box(1, 1), 2, 0)


def test_branching_identity():
    for lam in partitions_up_to(8):
        for box in removable_boxes(lam):
            mu = remove_box(lam, box)
            for n in range(lam.size, lam.size + 4):
                lhs = casimir_scalar(lam, n + 1) - casimir_scalar(mu, n)
                assert lhs == 2 * (lam.parts[box.row - 1] - box.row) + lam.size + n


@pytest.mark.parametrize("e", [0, 2, 3, 5])
def test_eigenvalues_match_residues_and_ignore_n(e):
    for lam in partitions_up_to(6):
        for box in removable_boxes(lam):
            values = {x_eigenvalue(lam, box, n, e) for n in range(lam.size, lam.size + 4)}
            assert values == {residue(box, e)}
        for box in addable_boxes(lam):
            start = max(lam.size + 1, box.row)
            values = {y_eigenvalue(lam, box, n, e) for n in range(start, start + 4)}
            assert values == {residue(box, e)}


def test_eigenvalue_table_shape():
    table = eigenvalue_table(P((2, 1)), 3, 3)
    assert table["casimir"] == 9
    assert [entry["box"] for entry in table["removable"]] == [[2, 1], [1, 2]]
    assert [entry["residue"] for entry in table["removable"]] == [2, 1]
    assert [entry["box"] for entry in table["addable"]] == [[3, 1], [2, 2], [1, 3]]
    assert [entry["content"] for entry in table["addable"]] == [-2, 0, 2]


def test_eigenvalue_table_writes_a_bool_modulus_as_its_int():
    table = eigenvalue_table(P(), 1, False)
    assert type(table["modulus"]) is int
    assert json.dumps(table) == json.dumps(eigenvalue_table(P(), 1, 0))
    assert '"modulus": 0,' in json.dumps(table)
    with pytest.raises(ValueError, match="modulus must be 0 or an integer >= 2"):
        eigenvalue_table(P(), 1, True)


def test_eigenvalue_table_writes_a_bool_rank_as_its_int():
    table = eigenvalue_table(P(), True, 0)
    assert type(table["n"]) is int
    assert json.dumps(table) == json.dumps(eigenvalue_table(P(), 1, 0))
    assert '"n": 1,' in json.dumps(table)
