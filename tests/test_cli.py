import importlib
import json

import pytest

from fockspace.cli import main
from fockspace.partitions import Partition


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_command(capsys):
    code, out, _ = run_cli(capsys, "core", "--modulus", "2", "--partition", "[2,1,1]")
    assert code == 0
    assert json.loads(out) == {"core": "[]", "p_weight": 2}


def test_core_modulus_zero(capsys):
    code, out, _ = run_cli(capsys, "core", "--modulus", "0", "--partition", "[4,4,2,1]")
    assert code == 0
    assert json.loads(out) == {"core": "[4,4,2,1]", "p_weight": 0}


def test_core_command_removes_each_hook_once(monkeypatch, capsys):
    import fockspace.partitions as partitions_module

    calls = []
    original = partitions_module.removable_rim_hooks

    def counting(p, length):
        calls.append(p)
        return original(p, length)

    monkeypatch.setattr(partitions_module, "removable_rim_hooks", counting)
    code, out, _ = run_cli(capsys, "core", "--modulus", "2", "--partition", "[2,1,1]")
    assert code == 0 and json.loads(out)["p_weight"] == 2
    # one search per removed hook, plus the one that finds none left
    assert len(calls) == 2 + 1


def test_blocks_command(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--modulus", "3", "--degree", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["modulus"] == 3 and obj["degree"] == 3
    assert len(obj["blocks"]) == 1
    assert obj["blocks"][0]["core"] == "[]"
    assert obj["blocks"][0]["members"] == ["[3]", "[2,1]", "[1,1,1]"]
    assert obj["derived_equivalence_classes"] == [{"p_weight": 1, "cores": ["[]"]}]


def test_blocks_command_builds_the_layer_once(monkeypatch, capsys):
    import fockspace.cli as cli_module

    # the package re-exports the function blocks, which hides the module name
    blocks_module = importlib.import_module("fockspace.blocks")
    calls = []
    original = blocks_module.blocks

    def counting(d, e):
        calls.append((d, e))
        return original(d, e)

    monkeypatch.setattr(blocks_module, "blocks", counting)
    monkeypatch.setattr(cli_module, "blocks", counting)
    code, _, _ = run_cli(capsys, "blocks", "--modulus", "3", "--degree", "6")
    assert code == 0
    assert calls == [(6, 3)]


def test_blocks_modulus_zero_has_no_grouping(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--modulus", "0", "--degree", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["blocks"]) == 2
    assert obj["derived_equivalence_classes"] is None


def test_op_matrix_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "fock", "op-matrix",
        "--op", "f", "--residue", "0", "--modulus", "2", "--degree", "0",
    )
    assert code == 0
    assert json.loads(out) == {"rows": ["[1]"], "cols": ["[]"], "entries": [[0, 0, 1]]}


def test_op_matrix_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "fock", "op-matrix",
        "--op", "e", "--residue", "2", "--modulus", "3", "--degree", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["row,col,coeff", "0,0,1", "0,1,1"]


def test_crystal_json(capsys):
    code, out, _ = run_cli(capsys, "crystal", "--modulus", "3", "--max-size", "2")
    assert code == 0
    obj = json.loads(out)
    assert [(ed["src"], ed["dst"], ed["residue"]) for ed in obj["edges"]] == [
        ("[]", "[1]", 0),
        ("[1]", "[2]", 1),
        ("[1]", "[1,1]", 2),
    ]


def test_crystal_dot(capsys):
    code, out, _ = run_cli(
        capsys, "crystal", "--modulus", "2", "--max-size", "1", "--format", "dot"
    )
    assert code == 0
    assert '"[]" -> "[1]" [label="0"];' in out


def test_casimir_command(capsys):
    code, out, _ = run_cli(capsys, "casimir", "--partition", "[2,1]", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["casimir"] == 9
    assert {entry["residue"] for entry in obj["removable"]} == {-1, 1}


@pytest.mark.parametrize("n", ["1", "2"])
def test_casimir_rank_error_names_the_input(capsys, n):
    code, _, err = run_cli(capsys, "casimir", "--partition", "[2,1]", "--n", n)
    assert code == 2
    assert "[2,1]" in err and "[2,1,1]" not in err


def test_branch_and_pieri_commands(capsys):
    code, out, _ = run_cli(capsys, "branch", "--partition", "[2,1]", "--n", "3")
    assert code == 0 and json.loads(out) == ["[2]", "[1,1]"]
    code, out, _ = run_cli(capsys, "pieri", "--partition", "[2,1]", "--n", "3")
    assert code == 0 and json.loads(out) == ["[3,1]", "[2,2]", "[2,1,1]"]


def test_hecke_normal_form_command(capsys):
    code, out, _ = run_cli(
        capsys, "hecke", "normal-form", "--rank", "2", "--expr", "t1*y2*t1"
    )
    assert code == 0
    assert json.loads(out) == [
        {"exponents": [0, 0], "permutation": [2, 1], "coeff": 1},
        {"exponents": [1, 0], "permutation": [1, 2], "coeff": 1},
    ]


def test_verify_command_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--modulus", "3", "--max-size", "4", "--suite", "crystal"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--modulus", "2", "--max-size", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True and len(obj["results"]) > 20


def test_determinism_byte_identical(capsys):
    args = ["verify", "--modulus", "3", "--max-size", "4", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)

    args = ["crystal", "--modulus", "2", "--max-size", "5"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_all_printed_partitions_reparse(capsys):
    _, out, _ = run_cli(capsys, "blocks", "--modulus", "2", "--degree", "4")
    obj = json.loads(out)
    for block in obj["blocks"]:
        assert str(Partition.parse(block["core"])) == block["core"]
        for member in block["members"]:
            assert str(Partition.parse(member)) == member
    _, out, _ = run_cli(capsys, "crystal", "--modulus", "3", "--max-size", "4")
    for node in json.loads(out)["nodes"]:
        assert str(Partition.parse(node["partition"])) == node["partition"]
    _, out, _ = run_cli(
        capsys, "fock", "op-matrix", "--op", "e", "--residue", "1", "--modulus", "3", "--degree", "4"
    )
    obj = json.loads(out)
    for label in obj["rows"] + obj["cols"]:
        assert str(Partition.parse(label)) == label


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "core", "--modulus", "1", "--partition", "[2]")
    assert code == 2 and "modulus" in err
    code, _, err = run_cli(capsys, "core", "--modulus", "2", "--partition", "[1,2]")
    assert code == 2 and "[1,2]" in err or "decreasing" in err
    code, _, err = run_cli(capsys, "branch", "--partition", "[2,1]", "--n", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "not-a-command")
    assert code == 2
    code, _, err = run_cli(capsys, "hecke", "normal-form", "--rank", "2", "--expr", "q1")
    assert code == 2 and "q" in err


def test_unknown_flag_reported(capsys):
    code, _, err = run_cli(capsys, "crystal", "--modulus", "2", "--max-size", "2", "--bogus")
    assert code == 2 and "--bogus" in err


def test_negative_residue_accepted_for_modulus_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "fock", "op-matrix",
        "--op", "f", "--residue", "-1", "--modulus", "0", "--degree", "1",
    )
    assert code == 0
    assert json.loads(out) == {"rows": ["[2]", "[1,1]"], "cols": ["[1]"], "entries": [[1, 0, 1]]}


def test_verify_failure_exit_code(monkeypatch, capsys):
    import fockspace.verify as verify_module

    def broken(e, d):
        return "synthetic counterexample"

    monkeypatch.setitem(
        verify_module.SUITES,
        "crystal",
        lambda e, d, seed: [
            verify_module.SuiteResult(
                "crystal", "synthetic", {}, False, "synthetic counterexample", 0.0
            )
        ],
    )
    code, out, _ = run_cli(capsys, "verify", "--modulus", "2", "--max-size", "2", "--suite", "crystal")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False
    assert obj["results"][0]["counterexample"] == "synthetic counterexample"
