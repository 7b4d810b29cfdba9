import importlib
import json

import pytest

from conftest import deadline
from fockspace.cli import main
from fockspace.partitions import Partition, partitions_of


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
    # the abacus removes the hooks without a search; one search checks the core
    assert calls == [Partition()]


def test_core_command_on_a_size_156_staircase(capsys):
    staircase = "[" + ",".join(str(k) for k in range(24, 0, -2)) + "]"
    code, out, _ = run_cli(capsys, "core", "--modulus", "2", "--partition", staircase)
    assert code == 0
    assert json.loads(out) == {"core": "[]", "p_weight": 78}


@pytest.mark.parametrize(
    "modulus, partition, weight",
    [
        ("3", "[99999999999999999999999]", 33333333333333333333333),
        ("2", "[" + ",".join(["1"] * 5000) + "]", 2500),
    ],
    ids=["row_of_10**23-1_mod_3", "column_of_5000_mod_2"],
)
def test_core_command_answers_at_once_whatever_the_weight(capsys, modulus, partition, weight):
    with deadline(10):
        code, out, _ = run_cli(capsys, "core", "--modulus", modulus, "--partition", partition)
    assert code == 0
    assert out == json.dumps({"core": "[]", "p_weight": weight}) + "\n"


def test_core_and_blocks_answer_at_once_whatever_the_modulus(capsys):
    modulus = str(10**12)
    with deadline(10):
        core = run_cli(capsys, "core", "--modulus", modulus, "--partition", "[4,4,2,1]")
        code, out, _ = run_cli(capsys, "blocks", "--modulus", modulus, "--degree", "5")
    assert core[:2] == (0, json.dumps({"core": "[4,4,2,1]", "p_weight": 0}) + "\n")
    assert code == 0
    layer = json.loads(out)["blocks"]
    assert [block["core"] for block in layer] == [str(lam) for lam in partitions_of(5)]
    assert all(block["p_weight"] == 0 for block in layer)


@pytest.mark.parametrize(
    "args",
    [
        ("core", "--modulus", "3", "--partition", "[10,8,6,4,2]"),
        ("blocks", "--modulus", "3", "--degree", "8"),
    ],
)
def test_profile_flag_leaves_stdout_and_exit_code_alone(capsys, args):
    plain = run_cli(capsys, *args)
    profiled = run_cli(capsys, "--profile", *args)
    assert profiled[:2] == plain[:2]
    assert plain[2] == ""
    assert "Ordered by: cumulative time" in profiled[2]


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


def test_hecke_deep_nesting_is_a_usage_error(capsys):
    expr = "(" * 2000 + "y1" + ")" * 2000
    code, out, err = run_cli(capsys, "hecke", "normal-form", "--rank", "2", "--expr", expr)
    assert code == 2 and out == ""
    assert err == "error: expression nests deeper than 100 levels\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("hecke", "normal-form", "--rank", "2", "--expr", "y²"),
         "unexpected character '²' in expression"),
        (("core", "--modulus", "2", "--partition", "[１２]"),
         "bad partition entry '１２' in '[１２]'"),
    ],
)
def test_non_ascii_digits_are_a_usage_error(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("command", ["fock", "hecke"])
def test_a_command_without_its_subcommand_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command)
    assert code == 2 and out == "" and err.startswith("usage: fockspace " + command)


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

    synthetic = verify_module.Check(
        "crystal", "synthetic", broken, lambda e, d, seed: {"modulus": e, "max_size": d}
    )
    monkeypatch.setattr(verify_module, "CHECKS", (synthetic, *verify_module.CHECKS))
    code, out, _ = run_cli(capsys, "verify", "--modulus", "2", "--max-size", "2", "--suite", "crystal")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False
    assert obj["results"][0]["counterexample"] == "synthetic counterexample"


def test_verify_names_a_schur_expansion_that_does_not_cancel(monkeypatch, capsys):
    import fockspace.characters as characters_module

    original = characters_module._schur_terms
    # drop the leading (largest) term of every Schur polynomial
    monkeypatch.setattr(characters_module, "_schur_terms", lambda shape, n: original(shape, n)[:-1])
    with deadline(30):
        code, out, err = run_cli(capsys, "verify", "--modulus", "3", "--max-size", "4", "--suite", "characters")
    assert code == 1 and err == ""
    obj = json.loads(out)
    assert obj["passed"] is False
    found = {r["name"]: r["counterexample"] for r in obj["results"]}
    assert found["branch_coherence"] == "s_[] does not cancel its leading term (0,)"
