import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from fockspace import cli
from fockspace.cli import main
from fockspace.characters import branch_r1, pieri_mult
from fockspace.crystal import e_tilde, f_tilde
from fockspace.fock import FockVector, apply_f
from fockspace.hecke import HeckeElement
from fockspace.partitions import (
    MINUS,
    PLUS,
    Box,
    Partition,
    add_box,
    addable_boxes,
    core_and_weight,
    i_corners,
    n_value,
    partitions_of,
    partitions_up_to,
    remove_box,
    removable_boxes,
    removable_rim_hooks,
    rim_corners,
)
from fockspace.verify import VerifyReport

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CLI_TEXT = json.loads((ROOT / "tests" / "data" / "cli_text.json").read_text())


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


def test_casimir_and_the_corner_layer_answer_at_once_on_a_huge_part(capsys):
    big = 10**12
    p = Partition((big, 5))
    with deadline(10):
        code, out, err = run_cli(
            capsys, "casimir", "--partition", f"[{big},5]", "--n", "3", "--modulus", "3"
        )
        corners = rim_corners(p)
        by_residue = [(i_corners(p, i, 3), n_value(p, i, 3)) for i in range(3)]
        tildes = [(f_tilde(p, i, 3), e_tilde(p, i, 3)) for i in range(3)]
        images = [apply_f(FockVector.basis(p), i, 3) for i in range(3)]
        hooks = removable_rim_hooks(p, 3)
    assert (code, err) == (0, "")
    # the exact JSON, byte for byte
    assert out == (
        '{"partition": "[1000000000000,5]", "n": 3, "modulus": 3, '
        '"casimir": 1000000000002000000000025, '
        '"removable": [{"box": [2, 5], "content": 3, "residue": 0}, '
        '{"box": [1, 1000000000000], "content": 999999999999, "residue": 0}], '
        '"addable": [{"box": [3, 1], "content": -2, "residue": 1}, '
        '{"box": [2, 6], "content": 4, "residue": 1}, '
        '{"box": [1, 1000000000001], "content": 1000000000000, "residue": 1}]}\n'
    )
    assert corners == [(1, 3, 1), (-1, 2, 5), (1, 2, 6), (-1, 1, big), (1, 1, big + 1)]
    assert by_residue == [
        ([(MINUS, Box(2, 5)), (MINUS, Box(1, big))], -2),
        ([(PLUS, Box(3, 1)), (PLUS, Box(2, 6)), (PLUS, Box(1, big + 1))], 3),
        ([], 0),
    ]
    assert tildes == [
        (None, Partition((big - 1, 5))),
        (Partition((big, 5, 1)), None),
        (None, None),
    ]
    assert images[0].is_zero() and images[2].is_zero()
    assert images[1].terms == {
        Partition((big, 5, 1)): 1,
        Partition((big, 6)): 1,
        Partition((big + 1, 5)): 1,
    }
    assert hooks == [
        (frozenset({Box(2, 3), Box(2, 4), Box(2, 5)}), Partition((big, 2))),
        (frozenset({Box(1, big - 2), Box(1, big - 1), Box(1, big)}), Partition((big - 3, 5))),
    ]


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


def test_pieri_and_branch_print_the_box_enumeration_up_to_size_7(capsys):
    for k in range(1, 8):
        for p in partitions_of(k):
            removed = sorted((remove_box(p, b) for b in removable_boxes(p)), reverse=True)
            for n in (k, k + 1, k + 4):
                added = sorted((add_box(p, b) for b in addable_boxes(p) if b.row <= n), reverse=True)
                for command, shapes in (("pieri", added), ("branch", removed)):
                    got = run_cli(capsys, command, "--partition", str(p), "--n", str(n))
                    assert got == (0, json.dumps([str(q) for q in shapes]) + "\n", "")


def test_branch_of_one_box_in_1500_variables(capsys):
    assert run_cli(capsys, "branch", "--partition", "[1]", "--n", "1500") == (0, '["[]"]\n', "")


HUGE_CORE_REQUESTS = [
    ("3", "[99999999999999999999999]"),
    ("2", "[" + ",".join(["1"] * 5000) + "]"),
    ("2", "[" + ",".join(str(k) for k in range(24, 0, -2)) + "]"),
    (str(10**12), "[4,4,2,1]"),
]


def test_core_pieri_and_branch_text_equals_the_dumped_structures(capsys):
    """The directly written JSON is json.dumps of the dict and lists it replaced."""
    requests = [
        (modulus, str(p)) for p in partitions_up_to(8) for modulus in ("0", "2", "3", "5")
    ] + HUGE_CORE_REQUESTS
    for modulus, text in requests:
        core, weight = core_and_weight(Partition.parse(text), int(modulus))
        expected = json.dumps({"core": str(core), "p_weight": weight}) + "\n"
        assert run_cli(capsys, "core", "--modulus", modulus, "--partition", text) == (0, expected, "")
    for p in partitions_up_to(8):
        for n in (max(p.size, 1), p.size + 1, p.size + 4):
            for command, expand in (("pieri", pieri_mult), ("branch", branch_r1)):
                expected = json.dumps([str(q) for q in expand(p, n)]) + "\n"
                got = run_cli(capsys, command, "--partition", str(p), "--n", str(n))
                assert got == (0, expected, ""), (command, p, n)


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


@pytest.mark.parametrize("expr, written", [("y1)", ")"), ("y1 y2", "y2"), ("y1 3", "3")])
def test_a_trailing_token_is_named_as_written(capsys, expr, written):
    code, out, err = run_cli(capsys, "hecke", "normal-form", "--rank", "2", "--expr", expr)
    assert (code, out, err) == (2, "", f"error: trailing token {written!r} in expression\n")


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


def test_an_exception_inside_a_check_is_its_failure(monkeypatch, capsys):
    import fockspace.partitions as partitions_module

    original = partitions_module.removable_boxes

    def wrong(p):
        boxes = original(p)
        return boxes[:-1] if len(p) == 3 else boxes

    # remove_box then refuses a box that box_counts hands it
    monkeypatch.setattr(partitions_module, "removable_boxes", wrong)
    code, out, err = run_cli(capsys, "verify", "--suite", "crystal", "--modulus", "3", "--max-size", "6")
    assert (code, err) == (1, "")
    found = {r["name"]: r["counterexample"] for r in json.loads(out)["results"]}
    assert found["box_counts"] == "ValueError: box (3, 1) is not removable from [1,1,1]"


def test_verify_names_a_schur_expansion_that_does_not_cancel(monkeypatch, capsys):
    import fockspace.characters as characters_module

    original = characters_module._kostka
    # drop the leading (largest) term of every Kostka row the expansion subtracts
    monkeypatch.setattr(characters_module, "_kostka", lambda shape, n: original(shape, n)[:-1])
    with deadline(30):
        code, out, err = run_cli(capsys, "verify", "--modulus", "3", "--max-size", "4", "--suite", "characters")
    assert code == 1 and err == ""
    obj = json.loads(out)
    assert obj["passed"] is False
    found = {r["name"]: r["counterexample"] for r in obj["results"]}
    assert found["branch_coherence"] == "s_[] does not cancel its leading term (0,)"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("y1*" + "9" * 4400, "integer in expression has 4400 digits, more than 4300"),
        ("y" + "9" * 4400, "index of y in expression has 4400 digits, more than 4300"),
        ("t" + "9" * 4400, "index of t in expression has 4400 digits, more than 4300"),
    ],
    ids=["integer", "y_index", "t_index"],
)
def test_an_integer_too_long_to_read_is_named_as_input(capsys, expr, message):
    code, out, err = run_cli(capsys, "hecke", "normal-form", "--rank", "2", "--expr", expr)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_internal_fault_exits_3_with_one_line(monkeypatch, capsys):
    def broken(p, e):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "core_and_weight", broken)
    code, out, err = run_cli(capsys, "core", "--modulus", "2", "--partition", "[1]")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: synthetic fault\n")


def test_a_failed_schur_self_check_exits_3(monkeypatch, capsys):
    import fockspace.characters as characters_module

    original = characters_module._kostka
    # drop the leading (largest) term of every Kostka row the expansion subtracts
    monkeypatch.setattr(characters_module, "_kostka", lambda shape, n: original(shape, n)[:-1])
    code, out, err = run_cli(capsys, "pieri", "--partition", "[2,1]", "--n", "3")
    assert (code, out) == (3, "")
    assert err == "internal error: ArithmeticError: s_[3, 1] does not cancel its leading term (3, 1, 0)\n"


def test_a_failed_core_self_check_exits_3(monkeypatch, capsys):
    import fockspace.partitions as partitions_module

    # the core [1] of [4] mod 3 read off the beads with its first row lost
    read_off = partitions_module._from_beads
    monkeypatch.setattr(
        partitions_module, "_from_beads", lambda beads: Partition(read_off(beads).parts[1:])
    )
    code, out, err = run_cli(capsys, "core", "--modulus", "3", "--partition", "[4]")
    assert (code, out, err) == (3, "", "internal error: ArithmeticError: |[4]| != |[]| + 3 * 1\n")


def test_a_rank_too_large_for_a_tuple_is_a_usage_error(capsys):
    rank = sys.maxsize + 1
    code, out, err = run_cli(capsys, "hecke", "normal-form", "--rank", str(rank), "--expr", "t1")
    assert (code, out, err) == (2, "", f"error: --rank must be at most {cli.MAX_HECKE_RANK}, got {rank}\n")


def test_an_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupted(p, e):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "core_and_weight", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["core", "--modulus", "2", "--partition", "[1]"])


# Help texts and usage errors are argparse's, recorded with COLUMNS=80.  The
# 3.11 recording comes from the hand-written parser that COMMANDS replaced, so
# the table must rebuild that parser exactly.  argparse's wording changes
# between Python versions, so each minor version has its own recording
# (tests/data/record_cli_text.py adds one); every recording has the same argv.
RECORDED = CLI_TEXT["recordings"].get("%d.%d" % sys.version_info[:2])


@pytest.mark.skipif(
    RECORDED is None,
    reason=f"argparse's help and error text is recorded on Python {', '.join(CLI_TEXT['recordings'])}",
)
@pytest.mark.parametrize(
    "case", RECORDED or CLI_TEXT["recordings"]["3.11"],
    ids=lambda case: " ".join(case["argv"]) or "(no arguments)",
)
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", str(CLI_TEXT["columns"]))
    assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def run_module(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """``python -m fockspace.cli`` in a fresh interpreter, as the console script runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fockspace.cli", *args],
        cwd=ROOT, env=env, stdout=stdout, stderr=stderr, text=True, timeout=60,
    )


def test_console_script_prints_the_readme_core_example():
    lines = README.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("$ fockspace core "))
    done = run_module(*shlex.split(lines[k])[2:])
    assert (done.returncode, done.stdout, done.stderr) == (0, lines[k + 1] + "\n", "")


def test_console_script_help_exits_0():
    done = run_module("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: fockspace ")


def test_console_script_usage_error_exits_2():
    done = run_module("core", "--mod", "2")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: fockspace core ")


@pytest.mark.parametrize("argv", [
    ("core", "--modulus", "3", "--partition", "[6,4,2,2,1]"),
    ("crystal", "--modulus", "0", "--max-size", "8"),
])
def test_a_closed_output_exits_141_with_nothing_on_stderr(argv):
    """A reader that stopped early is neither an internal error (3) nor a failed verification (1)."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_module(*argv, stdout=write)
        assert (done.returncode, done.stderr) == (141, "")
        assert run_module(*argv, stdout=write, stderr=write).returncode == 141
    finally:
        os.close(write)


def _argparse_reads(argv):
    """vars() of the namespace argparse returns for argv, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_reader_agrees_with_argparse(argv):
    """The reader gives argparse's namespace or None, and reads each flag once.

    argparse lets a repeated flag's last value win; the reader leaves that to it.
    """
    mine = cli._read_request(argv)
    if mine is not None:
        assert vars(mine) == _argparse_reads(argv), argv
        flags = [token for token in argv if token.startswith("-")]
        assert len(flags) == len(set(flags)), argv


def _readme_requests():
    return [
        shlex.split(line)[2:]
        for line in README.read_text().splitlines()
        if line.startswith("$ fockspace ")
    ]


def _requests_written_in(source):
    """Every argv spelled out in source: constant run_cli arguments, and lists
    or tuples of strings that start with a command or --profile."""
    starts = {path[0] for path in cli.COMMANDS if path} | {"--profile"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli":
            items = node.args[1:]
        elif isinstance(node, (ast.List, ast.Tuple)):
            items = node.elts
        else:
            continue
        if items and all(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in items):
            argv = [x.value for x in items]
            if argv[0] in starts:
                found.append(argv)
    return found


CORPUS = (
    _readme_requests()
    + _requests_written_in(Path(__file__).read_text())
    + [case["argv"] for case in CLI_TEXT["recordings"]["3.11"]]
)


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_reader_agrees_with_argparse_on_the_corpus(argv):
    assert_reader_agrees_with_argparse(argv)


def test_corpus_covers_the_readme_and_this_file():
    assert ["hecke", "normal-form", "--rank", "2", "--expr", "t1*y2*t1"] in _readme_requests()
    assert ["core", "--modulus", "2", "--partition", "[2,1,1]"] in CORPUS
    assert ["fock", "op-matrix", "--op", "e", "--residue", "2", "--modulus", "3",
            "--degree", "3", "--format", "csv"] in CORPUS


@pytest.mark.parametrize("argv", _readme_requests(), ids=" ".join)
def test_plain_requests_do_not_build_a_parser(monkeypatch, capsys, argv):
    def unused():
        raise AssertionError("a plain request built the argparse parser")

    monkeypatch.setattr(cli, "_build_parser", unused)
    assert run_cli(capsys, *argv)[0] == 0


def test_a_repeated_flag_keeps_its_last_value(capsys):
    once = run_cli(capsys, "verify", "--suite", "crystal", "--max-size", "2")
    twice = run_cli(capsys, "verify", "--suite", "hecke", "--max-size", "2", "--suite", "crystal")
    assert twice == once and once[0] == 0


RUNNABLE = [path for path, command in cli.COMMANDS.items() if command.run is not None]
TOKENS = sorted(
    {token for path in cli.COMMANDS for token in path}
    | {option.flag for command in cli.COMMANDS.values() for option in command.options}
    | {"-h", "--help", "--profile", "--", "--mod", "--modulus=3"}
)
VALUES = ["3", "-1", "0", " 3", "+3", "\u0663", "1_0", "9" * 4400, "json", "xml", "[2,1]", ""]


# each flaw of a near request is drawn one time in three
FLAW = st.sampled_from((False, False, True))


@st.composite
def near_requests(draw):
    """A runnable path with its flags in any order, and at random a flag left
    out, a flag repeated or a stray token; values may not convert."""
    path = draw(st.sampled_from(RUNNABLE))
    options = draw(st.permutations(cli.COMMANDS[path].options))
    if options and draw(FLAW):
        options.pop()
    if options and draw(FLAW):
        options.append(draw(st.sampled_from(options)))
    argv = list(path)
    for option in options:
        argv.append(option.flag)
        if option.type is not None:
            argv.append(draw(st.sampled_from(option.choices or ("3",)) | st.sampled_from(VALUES)))
    if draw(FLAW):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS + VALUES)))
    return argv


@settings(max_examples=400, deadline=None)
@given(near_requests() | st.lists(st.sampled_from(TOKENS + VALUES), max_size=8))
def test_reader_agrees_with_argparse(argv):
    assert_reader_agrees_with_argparse(argv)


def test_reader_table_says_what_the_options_say():
    assert list(cli.READERS) == RUNNABLE
    for path, (defaults, flags, required) in cli.READERS.items():
        options = cli.COMMANDS[path].options
        assert flags == {
            option.flag: (option.flag[2:].replace("-", "_"), option.type, option.choices)
            for option in options
        }
        assert required == {option.flag for option in options if option.required}
        subcommands = {"command": path[0]}
        if len(path) == 2:
            subcommands[f"{path[0]}_command"] = path[1]
        assert defaults == {
            "run": cli.COMMANDS[path].run,
            "profile": False,
            **subcommands,
            **{option.dest: option.default for option in options},
        }
        # argparse, given only the required flags, fills in the same defaults
        argv = list(path)
        for flag in sorted(required):
            choices = flags[flag][2]
            argv += [flag, str(choices[0]) if choices else "1"]
        parsed = _argparse_reads(argv)
        assert parsed is not None, argv
        given = {flags[flag][0] for flag in required}
        assert {k: v for k, v in parsed.items() if k not in given} == {
            k: v for k, v in defaults.items() if k not in given
        }


# sha256 of the stdout of the benchmark's crystal requests (its graph_export
# workload), recorded from the graph builder that called f_tilde on every
# residue of the window and formatted each label per use.
CRYSTAL_STDOUT_SHA256 = {
    ("2", "22", "json"): "d286e8b522fd39121270702bd3dea91c387850603ac76cd1d8717d8dd3bbc37e",
    ("2", "22", "dot"): "d4cc06b5e6daadce2c5dbc85645affc5deddfc2d281036a341a42bf9232caa87",
    ("3", "22", "json"): "497c6aefed045d955e504099035a250779dc9b5124b939ccf6b5888407a0166f",
    ("3", "22", "dot"): "e836ec08a63428c5e2bee45b9ba171eb99bcdd1f9dce07d531701a865bfa6074",
    ("5", "22", "json"): "322b5fa93ed6a599eb0e6c7e48d500f9a5737f4e4f6593f8d22cebb482e60835",
    ("5", "22", "dot"): "c7ac6714e72d494bfec9480d1eb57c758823b8dec5fe051c487159e05684db55",
    ("0", "18", "json"): "bbec890263170c9f1438d1272bf25eb73e4871aa99692b0859452597cb9c91c0",
    ("0", "18", "dot"): "f75973e36a77383fd84315fa7ba6a3fa05a3cbf7f52fa1fbc4a045257e2301bb",
}


@pytest.mark.parametrize("modulus, max_size, fmt", sorted(CRYSTAL_STDOUT_SHA256))
def test_crystal_output_is_pinned(capsys, modulus, max_size, fmt):
    code, out, err = run_cli(
        capsys, "crystal", "--modulus", modulus, "--max-size", max_size, "--format", fmt
    )
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CRYSTAL_STDOUT_SHA256[modulus, max_size, fmt]


# sha256 of the stdout of the benchmark's fock op-matrix requests (its
# graph_export workload, all at modulus 3), recorded from the builder that
# applied e_i, f_i or h_i to one basis vector per column.
OP_MATRIX_STDOUT_SHA256 = {
    ("e", "0", "23", "json"): "f2c6d29e2e37174da0e95b2f31c29e987b921e04893b9274b7b2da29d239ae19",
    ("e", "0", "23", "csv"): "b0f9b8aba603af520a5fd3a93a768f85064e9a7f05bcef916cde95111a74e14f",
    ("e", "1", "23", "json"): "b109cc610327150922bb9690256833c84f407ff1ff33eeb44e5d0307d7d1afbe",
    ("e", "1", "23", "csv"): "fa9a1b469ea55029663e1fe4c7fb912c6dd332aed78b2d08eaf6b7e611d92fa2",
    ("e", "2", "23", "json"): "1cfae17bbedeed71dffb0ce2bcf36cf22a599a70d795a36fbc57071abbe23b6f",
    ("e", "2", "23", "csv"): "fa65c2570de29e8a7c720e62575228861e098ae60b1bdca99072b3fab275c2f6",
    ("f", "0", "22", "json"): "b9eb8e230339174925b4e50840e7e7a4959d1f99c682f8a572cc03ea1268f518",
    ("f", "0", "22", "csv"): "82cfbfb685fb5892dd9201c3f45e412df9d26eaa3dab6d92eb45f70246cd4180",
    ("f", "1", "22", "json"): "87b69039ea8d473887140ea306ba411c895226f8df4ff784c38bb07441b91b3e",
    ("f", "1", "22", "csv"): "e98ccbd6bd027af2114690dab9991770057116af3450806e0e28573b53449349",
    ("f", "2", "22", "json"): "e77d30e10285ae1c0b7e2f5c73c55f9633e5ff88219a9e22b1114e35ccd98118",
    ("f", "2", "22", "csv"): "50003671a68c67522405cdc9be8433bba8f2d51c88890343e41b702adcef85fa",
    ("h", "0", "22", "json"): "8d7ad9b79a423129920f47bfd47830a94e370be29b43cd6404eefa8e2f423ae3",
    ("h", "0", "22", "csv"): "5d3a62a996fc641b2ab797ded4727a78d9ad315290ec4ad7409817da48ab89eb",
    ("h", "1", "22", "json"): "e91fbecaa5249495e4d31e43764e8d54764f82f09730d805bb7591f005aaf505",
    ("h", "1", "22", "csv"): "a05696d7c219b8cb2739ebcd88ab2ec2a8cd59dfed01f8af841ca464e5c55c65",
    ("h", "2", "22", "json"): "8c3caa765dea214b3031af805528269913736075a7681102fe4ad6f49dff9625",
    ("h", "2", "22", "csv"): "55046f3c3ef0b8a7d144aa221eeb668de0c8059755619baef7d525d7d285673e",
}


@pytest.mark.parametrize("op, residue, degree, fmt", sorted(OP_MATRIX_STDOUT_SHA256))
def test_op_matrix_output_is_pinned(capsys, op, residue, degree, fmt):
    code, out, err = run_cli(
        capsys, "fock", "op-matrix", "--op", op, "--residue", residue, "--modulus", "3",
        "--degree", degree, "--format", fmt,
    )
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == OP_MATRIX_STDOUT_SHA256[op, residue, degree, fmt]


# sha256 of the stdout of the benchmark's blocks requests (its cores_blocks
# workload), recorded from the enumeration that built every (degree,
# largest part) level of partitions_of as its own cached tuple.
BLOCKS_STDOUT_SHA256 = {
    ("2", "16"): "9763b615adedcfbf929807c78dd1fca4e1f23d39ef6c3e67a01acb0faf0828e5",
    ("3", "16"): "4b83cd1483cd231783ac9f4e03c2aa05807542f35dfcec6cdf3196ed71f327ec",
    ("5", "16"): "19519957f0f0b4c8b07e5211a384f6886097eccf6a3b010c48c9e4b3bbe6369d",
    ("2", "17"): "27a83fc1319641bdd87a2a60ec86b7e25d549486ea342ae53c2eb1dd7867d61c",
    ("3", "17"): "fccebbb463cdda6206176afe6ee2942a2cb3ab297b724e6691b9a0c9499f7db5",
    ("5", "17"): "90a3b5ecade1db8d22c4aeeeac31c3d4981a25fc369398a1abf0fbebcd24f0c4",
    ("2", "18"): "97258887c2d4a40b09fae1faa0b49616191959f7f494370458560d2782dcf963",
    ("3", "18"): "e7ad56925454ad3867d993a4d84e1161bab25ff4aa73ffd7a74b95cd3432e1aa",
    ("5", "18"): "8ae2b9bbc55b30dc9cfe5f5295897b32ad57959d32d6a4b97c474eaae23f1091",
    ("2", "19"): "4f6df5b9b04c65542e5e8787ce9585eade4549efa6d6967025c483c46a4a9b4a",
    ("3", "19"): "24fe425cd99599104fa1dd391669c720e965684356bd9a10da3b9f9be4551038",
    ("5", "19"): "5d0f57e6342cc9c1ef8465f12232d8ed1f1a1287a23c50a3ec17af18db80dc4e",
}


@pytest.mark.parametrize("modulus, degree", sorted(BLOCKS_STDOUT_SHA256))
def test_blocks_output_is_pinned(capsys, modulus, degree):
    code, out, err = run_cli(capsys, "blocks", "--modulus", modulus, "--degree", degree)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BLOCKS_STDOUT_SHA256[modulus, degree]


# sha256 of the stdout of verify --suite all at every modulus of the
# verify_sweep workload and every --max-size up to the benchmark's 8,
# recorded from the relation checks that applied e_i, f_i and h_i to one
# basis vector at a time.
VERIFY_STDOUT_SHA256 = {
    ("0", "0"): "46b459e392b7d86fcd891e26c8a15272b28a09af41869953fe5691628c103943",
    ("0", "1"): "1a4017769b9ac664b97c201224cc47f903d634a07095f36db60f92001439b4bb",
    ("0", "2"): "0a7f60eee60f7abfd51ae8fa2dc78167a130a11675306d4486355b3b151f978c",
    ("0", "3"): "c6ed5951f6ef9c72ec834e34edb1775a5cf845dae2e4f869e696a3a0dbf7e73c",
    ("0", "4"): "7ef01f5e144353d36ed3e23321ac25204605de99d13941b258d0f6f3f4c458d6",
    ("0", "5"): "0684c428ac5b6bf5ce31bf147aade919bf6238edb194575e78dd585e9b8c3805",
    ("0", "6"): "29a535d5b0ccf7445708af5a25af0d09a5961c24b50409d0360c528be6def071",
    ("0", "7"): "f661f32c827c45f35b77d90dbd3c780c4c871d712cd46f988ad5b199f6906b6b",
    ("0", "8"): "eab4ca0d3995180474f5e9af21f5e8774337b1bdf90006892777fbaa78ab6178",
    ("2", "0"): "0fed771987be5d0c6f35f3372991d0ff289894f43b72bf74090e67a737de6843",
    ("2", "1"): "eb34c7605d66ea7f292ee61db9539b4dc03f27d8629ddc3ea5e8c1d88037b3e6",
    ("2", "2"): "b7d53163acaa48dd8d4200cab9a6e0fe72365a60bb434e8ca0d880acfd8db45f",
    ("2", "3"): "8f85a7a639c6b0764ceb81c059672e61bd5c0ee12693cd819242d26d986efd51",
    ("2", "4"): "e403b151d5a4fb92d4714efcf80871d9843107537db43fe34c6171067c5fd187",
    ("2", "5"): "419ae60473a92a78e7582d96b272502d6dbe32b0a94ae62b4318f9ce9a83721b",
    ("2", "6"): "f75f174e576eec4e71d43e0a5ad0adc87d98d5505380440656a606bb7b209add",
    ("2", "7"): "6a25728c222dba30702ce366e3d3b9b260b600065ddc68d604bf26dd3395d372",
    ("2", "8"): "a62016597374ba546c6fadea7d1a783aa9206a13c6ea97073e673fcb13695b1d",
    ("3", "0"): "a72dd167e27eca227d05349475c049e092b23682b2a4ff3da6a7f66546d1e84a",
    ("3", "1"): "5c368a24d1fdc817a33c8ba1df8e26c2119c84e649cbba3ce7664782b052fed8",
    ("3", "2"): "19e835200da6d1f8d63433fba12551c3e6944fdbc7da7f5bdf21a3f0391a4006",
    ("3", "3"): "8034dfe0e1dad315fd77baee41c74fec8f0f03ce271e1660ce25053e4e5ca6eb",
    ("3", "4"): "4daf549949e63d115bea6c9c0ece3a8c2c39133a50a22ba8613ff19b45ab6e6e",
    ("3", "5"): "04ea9c2a50c48e89f777ce5286b7861145ed864d22865388cfef1f3c9e3f69d9",
    ("3", "6"): "b3bec08dd28ce952d02a328c8626a6907e119da164f9a51ea8637f5908fe2a8d",
    ("3", "7"): "fd5c020e430a572fdcbd20064a6098c00f3e7c17757685fd40ff5fbe4d872b91",
    ("3", "8"): "62767ddcb755730e8982249c9a61a792fc776f0ebcd4023f001601667ffb8a13",
    ("5", "0"): "7140d113c21faed8b736db63f0aa960b6bc86ac6b26507c98bb7ca38b36cc48a",
    ("5", "1"): "edcdcfb41aebfaf0d3085c80e9ed5855fc3e0f348eb7ad4b7240dc315ecb6f00",
    ("5", "2"): "15180d58b6616a0d7a1d79f20b8455767500a6813228a09854fafe71aacff0db",
    ("5", "3"): "6dfc018dbb67d41e0a5edc4f807b7b78eda5b2866f34cc45f63e9ccbf183f4f4",
    ("5", "4"): "81b4b09d216f38ae5e55bb9a736cb36f30a65ac27f603a6d2c33e3b4cdbd9088",
    ("5", "5"): "01459981d4bb922495edba74dd2e9d8d073bd2ed1686c1e6b87bebb3b04710c8",
    ("5", "6"): "26ab4e0f0611b2902c2412aff545d5a496f4c63a5e0174556193b1095c7be413",
    ("5", "7"): "fa428936268908796bdf24e32701778e38af4a9ca441ca0217b9165e78256f7d",
    ("5", "8"): "f97caa292366a9a3fb5faadeb64dbfe15c2c8830e1455fdba09b7342e76f0f1a",
}


@pytest.mark.parametrize("modulus, max_size", sorted(VERIFY_STDOUT_SHA256))
def test_verify_output_is_pinned(capsys, modulus, max_size):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "all", "--modulus", modulus, "--max-size", max_size
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[modulus, max_size]


def _always_add_a_box(p, i, e):
    return Partition((p.row(1) + 1, *p.parts[1:]))


@pytest.mark.parametrize(
    "op, wrong", [("f_tilde", _always_add_a_box), ("e_tilde", lambda p, i, e: p)]
)
def test_a_crystal_operator_that_never_stops_fails_string_lengths(monkeypatch, capsys, op, wrong):
    import fockspace.verify as verify_module

    monkeypatch.setattr(verify_module, op, wrong)
    with deadline(30):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "crystal", "--modulus", "3", "--max-size", "3"
        )
    assert code == 1
    (result,) = [r for r in json.loads(out)["results"] if r["name"] == "string_lengths"]
    assert result["passed"] is False
    assert "string longer than" in result["counterexample"]


WORK_LIMITS = [
    (["crystal", "--modulus", "2", "--max-size"], "--max-size", cli.MAX_CRYSTAL_SIZE),
    (
        ["fock", "op-matrix", "--op", "e", "--residue", "0", "--modulus", "3", "--degree"],
        "--degree",
        cli.MAX_OP_DEGREE,
    ),
    (["verify", "--suite", "all", "--modulus", "0", "--max-size"], "--max-size", cli.MAX_VERIFY_SIZE),
    (["blocks", "--modulus", "2", "--degree"], "--degree", cli.MAX_BLOCKS_DEGREE),
    (["verify", "--suite", "all", "--max-size", "0", "--modulus"], "--modulus", cli.MAX_VERIFY_MODULUS),
    (["hecke", "normal-form", "--expr", "t1", "--rank"], "--rank", cli.MAX_HECKE_RANK),
]


@pytest.mark.parametrize("argv, flag, bound", WORK_LIMITS)
def test_a_size_over_its_work_limit_is_a_usage_error(capsys, argv, flag, bound):
    code, out, err = run_cli(capsys, *argv, str(bound + 1))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be at most {bound}, got {bound + 1}\n"


@pytest.mark.parametrize("argv, flag, bound", WORK_LIMITS)
def test_a_size_at_its_work_limit_is_accepted(monkeypatch, capsys, argv, flag, bound):
    seen = []
    small_graph, small_matrix = cli.crystal_graph(2, 1), cli.op_matrix("e", 0, 3, 1)
    monkeypatch.setattr(cli, "crystal_graph", lambda e, d: seen.append(d) or small_graph)
    monkeypatch.setattr(cli, "op_matrix", lambda op, i, e, d: seen.append(d) or small_matrix)
    monkeypatch.setattr(cli, "blocks", lambda d, e: seen.append(d) or [])
    monkeypatch.setattr(cli, "parse_expression", lambda expr, n: seen.append(n) or HeckeElement.one(1))
    monkeypatch.setattr(
        cli,
        "run_verify",
        lambda suite, e, d, seed: seen.append(e if flag == "--modulus" else d)
        or VerifyReport(e, d, seed, ()),
    )
    code, _, err = run_cli(capsys, *argv, str(bound))
    assert (code, err, seen) == (0, "", [bound])


@pytest.mark.parametrize("command, engine", [("pieri", "pieri_mult"), ("branch", "branch_r1")])
def test_a_partition_over_the_character_limit_is_a_usage_error(monkeypatch, capsys, command, engine):
    bound = cli.MAX_CHARACTER_SIZE
    monkeypatch.setattr(cli, engine, lambda p, n: pytest.fail("the engine ran"))
    code, out, err = run_cli(capsys, command, "--partition", f"[{bound},1]", "--n", "99")
    assert (code, out) == (2, "")
    assert err == f"error: the size of --partition must be at most {bound}, got {bound + 1}\n"


@pytest.mark.parametrize("command, engine", [("pieri", "pieri_mult"), ("branch", "branch_r1")])
def test_a_partition_at_the_character_limit_is_accepted(monkeypatch, capsys, command, engine):
    bound = cli.MAX_CHARACTER_SIZE
    seen = []
    monkeypatch.setattr(cli, engine, lambda p, n: seen.append((p.size, n)) or [Partition((1,))])
    code, out, err = run_cli(capsys, command, "--partition", f"[{bound - 1},1]", "--n", "99")
    assert (code, out, err, seen) == (0, '["[1]"]\n', "", [(bound, 99)])


def test_a_casimir_partition_over_the_parts_limit_is_a_usage_error(capsys):
    bound = cli.MAX_CASIMIR_PARTS
    column = "[" + ",".join(["1"] * (bound + 1)) + "]"  # one corner: cheap if it were run
    code, out, err = run_cli(capsys, "casimir", "--partition", column, "--n", str(bound + 2))
    assert (code, out) == (2, "")
    assert err == f"error: the number of parts of --partition must be at most {bound}, got {bound + 1}\n"


def test_a_casimir_staircase_at_the_parts_limit_is_accepted(monkeypatch, capsys):
    bound = cli.MAX_CASIMIR_PARTS
    seen = []
    monkeypatch.setattr(cli, "eigenvalue_table", lambda p, n, e: seen.append((len(p), n)) or {})
    staircase = "[" + ",".join(map(str, range(bound, 0, -1))) + "]"
    code, out, err = run_cli(capsys, "casimir", "--partition", staircase, "--n", str(bound + 1))
    assert (code, out, err, seen) == (0, "{}\n", "", [(bound, bound + 1)])


def test_work_limits_cover_every_documented_and_benchmarked_size():
    """The README, this file and the benchmark workloads stay within the limits."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    requests = CORPUS + [
        argv for name in workloads.WORKLOADS for argv in workloads.requests_for(name, 1)
    ]
    sizes = {"--max-size": [], "--degree": []}
    verify_values = {"--max-size": [], "--modulus": []}
    character_sizes, casimir_parts, blocks_degrees, hecke_ranks = [], [], [], []
    for argv in requests:
        if argv[:2] == ["hecke", "normal-form"] and "--rank" in argv[:-1]:
            value = argv[argv.index("--rank") + 1]
            if value.isdigit():
                hecke_ranks.append(int(value))
        if argv[:1] == ["verify"]:
            for flag, values in verify_values.items():
                if flag in argv[:-1] and argv[argv.index(flag) + 1].isdigit():
                    values.append(int(argv[argv.index(flag) + 1]))
        if argv[:1] == ["blocks"] and "--degree" in argv[:-1]:
            value = argv[argv.index("--degree") + 1]
            if value.isdigit():
                blocks_degrees.append(int(value))
        if argv[:1] == ["crystal"] or argv[:2] == ["fock", "op-matrix"]:
            for flag, values in sizes.items():
                if flag in argv[:-1] and argv[argv.index(flag) + 1].isdigit():
                    values.append(int(argv[argv.index(flag) + 1]))
        if argv[:1] in (["pieri"], ["branch"]) and "--partition" in argv[:-1]:
            character_sizes.append(Partition.parse(argv[argv.index("--partition") + 1]).size)
        if argv[:1] == ["casimir"] and "--partition" in argv[:-1]:
            casimir_parts.append(len(Partition.parse(argv[argv.index("--partition") + 1])))
    assert 22 in sizes["--max-size"] and 23 in sizes["--degree"] and 6 in character_sizes
    assert max(sizes["--max-size"]) <= cli.MAX_CRYSTAL_SIZE
    assert max(sizes["--degree"]) <= cli.MAX_OP_DEGREE
    assert max(character_sizes) <= cli.MAX_CHARACTER_SIZE
    assert 2 in casimir_parts and max(casimir_parts) <= cli.MAX_CASIMIR_PARTS
    verify_sizes, verify_moduli = verify_values["--max-size"], verify_values["--modulus"]
    assert 8 in verify_sizes and max(verify_sizes) <= cli.MAX_VERIFY_SIZE
    assert 5 in verify_moduli and max(verify_moduli) <= cli.MAX_VERIFY_MODULUS
    assert 19 in blocks_degrees and max(blocks_degrees) <= cli.MAX_BLOCKS_DEGREE
    assert {2, 3, 6} <= set(hecke_ranks) and max(hecke_ranks) <= cli.MAX_HECKE_RANK
