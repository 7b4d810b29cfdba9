"""The contract of the result records: value equality, hashing, immutability,
``repr`` text and JSON, each record built from a real call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fockspace.blocks import blocks
from fockspace.crystal import crystal_graph, signature
from fockspace.fock import op_matrix, weight
from fockspace.partitions import Partition
from fockspace.verify import SuiteResult, VerifyReport, run_verify

ROOT = Path(__file__).resolve().parent.parent


def _untimed(r):
    """The result ``r`` with its elapsed time zeroed, so that its repr is fixed."""
    return SuiteResult(r.suite, r.name, r.params, r.passed, r.counterexample, 0.0)


def _untimed_report(report):
    return VerifyReport(
        report.modulus, report.max_size, report.seed, tuple(map(_untimed, report.results))
    )


WEIGHT_REPR = "Weight(modulus=3, alpha=((0, 1), (1, 1), (2, 1)))"
SUITE_RESULT_REPR = (
    "SuiteResult(suite='serre', name='cartan_action', params={'modulus': 2, 'max_size': 2}, "
    "passed=True, counterexample=None, elapsed=0.0)"
)
SUITE_RESULT_JSON = (
    '{"suite": "serre", "name": "cartan_action", "params": {"modulus": 2, "max_size": 2}, '
    '"passed": true, "counterexample": null}'
)

# name -> (a real call, field names in order, hashable, repr, outputs, their text)
CASES = {
    "Weight": (
        lambda: weight(Partition((2, 1)), 3),
        ("modulus", "alpha"),
        True,
        WEIGHT_REPR,
        lambda r: json.dumps(r.json_dict()),
        '{"0": 1, "1": 1, "2": 1}',
    ),
    "SparseMatrix": (
        lambda: op_matrix("f", 1, 2, 1),
        ("rows", "cols", "entries"),
        True,
        "SparseMatrix(rows=(Partition((2,)), Partition((1, 1))), cols=(Partition((1,)),), "
        "entries=((0, 0, 1), (1, 0, 1)))",
        lambda r: json.dumps(r.json_dict()) + "\n" + "\n".join(r.csv_lines()),
        '{"rows": ["[2]", "[1,1]"], "cols": ["[1]"], "entries": [[0, 0, 1], [1, 0, 1]]}\n'
        "row,col,coeff\n0,0,1\n1,0,1",
    ),
    "Signature": (
        lambda: signature(Partition((1,)), 1, 2),
        ("symbols",),
        True,
        "Signature(symbols=(('+', Box(row=2, col=1)), ('+', Box(row=1, col=2))))",
        lambda r: r.word,
        "++",
    ),
    "CrystalGraph": (
        lambda: crystal_graph(2, 1),
        ("modulus", "max_size", "nodes", "edges"),
        True,
        "CrystalGraph(modulus=2, max_size=1, nodes=((Partition(()), "
        "Weight(modulus=2, alpha=())), (Partition((1,)), Weight(modulus=2, alpha=((0, 1),)))), "
        "edges=((Partition(()), Partition((1,)), 0),))",
        lambda r: json.dumps(r.json_dict()) + "\n" + r.dot(),
        '{"modulus": 2, "nodes": [{"partition": "[]", "size": 0, "weight": {}}, '
        '{"partition": "[1]", "size": 1, "weight": {"0": 1}}], '
        '"edges": [{"src": "[]", "dst": "[1]", "residue": 0}]}\n'
        'digraph crystal {\n  "[]";\n  "[1]";\n  "[]" -> "[1]" [label="0"];\n}',
    ),
    "Block": (
        lambda: blocks(3, 2)[1],
        ("modulus", "degree", "core", "members", "weight", "p_weight"),
        True,
        "Block(modulus=2, degree=3, core=Partition((1,)), "
        "members=(Partition((3,)), Partition((1, 1, 1))), "
        "weight=Weight(modulus=2, alpha=((0, 2), (1, 1))), p_weight=1)",
        lambda r: json.dumps(r.json_dict()),
        '{"core": "[1]", "members": ["[3]", "[1,1,1]"], "weight": {"0": 2, "1": 1}, '
        '"p_weight": 1}',
    ),
    "SuiteResult": (
        lambda: _untimed(run_verify("serre", 2, 2).results[0]),
        ("suite", "name", "params", "passed", "counterexample", "elapsed"),
        False,  # params is a dict
        SUITE_RESULT_REPR,
        lambda r: json.dumps(r.json_dict()) + "\n" + json.dumps(r.json_dict(True)),
        SUITE_RESULT_JSON + "\n" + SUITE_RESULT_JSON[:-1] + ', "elapsed": 0.0}',
    ),
    "VerifyReport": (
        lambda: _untimed_report(run_verify("serre", 2, 2)),
        ("modulus", "max_size", "seed", "results"),
        False,  # its results hold dicts
        "VerifyReport(modulus=2, max_size=2, seed=20240801, results=("
        + SUITE_RESULT_REPR
        + ", "
        + SUITE_RESULT_REPR.replace("cartan_action", "serre_relation")
        + "))",
        lambda r: json.dumps(r.json_dict()) + "\n" + str(r.passed),
        '{"modulus": 2, "max_size": 2, "seed": 20240801, "passed": true, "results": ['
        + SUITE_RESULT_JSON
        + ", "
        + SUITE_RESULT_JSON.replace("cartan_action", "serre_relation")
        + "]}\nTrue",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_record_contract(name):
    make, fields, hashable, expected_repr, outputs, expected_outputs = CASES[name]
    record, again = make(), make()
    rebuilt = type(record)(**{f: getattr(record, f) for f in fields})
    assert type(record).__name__ == name
    assert record == again == rebuilt
    assert repr(record) == expected_repr
    assert outputs(record) == expected_outputs
    values = tuple(getattr(record, f) for f in fields)
    if hashable:
        assert hash(record) == hash(again) == hash(rebuilt) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, getattr(record, f))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import sys; baseline = set(sys.modules); import fockspace.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - baseline)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
