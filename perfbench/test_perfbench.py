"""Tests of the benchmark's own parts: sampler, oracles, tracer and metrics."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fockspace.cli import main as cli_main  # noqa: E402
from fockspace.partitions import partitions_of  # noqa: E402


def respond(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("n", range(11))
def test_sampler_maps_ranks_one_to_one_onto_partitions(n):
    drawn = [workloads.unrank_partition(n, r) for r in range(workloads.count_partitions(n, n))]
    assert drawn == [p.parts for p in partitions_of(n)]


def test_same_seed_gives_same_requests():
    for name in workloads.WORKLOADS:
        assert workloads.requests_for(name, 7) == workloads.requests_for(name, 7)
    assert workloads.requests_for("cores_blocks", 7) != workloads.requests_for("cores_blocks", 8)


def _edit_json(change):
    def edit(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)

    return edit


def _bump_first_csv_coeff(text):
    lines = text.rstrip("\n").split("\n")
    r, c, v = lines[1].split(",")
    lines[1] = f"{r},{c},{int(v) + 1}"
    return "\n".join(lines)


OP = ["fock", "op-matrix", "--modulus", "3", "--degree", "5"]
CORRUPTIONS = [
    (["core", "--modulus", "3", "--partition", "[5,3,3,1]"],
     _edit_json(lambda d: d.update(p_weight=d["p_weight"] + 1))),
    (["core", "--modulus", "2", "--partition", "[4,4,2]"],
     _edit_json(lambda d: d.update(core="[1]"))),
    (["blocks", "--modulus", "2", "--degree", "6"],
     _edit_json(lambda d: d["blocks"][0]["members"].append(d["blocks"][1]["members"].pop()))),
    (["crystal", "--modulus", "3", "--max-size", "5"],
     _edit_json(lambda d: d["edges"][0].update(residue=(d["edges"][0]["residue"] + 1) % 3))),
    (["crystal", "--modulus", "3", "--max-size", "5", "--format", "dot"],
     lambda text: text.replace('[label="0"]', '[label="1"]', 1)),
    (OP + ["--op", "f", "--residue", "1"],
     _edit_json(lambda d: d["entries"][0].__setitem__(2, 2))),
    (OP + ["--op", "e", "--residue", "0", "--format", "csv"], _bump_first_csv_coeff),
    (OP + ["--op", "h", "--residue", "2", "--format", "csv"], _bump_first_csv_coeff),
    (["pieri", "--partition", "[2,1]", "--n", "4"], _edit_json(lambda d: d.pop())),
    (["branch", "--partition", "[3,1]", "--n", "4"], _edit_json(lambda d: d.append(d[0]))),
    (["verify", "--suite", "casimir", "--modulus", "3", "--max-size", "4", "--seed", "5"],
     _edit_json(lambda d: d.update(passed=False))),
    (["hecke", "normal-form", "--rank", "3", "--expr", "(t1+y2)*(t2+y1)*(t1+y3)"],
     _edit_json(lambda d: d[0].update(coeff=d[0]["coeff"] + 1))),
]


@pytest.mark.parametrize("argv, corrupt", CORRUPTIONS, ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_oracle_accepts_the_response_and_rejects_a_corrupted_one(argv, corrupt):
    out = respond(argv)
    assert oracles.check_response(argv, out) is None
    bad = corrupt(out)
    assert bad != out
    assert oracles.check_response(argv, bad) is not None


def test_cross_checks_catch_responses_that_disagree():
    crystal = ["crystal", "--modulus", "2", "--max-size", "5"]
    e_matrix = ["fock", "op-matrix", "--op", "e", "--residue", "1", "--modulus", "3", "--degree", "6"]
    f_matrices = [
        ["fock", "op-matrix", "--op", "f", "--residue", str(i), "--modulus", "3", "--degree", "5"]
        for i in range(3)
    ]
    requests = [crystal, crystal + ["--format", "dot"], e_matrix] + f_matrices
    responses = [(argv, respond(argv)) for argv in requests]
    assert oracles.check_together(responses) == {}

    lines = responses[1][1].split("\n")
    edge = next(k for k, line in enumerate(lines) if "->" in line)
    dropped = "\n".join(lines[:edge] + lines[edge + 1:])
    assert oracles.check_response(requests[1], dropped) is None
    assert set(oracles.check_together([responses[0], (requests[1], dropped)])) == {0, 1}

    data = json.loads(responses[2][1])
    data["entries"].pop()
    assert 0 in oracles.check_together([(e_matrix, json.dumps(data))] + responses[3:])

    data = json.loads(responses[3][1])
    data["entries"].pop()
    fewer = [(f_matrices[0], json.dumps(data))] + responses[4:]
    assert oracles.check_together(fewer)


def test_tail_leaves_ten_requests_beyond_it():
    value, pct = run.tail([float(k) for k in range(40)])
    assert value == 29.0 and pct == 75.0


def _traced(requests):
    phases = [{"traced": False, "seconds": 0}, {"traced": True, "seconds": 0}]
    samples, failures, _ = run.collect(run.run_worker(requests, phases, None), requests, 2)
    assert failures == []
    return samples, run.per_layer(*samples)


def test_traced_self_times_fit_inside_the_wall_time():
    requests = [
        ["core", "--modulus", "3", "--partition", "[6,4,4,2,1]"],
        ["crystal", "--modulus", "2", "--max-size", "6"],
        ["pieri", "--partition", "[2,1]", "--n", "4"],
    ]
    samples, metrics = _traced(requests)
    self_total = sum(metrics[f"{m}.self_s"][0] for m in tracer.MODULES)
    assert 0 < self_total <= samples[1].wall()
    assert metrics["cli.main.calls"][0] == len(requests)
    assert metrics["partitions.removable_rim_hooks.calls"][0] > 0
    assert metrics["trace.overhead"][0] > 0


def test_rim_hooks_are_not_called_when_exporting_graphs():
    _, metrics = _traced([["crystal", "--modulus", "3", "--max-size", "6", "--format", "dot"]])
    assert metrics["partitions.removable_rim_hooks.calls"][0] == 0
    assert metrics["crystal.f_tilde.calls"][0] > 0


def test_reported_metrics_are_the_declared_ones():
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    samples, metrics = _traced([["core", "--modulus", "2", "--partition", "[3,1]"]])
    end_to_end, _ = run.end_to_end(samples[0], 1.0, 1.0)
    for declared, measured in (("end_to_end", end_to_end), ("per_layer", metrics)):
        assert {m["name"]: m["unit"] for m in spec[declared]} == {k: u for k, (_, u) in measured.items()}
    assert set(spec["paths"]) == {HERE.name}
    assert set(w["name"] for w in spec["workloads"]) == set(workloads.WORKLOADS)
