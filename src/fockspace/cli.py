"""Command-line surface: one JSON-printing subcommand per operation.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
errors (including malformed partition text, which is reported with the
offending token).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .blocks import blocks, derived_equivalence_classes
from .casimir import eigenvalue_table
from .crystal import crystal_graph
from .fock import op_matrix
from .hecke import parse_expression
from .characters import branch_r1, pieri_mult
from .partitions import Partition, core_and_weight
from .verify import DEFAULT_SEED, SUITES, run_verify


PROFILE_ROWS = 25


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockspace",
        description="Exact Fock-space combinatorics on partitions.",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=f"print the top {PROFILE_ROWS} cProfile rows of the request to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crystal = sub.add_parser("crystal", help="crystal graph up to a size bound")
    crystal.add_argument("--modulus", type=int, required=True)
    crystal.add_argument("--max-size", type=int, required=True)
    crystal.add_argument("--format", choices=("json", "dot"), default="json")
    crystal.set_defaults(run=_run_crystal)

    fock = sub.add_parser("fock", help="Fock space operators")
    fock_sub = fock.add_subparsers(dest="fock_command", required=True)
    opm = fock_sub.add_parser("op-matrix", help="matrix of e_i, f_i or h_i on a graded piece")
    opm.add_argument("--op", choices=("e", "f", "h"), required=True)
    opm.add_argument("--residue", type=int, required=True)
    opm.add_argument("--modulus", type=int, required=True)
    opm.add_argument("--degree", type=int, required=True)
    opm.add_argument("--format", choices=("json", "csv"), default="json")
    opm.set_defaults(run=_run_op_matrix)

    blocks_p = sub.add_parser("blocks", help="block decomposition of one degree layer")
    blocks_p.add_argument("--modulus", type=int, required=True)
    blocks_p.add_argument("--degree", type=int, required=True)
    blocks_p.add_argument("--format", choices=("json",), default="json")
    blocks_p.set_defaults(run=_run_blocks)

    core = sub.add_parser("core", help="e-core and p-weight of a partition")
    core.add_argument("--modulus", type=int, required=True)
    core.add_argument("--partition", type=str, required=True)
    core.set_defaults(run=_run_core)

    casimir = sub.add_parser("casimir", help="Casimir scalar and box eigenvalues")
    casimir.add_argument("--partition", type=str, required=True)
    casimir.add_argument("--n", type=int, required=True)
    casimir.add_argument("--modulus", type=int, default=0)
    casimir.set_defaults(run=_run_casimir)

    branch = sub.add_parser("branch", help="one-box branching via Schur expansion")
    branch.add_argument("--partition", type=str, required=True)
    branch.add_argument("--n", type=int, required=True)
    branch.set_defaults(run=_run_branch)

    pieri = sub.add_parser("pieri", help="multiply by the standard character and expand")
    pieri.add_argument("--partition", type=str, required=True)
    pieri.add_argument("--n", type=int, required=True)
    pieri.set_defaults(run=_run_pieri)

    hecke = sub.add_parser("hecke", help="degenerate affine Hecke algebra")
    hecke_sub = hecke.add_subparsers(dest="hecke_command", required=True)
    nf = hecke_sub.add_parser("normal-form", help="normal form of a generator expression")
    nf.add_argument("--rank", type=int, required=True)
    nf.add_argument("--expr", type=str, required=True)
    nf.set_defaults(run=_run_hecke_normal_form)

    verify = sub.add_parser("verify", help="run property suites")
    verify.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    verify.add_argument("--modulus", type=int, default=3)
    verify.add_argument("--max-size", type=int, default=6)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument(
        "--timings",
        action="store_true",
        help="include elapsed seconds per check (breaks byte-for-byte determinism)",
    )
    verify.set_defaults(run=_run_verify)
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _run_crystal(args: argparse.Namespace) -> int:
    graph = crystal_graph(args.modulus, args.max_size)
    if args.format == "dot":
        _emit(graph.dot())
    else:
        _emit(json.dumps(graph.json_dict()))
    return 0


def _run_op_matrix(args: argparse.Namespace) -> int:
    matrix = op_matrix(args.op, args.residue, args.modulus, args.degree)
    if args.format == "csv":
        _emit("\n".join(matrix.csv_lines()))
    else:
        _emit(json.dumps(matrix.json_dict()))
    return 0


def _run_blocks(args: argparse.Namespace) -> int:
    layer = blocks(args.degree, args.modulus)
    if args.modulus == 0:
        grouping = None
    else:
        grouping = [
            {
                "p_weight": cls[0].p_weight,
                "cores": [str(b.core) for b in cls],
            }
            for cls in derived_equivalence_classes(layer)
        ]
    _emit(
        json.dumps(
            {
                "modulus": args.modulus,
                "degree": args.degree,
                "blocks": [b.json_dict() for b in layer],
                "derived_equivalence_classes": grouping,
            }
        )
    )
    return 0


def _run_core(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    core, hooks_removed = core_and_weight(p, args.modulus)
    _emit(json.dumps({"core": str(core), "p_weight": hooks_removed}))
    return 0


def _run_casimir(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    _emit(json.dumps(eigenvalue_table(p, args.n, args.modulus)))
    return 0


def _run_branch(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    _emit(json.dumps([str(q) for q in branch_r1(p, args.n)]))
    return 0


def _run_pieri(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    _emit(json.dumps([str(q) for q in pieri_mult(p, args.n)]))
    return 0


def _run_hecke_normal_form(args: argparse.Namespace) -> int:
    element = parse_expression(args.expr, args.rank)
    _emit(json.dumps(element.json_list()))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.suite, args.modulus, args.max_size, args.seed)
    _emit(json.dumps(report.json_dict(include_timings=args.timings)))
    return 0 if report.passed else 1


def _dispatch(args: argparse.Namespace) -> int:
    try:
        return args.run(args)
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _profiled(args: argparse.Namespace) -> int:
    """Run the request under cProfile and print its top rows to stderr."""
    # imported here so that plain requests do not pay for loading the profiler
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    code = profiler.runcall(_dispatch, args)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(PROFILE_ROWS)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.profile:
        return _profiled(args)
    return _dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
