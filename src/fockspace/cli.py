"""Command-line surface: one JSON-printing subcommand per operation.

``COMMANDS`` describes every subcommand once.  A well-formed request is read
by ``_read_request`` from ``READERS``, a table derived from COMMANDS once, at
import; anything else (help, ``--profile``, abbreviated flags, mistakes)
goes to the argparse tree that ``_build_parser`` derives from the same
table, which also prints every help text and usage error.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
errors (including malformed partition text, which is reported with the
offending token), 3 on an internal error of the program, a failed
self-check (``ArithmeticError``) included, and 141 (128 + SIGPIPE, as a
shell reports a writer killed by SIGPIPE) when the reader of the output
closed it early, with nothing written to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, NamedTuple, Sequence

from .blocks import blocks, derived_equivalence_classes
from .casimir import eigenvalue_table
from .crystal import crystal_graph
from .fock import op_matrix
from .hecke import parse_expression
from .characters import branch_r1, pieri_mult
from .partitions import Partition, core_and_weight
from .verify import DEFAULT_SEED, SUITES, run_verify


PROFILE_ROWS = 25

# Work limits: the largest --max-size of crystal and verify, --degree of
# fock op-matrix and blocks, --modulus of verify, partition size of pieri
# and branch, number of parts of the casimir partition and --rank of hecke
# normal-form that a request may ask for.
# Each keeps the slowest request it admits to about two seconds; README's
# work-limit paragraph gives the measured times.  A crystal graph, an
# operator matrix and a verify sweep cover every partition up to the size,
# and blocks sorts every partition of the degree (each is its own block
# when the modulus exceeds the degree).  The work of pieri and branch grows
# with the partition, not with --n.  The relation checks of verify visit
# every pair of residues, so its work grows with the square of --modulus
# whatever --max-size is.  casimir takes the eigenvalue of every corner, and
# each costs O(parts), so its work grows with the square of the number of
# parts, most for a staircase.  Every Hecke term carries an exponent tuple
# and a permutation of length --rank, so each term costs O(rank).
MAX_CRYSTAL_SIZE = 30
MAX_OP_DEGREE = 40
MAX_CHARACTER_SIZE = 22
MAX_VERIFY_SIZE = 12
MAX_BLOCKS_DEGREE = 38
MAX_VERIFY_MODULUS = 20
MAX_CASIMIR_PARTS = 800
MAX_HECKE_RANK = 10_000


class Option(NamedTuple):
    """One long flag; ``type`` converts its value as argparse's ``type=`` does.

    A flag whose ``type`` is None takes no value: it is a ``store_true`` switch.
    """

    flag: str
    type: Callable[[str], Any] | None
    choices: Sequence[Any] | None = None
    default: Any = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    """One subcommand path: its help line, its runner and its options.

    The root ``()`` and the groups ``fock`` and ``hecke`` have no runner.
    """

    help: str
    run: Callable[[argparse.Namespace], int] | None = None
    options: tuple[Option, ...] = ()


def _emit(text: str) -> None:
    sys.stdout.write(text)  # no text + "\n": that copies the whole output
    sys.stdout.write("\n")


def _check_limit(flag: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{flag} must be at most {bound}, got {value}")


def _run_crystal(args: argparse.Namespace) -> int:
    _check_limit("--max-size", args.max_size, MAX_CRYSTAL_SIZE)
    graph = crystal_graph(args.modulus, args.max_size)
    if args.format == "dot":
        _emit(graph.dot())
    else:
        _emit(graph.json_text())
    return 0


def _run_op_matrix(args: argparse.Namespace) -> int:
    _check_limit("--degree", args.degree, MAX_OP_DEGREE)
    matrix = op_matrix(args.op, args.residue, args.modulus, args.degree)
    if args.format == "csv":
        _emit("\n".join(matrix.csv_lines()))
    else:
        _emit(json.dumps(matrix.json_dict()))
    return 0


def _run_blocks(args: argparse.Namespace) -> int:
    _check_limit("--degree", args.degree, MAX_BLOCKS_DEGREE)
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


# core, branch, pieri and hecke normal-form write their JSON text directly,
# laid out as json.dumps lays it out: a partition label holds only brackets,
# digits and commas, so no string needs escaping.


def _run_core(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    core, hooks_removed = core_and_weight(p, args.modulus)
    _emit(f'{{"core": "{core}", "p_weight": {hooks_removed}}}')
    return 0


def _run_casimir(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    _check_limit("the number of parts of --partition", len(p), MAX_CASIMIR_PARTS)
    _emit(json.dumps(eigenvalue_table(p, args.n, args.modulus)))
    return 0


def _label_list(partitions: Sequence[Partition]) -> str:
    return "[" + ", ".join(f'"{q}"' for q in partitions) + "]"


def _run_branch(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    _check_limit("the size of --partition", p.size, MAX_CHARACTER_SIZE)
    _emit(_label_list(branch_r1(p, args.n)))
    return 0


def _run_pieri(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    _check_limit("the size of --partition", p.size, MAX_CHARACTER_SIZE)
    _emit(_label_list(pieri_mult(p, args.n)))
    return 0


def _run_hecke_normal_form(args: argparse.Namespace) -> int:
    _check_limit("--rank", args.rank, MAX_HECKE_RANK)
    _emit(parse_expression(args.expr, args.rank).json_text())
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    _check_limit("--max-size", args.max_size, MAX_VERIFY_SIZE)
    _check_limit("--modulus", args.modulus, MAX_VERIFY_MODULUS)
    report = run_verify(args.suite, args.modulus, args.max_size, args.seed)
    _emit(json.dumps(report.json_dict(include_timings=args.timings)))
    return 0 if report.passed else 1


COMMANDS: dict[tuple[str, ...], Command] = {
    (): Command(
        "Exact Fock-space combinatorics on partitions.",
        options=(
            Option(
                "--profile", None, default=False,
                help=f"print the top {PROFILE_ROWS} cProfile rows of the request to stderr",
            ),
        ),
    ),
    ("crystal",): Command("crystal graph up to a size bound", _run_crystal, (
        Option("--modulus", int, required=True),
        Option("--max-size", int, required=True),
        Option("--format", str, choices=("json", "dot"), default="json"),
    )),
    ("fock",): Command("Fock space operators"),
    ("fock", "op-matrix"): Command("matrix of e_i, f_i or h_i on a graded piece", _run_op_matrix, (
        Option("--op", str, choices=("e", "f", "h"), required=True),
        Option("--residue", int, required=True),
        Option("--modulus", int, required=True),
        Option("--degree", int, required=True),
        Option("--format", str, choices=("json", "csv"), default="json"),
    )),
    ("blocks",): Command("block decomposition of one degree layer", _run_blocks, (
        Option("--modulus", int, required=True),
        Option("--degree", int, required=True),
        Option("--format", str, choices=("json",), default="json"),
    )),
    ("core",): Command("e-core and p-weight of a partition", _run_core, (
        Option("--modulus", int, required=True),
        Option("--partition", str, required=True),
    )),
    ("casimir",): Command("Casimir scalar and box eigenvalues", _run_casimir, (
        Option("--partition", str, required=True),
        Option("--n", int, required=True),
        Option("--modulus", int, default=0),
    )),
    ("branch",): Command("one-box branching via Schur expansion", _run_branch, (
        Option("--partition", str, required=True),
        Option("--n", int, required=True),
    )),
    ("pieri",): Command("multiply by the standard character and expand", _run_pieri, (
        Option("--partition", str, required=True),
        Option("--n", int, required=True),
    )),
    ("hecke",): Command("degenerate affine Hecke algebra"),
    ("hecke", "normal-form"): Command(
        "normal form of a generator expression", _run_hecke_normal_form, (
            Option("--rank", int, required=True),
            Option("--expr", str, required=True),
        ),
    ),
    ("verify",): Command("run property suites", _run_verify, (
        Option("--suite", str, choices=(*SUITES, "all"), default="all"),
        Option("--modulus", int, default=3),
        Option("--max-size", int, default=6),
        Option("--seed", int, default=DEFAULT_SEED),
        Option(
            "--timings", None, default=False,
            help="include elapsed seconds per check (breaks byte-for-byte determinism)",
        ),
    )),
}
"""Every subcommand path, parents before children, in the order help lists them."""


def _subcommand_dest(parent: tuple[str, ...]) -> str:
    """Where the subcommand chosen under ``parent`` is stored: command, fock_command, ..."""
    return "_".join((*parent, "command"))


def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS: help, usage errors and every other request."""
    parsers = {(): argparse.ArgumentParser(prog="fockspace", description=COMMANDS[()].help)}
    subparsers = {}
    for path, command in COMMANDS.items():
        if path:
            parent = path[:-1]
            if parent not in subparsers:
                subparsers[parent] = parsers[parent].add_subparsers(
                    dest=_subcommand_dest(parent), required=True
                )
            parsers[path] = subparsers[parent].add_parser(path[-1], help=command.help)
        parser = parsers[path]
        for option in command.options:
            if option.type is None:
                parser.add_argument(
                    option.flag, action="store_true", default=option.default, help=option.help
                )
            else:
                parser.add_argument(
                    option.flag, type=option.type, choices=option.choices,
                    default=option.default, required=option.required, help=option.help,
                )
        if command.run is not None:
            parser.set_defaults(run=command.run)
    return parsers[()]


def _readers() -> dict[tuple[str, ...], tuple[dict[str, Any], dict[str, tuple], frozenset[str]]]:
    """What ``_read_request`` needs of each runnable COMMANDS path.

    Per path: the namespace argparse starts from (every option default of
    the path and its ancestors, the ``*_command`` dests and ``run``), each
    flag's ``(dest, type, choices)``, and the set of required flags.
    """
    readers = {}
    for path, command in COMMANDS.items():
        if command.run is None:
            continue
        defaults: dict[str, Any] = {"run": command.run}
        for depth in range(len(path) + 1):
            for option in COMMANDS[path[:depth]].options:
                defaults[option.dest] = option.default
            if depth < len(path):
                defaults[_subcommand_dest(path[:depth])] = path[depth]
        readers[path] = (
            defaults,
            {option.flag: (option.dest, option.type, option.choices) for option in command.options},
            frozenset(option.flag for option in command.options if option.required),
        )
    return readers


READERS = _readers()
"""Built once, at import, so that reading a request touches no Option."""


def _read_request(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace argparse returns for ``argv`` if it is a plain request, else None.

    A plain request is a runnable COMMANDS path followed by exact long flags
    of that entry, each at most once.  A flag that takes a value is followed
    by a token that does not start with "-", converts with the option's type
    and lies in its choices.  Every required flag is present.  On anything
    else the reader gives up and leaves the request to argparse.
    """
    path = tuple(argv[:1])
    if path not in READERS:
        path = tuple(argv[:2])  # a group and its subcommand: fock op-matrix, hecke normal-form
        if path not in READERS:
            return None
    defaults, options, required = READERS[path]
    values = defaults.copy()
    seen = set()
    tokens = iter(argv[len(path):])
    for flag in tokens:
        entry = options.get(flag)
        if entry is None or flag in seen:  # a foreign or a repeated flag
            return None
        seen.add(flag)
        dest, convert, choices = entry
        if convert is None:
            values[dest] = True
            continue
        text = next(tokens, "-")  # a missing value reads like a flag
        if text.startswith("-"):
            return None
        try:
            value = convert(text)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _dispatch(args: argparse.Namespace) -> int:
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early: send the rest, and the exit flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a fault of the program, not of the request
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


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
    if argv is None:
        argv = sys.argv[1:]
    args = _read_request(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    if args.profile:
        return _profiled(args)
    return _dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
