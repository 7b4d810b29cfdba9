"""Independent checks of every CLI response the benchmark sends.

The combinatorics here (partition lists, abacus cores, boxes and residues)
is the benchmark's own and shares no code with ``fockspace``.  The one
exception is ``hecke``: its oracle multiplies the same factors in the
opposite association order through the public ``multiply``.

``check_response`` looks at one response.  ``check_together`` compares
responses that must agree with each other: JSON and DOT crystals, JSON and
CSV operator matrices, e_i against the transpose of f_i, and the f_i
columns against the addable boxes.  Both return a reason string on failure.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import lru_cache, reduce
from typing import Optional

Parts = tuple[int, ...]


def flags(argv: list[str]) -> dict[str, str]:
    """The ``--name value`` pairs of a request."""
    return {argv[k]: argv[k + 1] for k in range(len(argv) - 1) if argv[k].startswith("--")}


def parse_parts(text: str) -> Parts:
    inner = text.strip()[1:-1]
    return tuple(int(x) for x in inner.split(",")) if inner else ()


def text_of(parts: Parts) -> str:
    return "[" + ",".join(str(x) for x in parts) + "]"


@lru_cache(maxsize=None)
def partitions(n: int, cap: Optional[int] = None) -> tuple[Parts, ...]:
    """All partitions of n with parts at most ``cap``, descending lex."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    )


def core(parts: Parts, e: int) -> Parts:
    """The e-core: push every abacus bead as far up its runner as it goes."""
    if e == 0 or not parts:
        return parts
    k = len(parts)
    beads = Counter((p + k - 1 - j) % e for j, p in enumerate(parts))
    betas = sorted((r + e * m for r, count in beads.items() for m in range(count)), reverse=True)
    return tuple(x for x in (b - (k - 1 - j) for j, b in enumerate(betas)) if x > 0)


def reduce_residue(content: int, e: int) -> int:
    return content % e if e else content


def residue_counts(parts: Parts, e: int) -> dict[int, int]:
    counts: Counter = Counter()
    for row, length in enumerate(parts, start=1):
        for col in range(1, length + 1):
            counts[reduce_residue(col - row, e)] += 1
    return dict(counts)


def added(parts: Parts) -> list[tuple[Parts, int]]:
    """Each partition one box larger, with the content of the added box."""
    out = []
    for r in range(len(parts) + 1):
        length = parts[r] if r < len(parts) else 0
        if r == 0 or parts[r - 1] > length:
            grown = parts[:r] + (length + 1,) + parts[r + 1:]
            out.append((grown, length - r))
    return out


def removed(parts: Parts) -> list[tuple[Parts, int]]:
    """Each partition one box smaller, with the content of the removed box."""
    out = []
    for r, length in enumerate(parts):
        if r == len(parts) - 1 or parts[r + 1] < length:
            small = parts[:r] + (length - 1,) + parts[r + 1:]
            out.append((tuple(x for x in small if x), length - 1 - r))
    return out


def one_box_residue(small: Parts, big: Parts, e: int) -> Optional[int]:
    """Residue of the box ``big`` has over ``small``; None if not one box."""
    for grown, content in added(small):
        if grown == big:
            return reduce_residue(content, e)
    return None


def n_value(parts: Parts, i: int, e: int) -> int:
    m = residue_counts(parts, e)

    def count(j: int) -> int:
        return m.get(reduce_residue(j, e), 0)

    return count(i - 1) + count(i + 1) - 2 * count(i) + (1 if reduce_residue(i, e) == 0 else 0)


# ---------------------------------------------------------------------------
# one response at a time


def _check_core(argv, out) -> Optional[str]:
    f = flags(argv)
    e, parts = int(f["--modulus"]), parse_parts(f["--partition"])
    data = json.loads(out)
    expected = core(parts, e)
    if data["core"] != text_of(expected):
        return f"core {data['core']} != abacus core {text_of(expected)}"
    weight = (sum(parts) - sum(expected)) // e if e else 0
    if data["p_weight"] != weight:
        return f"p_weight {data['p_weight']} != {weight}"
    return None


def _check_blocks(argv, out) -> Optional[str]:
    f = flags(argv)
    e, d = int(f["--modulus"]), int(f["--degree"])
    data = json.loads(out)
    if (data["modulus"], data["degree"]) != (e, d):
        return "modulus or degree echoed wrongly"
    groups = [[parse_parts(t) for t in block["members"]] for block in data["blocks"]]
    everything = [p for group in groups for p in group]
    if Counter(everything) != Counter(partitions(d)):
        return "block members are not exactly the partitions of the degree"
    got = {frozenset(group) for group in groups}
    by_core: dict = {}
    by_counts: dict = {}
    for p in partitions(d):
        by_core.setdefault(core(p, e), set()).add(p)
        by_counts.setdefault(tuple(sorted(residue_counts(p, e).items())), set()).add(p)
    if got != {frozenset(s) for s in by_core.values()}:
        return "blocks differ from the grouping by abacus core"
    if got != {frozenset(s) for s in by_counts.values()}:
        return "blocks differ from the grouping by residue counts"
    for block, group in zip(data["blocks"], groups):
        c = core(group[0], e)
        if block["core"] != text_of(c):
            return f"block core {block['core']} != {text_of(c)}"
        if block["weight"] != {str(r): m for r, m in sorted(residue_counts(group[0], e).items())}:
            return f"block weight wrong for core {block['core']}"
        if block["p_weight"] != ((d - sum(c)) // e if e else 0):
            return f"p_weight wrong for core {block['core']}"
    classes = data["derived_equivalence_classes"]
    if e == 0:
        return None if classes is None else "derived classes given for modulus 0"
    expected: dict = {}
    for block in data["blocks"]:
        expected.setdefault(block["p_weight"], set()).add(block["core"])
    got_classes = {c["p_weight"]: set(c["cores"]) for c in classes}
    if got_classes != expected or [c["p_weight"] for c in classes] != sorted(expected):
        return "derived equivalence classes do not group the cores by p-weight"
    return None


_DOT_NODE = re.compile(r'^  "(\[[\d,]*\])";$')
_DOT_EDGE = re.compile(r'^  "(\[[\d,]*\])" -> "(\[[\d,]*\])" \[label="(-?\d+)"\];$')


def crystal_edges(fmt: str, out: str) -> tuple[list[str], list[tuple[str, str, int]]]:
    """(node texts, edges) of a crystal response in either format."""
    if fmt == "json":
        data = json.loads(out)
        return (
            [n["partition"] for n in data["nodes"]],
            [(x["src"], x["dst"], x["residue"]) for x in data["edges"]],
        )
    lines = out.rstrip("\n").split("\n")
    if lines[0] != "digraph crystal {" or lines[-1] != "}":
        raise ValueError("DOT output is not one digraph")
    nodes, edges = [], []
    for line in lines[1:-1]:
        if m := _DOT_NODE.match(line):
            nodes.append(m.group(1))
        elif m := _DOT_EDGE.match(line):
            edges.append((m.group(1), m.group(2), int(m.group(3))))
        else:
            raise ValueError(f"unexpected DOT line {line!r}")
    return nodes, edges


def _check_crystal(argv, out) -> Optional[str]:
    f = flags(argv)
    e, d, fmt = int(f["--modulus"]), int(f["--max-size"]), f.get("--format", "json")
    nodes, edges = crystal_edges(fmt, out)
    expected_nodes = [p for k in range(d + 1) for p in partitions(k)]
    if sorted(nodes) != sorted(text_of(p) for p in expected_nodes):
        return f"{len(nodes)} nodes, expected the {len(expected_nodes)} partitions of size <= {d}"
    if fmt == "json":
        data = json.loads(out)
        for node in data["nodes"]:
            parts = parse_parts(node["partition"])
            if node["size"] != sum(parts):
                return f"size of {node['partition']} wrong"
            if node["weight"] != {str(r): m for r, m in sorted(residue_counts(parts, e).items())}:
                return f"weight of {node['partition']} wrong"
    seen = set()
    for src, dst, i in edges:
        if one_box_residue(parse_parts(src), parse_parts(dst), e) != i:
            return f"edge {src} -> {dst} does not add one box of residue {i}"
        if (src, i) in seen:
            return f"two edges of residue {i} leave {src}"
        seen.add((src, i))
    return None


def matrix_entries(fmt: str, out: str) -> list[tuple[int, int, int]]:
    if fmt == "json":
        return [tuple(x) for x in json.loads(out)["entries"]]
    lines = out.rstrip("\n").split("\n")
    if lines[0] != "row,col,coeff":
        raise ValueError("CSV header missing")
    return [tuple(int(x) for x in line.split(",")) for line in lines[1:]]


def _check_op_matrix(argv, out) -> Optional[str]:
    f = flags(argv)
    op, i, e, d = f["--op"], int(f["--residue"]), int(f["--modulus"]), int(f["--degree"])
    fmt = f.get("--format", "json")
    cols = partitions(d)
    rows = partitions({"e": d - 1, "f": d + 1, "h": d}[op])
    if fmt == "json":
        data = json.loads(out)
        if data["rows"] != [text_of(p) for p in rows] or data["cols"] != [text_of(p) for p in cols]:
            return "row or column labels are not the partitions in descending lex order"
    entries = matrix_entries(fmt, out)
    if entries != sorted(entries) or any(v == 0 for _, _, v in entries):
        return "entries not sorted or holding a zero"
    for r, c, v in entries:
        if not (0 <= r < len(rows) and 0 <= c < len(cols)):
            return f"entry ({r}, {c}) out of range"
        if op == "h":
            if r != c or v != n_value(cols[c], i, e):
                return f"h entry ({r}, {c}) = {v} is not n_{i} on the diagonal"
        elif v != 1:
            return f"{op} entry ({r}, {c}) = {v}, expected 1"
        elif op == "f" and one_box_residue(cols[c], rows[r], e) != reduce_residue(i, e):
            return f"f entry ({r}, {c}) does not add one {i}-box"
        elif op == "e" and one_box_residue(rows[r], cols[c], e) != reduce_residue(i, e):
            return f"e entry ({r}, {c}) does not remove one {i}-box"
    if op == "h":
        diagonal = {c for _, c, _ in entries}
        if any(n_value(p, i, e) and c not in diagonal for c, p in enumerate(cols)):
            return "h misses a nonzero diagonal entry"
    return None


def _check_character(argv, out) -> Optional[str]:
    f = flags(argv)
    parts, n = parse_parts(f["--partition"]), int(f["--n"])
    if argv[0] == "pieri":
        shapes = [p for p, _ in added(parts) if len(p) <= n]
    else:
        shapes = [p for p, _ in removed(parts)]
    expected = [text_of(p) for p in sorted(shapes, reverse=True)]
    got = json.loads(out)
    return None if got == expected else f"{argv[0]} gave {got}, expected {expected}"


def _check_verify(argv, out) -> Optional[str]:
    f = flags(argv)
    data = json.loads(out)
    echoed = (data["modulus"], data["max_size"])
    if echoed != (int(f["--modulus"]), int(f["--max-size"])) or ("--seed" in f and data["seed"] != int(f["--seed"])):
        return f"report echoes {echoed} and seed {data['seed']}"
    if not data["results"] or data["passed"] is not True:
        return "report is empty or did not pass"
    if not all(r["passed"] is True for r in data["results"]):
        return "a check failed while the report passed"
    return None


_FACTOR = re.compile(r"\(t(\d+)\+y(\d+)\)")


def _check_hecke(argv, out) -> Optional[str]:
    from fockspace.hecke import from_generator, multiply

    f = flags(argv)
    n = int(f["--rank"])
    factors = [
        from_generator("t", int(t), n) + from_generator("y", int(y), n)
        for t, y in _FACTOR.findall(f["--expr"])
    ]
    # the CLI parser associates to the left; multiply from the right instead
    expected = reduce(lambda acc, x: multiply(x, acc), reversed(factors[:-1]), factors[-1])
    terms = json.loads(out)
    keys = [(tuple(t["exponents"]), tuple(t["permutation"])) for t in terms]
    if keys != sorted(keys) or any(t["coeff"] == 0 for t in terms):
        return "terms not sorted or holding a zero coefficient"
    got = {key: t["coeff"] for key, t in zip(keys, terms)}
    return None if got == expected.terms else "normal form differs from the right-associated product"


_CHECKS = {
    "core": _check_core,
    "blocks": _check_blocks,
    "crystal": _check_crystal,
    "fock": _check_op_matrix,
    "pieri": _check_character,
    "branch": _check_character,
    "verify": _check_verify,
    "hecke": _check_hecke,
}


def check_response(argv: list[str], out: str) -> Optional[str]:
    """None when the response is right, else the reason it is wrong."""
    try:
        return _CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed response: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# responses that must agree with each other


def check_together(responses: list[tuple[list[str], str]]) -> dict[int, str]:
    """Reasons keyed by response index, for every response a cross-check fails."""
    failures: dict[int, str] = {}
    crystals: dict = {}
    matrices: dict = {}
    for k, (argv, out) in enumerate(responses):
        f = flags(argv)
        try:
            if argv[0] == "crystal":
                key = (f["--modulus"], f["--max-size"])
                crystals.setdefault(key, {})[f.get("--format", "json")] = (k, crystal_edges(f.get("--format", "json"), out)[1])
            elif argv[0] == "fock":
                key = (f["--op"], int(f["--residue"]), int(f["--modulus"]), int(f["--degree"]))
                matrices.setdefault(key, {})[f.get("--format", "json")] = (k, matrix_entries(f.get("--format", "json"), out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failures[k] = f"malformed response: {exc}"
    for formats in crystals.values():
        if len(formats) == 2 and formats["json"][1] != formats["dot"][1]:
            for k, _ in formats.values():
                failures[k] = "JSON and DOT crystals carry different edges"
    for formats in matrices.values():
        if len(formats) == 2 and formats["json"][1] != formats["csv"][1]:
            for k, _ in formats.values():
                failures[k] = "JSON and CSV matrices carry different entries"
    for (op, i, e, d), formats in matrices.items():
        if op != "f":
            continue
        transpose = matrices.get(("e", i, e, d + 1), {})
        for fmt, (k, entries) in formats.items():
            if fmt in transpose and sorted((c, r, v) for r, c, v in transpose[fmt][1]) != entries:
                failures[k] = failures[transpose[fmt][0]] = f"e_{i} is not the transpose of f_{i}"
    residues_by_degree: dict = {}
    for (op, i, e, d), formats in matrices.items():
        if op == "f" and "json" in formats:
            residues_by_degree.setdefault((e, d), []).append(formats["json"])
    for (e, d), found in residues_by_degree.items():
        if len(found) != (e if e else 0):
            continue
        per_column = Counter(c for _, entries in found for _, c, _ in entries)
        for c, p in enumerate(partitions(d)):
            if per_column[c] != len(added(p)):
                for k, _ in found:
                    failures[k] = f"f columns summed over residues miss addable boxes of {text_of(p)}"
                break
    return failures
