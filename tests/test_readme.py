"""The README's examples run: the "Library use" block and every command example."""

import ast
import shlex
from pathlib import Path

import pytest

from fockspace import Block, Box, FockVector, Partition
from fockspace.cli import main
from fockspace.verify import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _verify_suite_paragraphs() -> dict[str, str]:
    """Map each suite to its "The `suite` suite runs ..." paragraph."""
    section = README.read_text().split("### Verify suites", 1)[1].split("\n## ", 1)[0]
    paragraphs = [" ".join(block.split()) for block in section.split("\n\n")]
    return {
        paragraph.split("`")[1]: paragraph
        for paragraph in paragraphs
        if paragraph.startswith("The `") and " suite runs" in paragraph
    }


def _command_examples() -> list:
    """One param per ``$ fockspace`` line: its arguments and the output lines shown under it.

    A shown output ends at the next blank line or code fence.
    """
    lines = README.read_text().splitlines()
    examples = []
    for k, line in enumerate(lines):
        if line.startswith("$ fockspace "):
            end = next(
                j for j in range(k + 1, len(lines)) if not lines[j] or lines[j].startswith("```")
            )
            command = line.removeprefix("$ fockspace ").split(" --")[0]
            examples.append(pytest.param(shlex.split(line)[2:], lines[k + 1:end], id=command))
    return examples


def _run_block(block: str) -> dict[str, object]:
    """Run the block statement by statement; map each bare expression to its value."""
    namespace: dict[str, object] = {}
    values: dict[str, object] = {}
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return values


def test_library_use_block_states_true_values():
    values = _run_block(_library_use_block())
    image = values["apply_f(FockVector.basis(lam), 2, 3)"]
    assert image == FockVector.basis(Partition((3, 1)))
    assert repr(image) == "FockVector(1*v[3,1])"
    assert values["i_corners(lam, 2, 3)"] == [("-", Box(2, 1)), ("+", Box(1, 3))]
    assert values["residue_counts(lam, 3)"] == {0: 1, 1: 1, 2: 1}
    assert values["p_core(Partition((4, 4, 2, 1)), 3)"] == Partition((1, 1))
    assert values["core_and_weight(Partition((4, 4, 2, 1)), 3)"] == (Partition((1, 1)), 3)
    assert values["schur(lam, 2).terms"] == {(2, 1): 1, (1, 2): 1}
    layer = values["[b.json_dict() for b in layer]"]
    assert sum(len(b["members"]) for b in layer) == 11  # the partitions of 6
    classes = values["derived_equivalence_classes(layer)"]
    assert all(isinstance(b, Block) for cls in classes for b in cls)
    assert all(len({b.p_weight for b in cls}) == 1 for cls in classes)
    assert sorted(b.p_weight for cls in classes for b in cls) == sorted(b["p_weight"] for b in layer)
    assert values["crystal_graph(2, 4).dot()"].startswith("digraph crystal {")


def test_verify_suites_section_lists_every_check():
    paragraphs = _verify_suite_paragraphs()
    missing = [
        (check.suite, check.name)
        for check in CHECKS
        if f"`{check.name}`" not in paragraphs.get(check.suite, "")
    ]
    assert not missing, missing


@pytest.mark.parametrize("argv, shown", _command_examples())
def test_each_command_example_prints_what_the_readme_shows(capsys, argv, shown):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    stripped = [line.strip() for line in shown]
    if "..." in stripped:
        # a line that is only "..." stands for whole lines of the output
        k = stripped.index("...")
        above, below = shown[:k], shown[k + 1:]
        printed = out.splitlines()
        assert printed[:len(above)] == above
        assert printed[len(printed) - len(below):] == below
        return
    # the README wraps a long output line before a space; the output is one line
    text = "".join(shown)
    if "..." in text:
        # "..." inside a line stands for text
        assert out.startswith(text.split("...")[0])
        assert out.endswith(text.rsplit("...", 1)[1] + "\n")
    else:
        assert out == text + "\n"
