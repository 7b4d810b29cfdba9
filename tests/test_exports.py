import ast
from pathlib import Path

import fockspace


def test_every_exported_name_resolves():
    assert len(set(fockspace.__all__)) == len(fockspace.__all__)
    missing = [name for name in fockspace.__all__ if not hasattr(fockspace, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from fockspace import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fockspace.__all__)


# Exported names that no module of the package reads, each with the reason it stays.
KEPT_WITHOUT_CALLER = {
    "apply_h": "spanned by perfbench/tracer.py; ROADMAP item 1c drops the probe first",
    "schur_expand": "spanned by perfbench/tracer.py; ROADMAP item 1c drops the probe first",
}


def _names_read(path: Path) -> set[str]:
    """The names a module loads, the attributes it reads and the names it imports.

    Walking the syntax tree skips docstrings and comments, where a name is
    mentioned but not used.
    """
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_exported_name_has_a_caller_or_a_stated_reason():
    package = Path(fockspace.__file__).parent
    read = set().union(*(
        _names_read(path) for path in package.glob("*.py") if path.name != "__init__.py"
    ))
    unread = sorted(name for name in fockspace.__all__ if name not in read)
    assert unread == sorted(KEPT_WITHOUT_CALLER)
