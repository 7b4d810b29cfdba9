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
