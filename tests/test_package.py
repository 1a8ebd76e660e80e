"""The package's public surface: ``__all__`` lists exactly what ``__init__``
imports, and a star import of it works."""

import ast
from pathlib import Path

import sffuse


def test_all_is_exactly_the_imported_names() -> None:
    tree = ast.parse(Path(sffuse.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(sffuse.__all__) == sorted(imported)
    assert len(set(sffuse.__all__)) == len(sffuse.__all__)


def test_star_import_binds_every_exported_name() -> None:
    namespace: dict = {}
    exec("from sffuse import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(sffuse.__all__)
