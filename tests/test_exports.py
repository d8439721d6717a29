"""The package's public names: ``__all__`` and the imports of ``__init__`` agree.

A name deleted from a module but left in ``__all__`` fails here, not only
on ``from async_dca import *``; a public name imported but not listed is
caught as well.
"""
import ast
from pathlib import Path

import async_dca


def _imported_public_names() -> set:
    tree = ast.parse(Path(async_dca.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")}


def test_every_listed_name_resolves():
    assert [name for name in async_dca.__all__ if not hasattr(async_dca, name)] == []
    assert len(set(async_dca.__all__)) == len(async_dca.__all__)


def test_every_public_import_is_listed():
    assert _imported_public_names() - set(async_dca.__all__) == set()
