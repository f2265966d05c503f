"""The package's public surface: `duss.__all__` lists exactly what
`duss/__init__.py` imports, and every listed name resolves."""

import ast
import os

import duss


def test_all_matches_imports_and_resolves():
    with open(os.path.join(os.path.dirname(duss.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(duss.__all__) == len(set(duss.__all__))
    assert set(duss.__all__) == imported
    for name in duss.__all__:
        assert getattr(duss, name) is not None, name
