import ast
from pathlib import Path

import evenlat


def test_exports_are_the_imported_names():
    """__all__ has no duplicate, every name in it resolves, and it is
    exactly the set of names that __init__.py imports."""
    tree = ast.parse(Path(evenlat.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(evenlat.__all__)) == len(evenlat.__all__)
    assert all(hasattr(evenlat, name) for name in evenlat.__all__)
    assert set(evenlat.__all__) == imported
