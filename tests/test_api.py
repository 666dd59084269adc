"""The package's public API: what ``lieaffine`` exports."""

import ast
from pathlib import Path

import lieaffine


def test_all_lists_every_import_of_the_package_once():
    tree = ast.parse(Path(lieaffine.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(lieaffine.__all__)) == len(lieaffine.__all__)
    assert sorted(lieaffine.__all__) == sorted(imported)
    for name in lieaffine.__all__:
        assert hasattr(lieaffine, name), name
