"""The package's public API: what ``lieaffine`` exports."""

import ast
import os
import subprocess
import sys
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


_NEW_MODULES = """
import sys
before = set(sys.modules)
import lieaffine.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_the_standard_library():
    # -S skips site, so no site-packages directory is on the path
    src = str(Path(lieaffine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-S", "-c", _NEW_MODULES], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = run.stdout.split()
    assert "lieaffine.cli" in loaded
    foreign = [name for name in loaded if name.partition(".")[0] != "lieaffine"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
