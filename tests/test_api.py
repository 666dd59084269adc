"""The package's public API: what ``lieaffine`` exports."""

import ast
import importlib.util
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lieaffine
from lieaffine import cli


def test_all_lists_every_import_of_the_package_once():
    tree = ast.parse(Path(lieaffine.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(lieaffine.__all__)) == len(lieaffine.__all__)
    assert sorted(lieaffine.__all__) == sorted(imported)
    for name in lieaffine.__all__:
        assert hasattr(lieaffine, name), name


def test_dense_oracles_import_only_containers():
    # tests/dense.py is the oracle of the code under test, so the only
    # package names it may import are the Matrix and Subspace containers
    tree = ast.parse((Path(__file__).parent / "dense.py").read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            taken |= {(node.module or "", alias.name) for alias in node.names}
    package = {(module, name) for module, name in taken
               if module.partition(".")[0] == "lieaffine"}
    assert package <= {(module, name) for module in ("lieaffine", "lieaffine.linalg")
                       for name in ("Matrix", "Subspace")}


def _owners(method):
    """(module, class) of every definition of ``method`` in the package's modules."""
    package = Path(lieaffine.__file__).parent
    owners = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        owners += [(path.stem, getattr(parents[node], "name", None)) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == method]
    return owners


def test_only_the_frozen_base_defines_setattr():
    # a value type takes its immutability from linalg._Frozen, never its own copy
    assert _owners("__setattr__") == [("linalg", "_Frozen")]


@pytest.mark.parametrize("method", ["__eq__", "__hash__"])
def test_only_the_frozen_base_defines_equality_and_hash(method):
    # a value type names its identity fields in ``_identity``, and
    # linalg._Frozen compares and hashes every type over them
    assert _owners(method) == [("linalg", "_Frozen")]


def test_each_value_type_is_built_bare_only_by_its_own_module():
    # an object made with X.__new__(X) skips X's checks, so only X's module
    # builds one, through its adopter; every other module calls that adopter
    package = Path(lieaffine.__file__).parent
    calls, foreign = 0, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {"cls"} | {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__"):
                calls += 1
                named = ast.unparse(node.func.value)
                if named not in own or [ast.unparse(arg) for arg in node.args] != [named]:
                    foreign.append((path.stem, node.lineno, ast.unparse(node)))
    assert calls >= 4 and foreign == []


_PRIVATE_VIEWS = {"_ad_columns", "_partners", "_tail_filtered",
                  "_jacobi_report", "_derived_subalgebra", "_lower_central_series"}


def test_algebra_views_are_read_one_way_outside_liealg():
    # the kept views of a LieAlgebra are read through its public attributes
    # and liealg's functions, never under the private names that keep them
    package = Path(lieaffine.__file__).parent
    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "liealg":
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert defined.isdisjoint({"ad_columns", "partners", "tail_filtered"})
            continue
        reads += [(path.stem, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in _PRIVATE_VIEWS]
    assert reads == []


def test_no_module_reads_a_second_subspace_form():
    # a Subspace holds one form, integer rows over ``den``, a Matrix one
    # too, integer columns over ``den``, and so do a LieAlgebra's bracket
    # table and an AffineStructure's products: no module of the package,
    # its tests, its tools or its benchmark reads the deleted
    # ``integer_rows``, ``integer_columns``, ``integer_structure`` or
    # ``integer_ad_columns``
    tests = Path(__file__).parent
    paths = [*Path(lieaffine.__file__).parent.glob("*.py"), *tests.glob("*.py"),
             *(tests.parent / "perfbench").glob("*.py"), *(tests.parent / "tools").glob("*.py")]
    deleted = ("integer_rows", "integer_columns", "integer_structure", "integer_ad_columns")
    reads = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [(path.stem, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in deleted]
    assert len(paths) > 20 and reads == []


def _package_definitions(names):
    """The (module, name) of every function, class or assigned name of the package in ``names``."""
    package = Path(lieaffine.__file__).parent
    defined = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.stem, node.name) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names]
        defined += [(path.stem, node.id) for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id in names]
    return defined


def test_no_module_defines_a_deleted_shape_or_series_helper():
    # a map's shape is read off Matrix.monomial and Matrix.diagonal_weights,
    # [g, g] off its own kept view, and a diagonal map's derivation residual
    # is summed inside is_derivation: none of the helpers they replaced returns
    assert _package_definitions({"_Drawn", "_monomial_rows", "_diagonal_weights",
                                 "_diagonal_violations"}) == []


def test_only_linalg_turns_residual_sums_into_fractions():
    # every check hands its integer sums to linalg._violations, the one
    # residual reporter, so no other module references dense_vector or unscaled
    package = Path(lieaffine.__file__).parent
    refs = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "linalg":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs += [(path.stem, node.lineno) for node in ast.walk(tree)
                 if {getattr(node, field, None) for field in ("id", "attr", "name")}
                 & {"dense_vector", "unscaled"}]
    assert refs == []


def test_every_matrix_is_square_with_one_dim():
    # a Matrix is an n x n map with one size, ``dim``, checked where it is
    # built: no module of the package or its tests reads a second size or
    # asks whether a map is square, and the witness-size helper is gone.
    # perfbench/ is left out: its tracer still reads the old fields
    tests = Path(__file__).parent
    paths = [*Path(lieaffine.__file__).parent.glob("*.py"), *tests.glob("*.py")]
    reads = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [(path.stem, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("cols", "is_square")]
    assert len(paths) > 15 and reads == []
    assert _package_definitions({"_witness_dim"}) == []


def test_each_witness_type_and_the_algebra_expose_dim():
    # reverify_certificate compares ``dim`` with the algebra's for every witness
    cases = [(lieaffine.Matrix.diagonal([1, 2, 3]), 3),
             (lieaffine.TwoForm.from_entries(4, {(0, 1): 1, (2, 3): 1}), 4),
             (lieaffine.AffineStructure(5, {}), 5), (lieaffine.make_ln(6), 6)]
    for value, dim in cases:
        assert "dim" in type(value).__slots__ and value.dim == dim


_CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines(directory):
    out = subprocess.run([sys.executable, str(_CODE_LINES), str(directory)], check=True,
                         capture_output=True, text=True).stdout
    return {name: int(count) for count, name in map(str.split, out.splitlines())}


def test_code_line_count_totals_its_modules():
    counts = _code_lines(Path(lieaffine.__file__).parent)
    total = counts.pop("total")
    assert total == sum(counts.values()) > 0
    assert {"linalg", "cli", "affine"} <= set(counts)


def test_code_line_count_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "prose.py").write_text(
        '"""A module docstring,\n\nover three lines."""\n\n# a comment\n\n    # another\n')
    (tmp_path / "small.py").write_text(
        'def f():\n    """A docstring."""\n    # a comment\n\n    return ("two",  # c\n'
        '            "lines")\n')
    assert _code_lines(tmp_path) == {"prose": 0, "small": 3, "total": 3}


def test_no_tool_imports_the_tests():
    # one copy of a tool runs against any tree's src, so no tool imports a
    # test module (dense.py reads the package's internal forms) or puts
    # tests/ on sys.path
    tests = Path(__file__).parent
    modules = {"tests", *(path.stem for path in tests.glob("*.py"))}
    reaches = []
    for path in sorted((tests.parent / "tools").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            on_path = (isinstance(node, (ast.Expr, ast.Assign, ast.AugAssign))
                       and "sys.path" in ast.unparse(node)
                       and any(getattr(n, "value", None) == "tests" for n in ast.walk(node)))
            if on_path or any(name.partition(".")[0] in modules for name in names):
                reaches.append((path.name, node.lineno))
    assert reaches == []


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_sweep_is_deterministic_on_a_prefix():
    # the first 300 calls of the sweep (catalog list, Ln 3 to Ln 16, Qn 6
    # and most of Qn 8) and the re-checks of the certificates and verdicts
    # they write, each certificate's tampered copy included, pinned: a
    # change to the output bytes of any of them fails here, and the pin is
    # re-recorded on purpose, from ``sweep(300)``
    count, codes, digest = _tool("digest_sweep").sweep(300)
    assert (count, codes) == (523, {0: 443, 1: 79, 2: 1})
    assert digest == "9e1917dc66b2900578743a12c78c65f825e366ca377ade081ef58e4d5470c9b6"


def test_no_module_defines_a_deleted_converter():
    # the kernel takes integer rows and the weights stay integers until a
    # witness is built: no converter from Fractions and back returns
    assert _package_definitions({"_integer_row", "_integer_form", "_matching_class"}) == []


def test_no_module_defines_a_second_der_g_builder():
    # Der(g) has one builder, derivations._generator_system, which takes the
    # whole basis as its generators where e_1 and e_2 do not decide; the
    # n^2 builder it replaced is gone, and so is linalg.vector, unread
    assert _package_definitions({"_derivation_equations", "vector"}) == []


def _package_trees():
    """(module name, parsed tree) of every module of the package."""
    package = Path(lieaffine.__file__).parent
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]


def test_one_rational_grammar_is_compiled_in_linalg():
    # rational strings are read by linalg._read_rational alone: rat, the
    # documents and the options share its one pattern, and serialize, which
    # held the documents' copy, imports no re
    patterns = [(name, node.args[0].value) for name, tree in _package_trees()
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and ast.unparse(node.func) == "re.compile"
                and isinstance(node.args[0], ast.Constant) and "\\d" in node.args[0].value]
    assert patterns == [("linalg", r"[+-]?\d+(?:/\d+)?")]
    serialize = dict(_package_trees())["serialize"]
    imported = {getattr(node, "module", None) or alias.name for node in ast.walk(serialize)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "json" in imported and "re" not in imported


def test_one_helper_refuses_a_string_read_as_a_sequence():
    # linalg._sequence holds the check; each entry point that reads a
    # sequence calls it instead of spelling a check of its own
    spelled, callers = [], set()
    for name, tree in _package_trees():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Constant) and "not a sequence" in str(node.value):
                    spelled.append((name, func.name))
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_sequence":
                    callers.add((name, func.name))
    assert spelled == [("linalg", "_sequence")]
    assert callers == {("linalg", "__init__"), ("linalg", "diagonal"),
                       ("catalog", "_read_lambdas"), ("liealg", "__init__")}


def test_check_budget_holds_the_only_budget_rule():
    # derivations.check_budget is the one rule of a seed and a trials count:
    # every "trials must ..." message and every integer check of a value
    # named "seed" or "trials" is spelled there, and the searches and the
    # document readers call it instead of a copy of their own
    spelled, callers = set(), set()
    for name, tree in _package_trees():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            body = func.body[1:] if ast.get_docstring(func) else func.body
            for node in (inner for stmt in body for inner in ast.walk(stmt)):
                if isinstance(node, ast.Constant) and "trials must" in str(node.value):
                    spelled.add((name, func.name))
                if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                        "_integer", "_require_int") and any(
                        isinstance(arg, ast.Constant) and arg.value in ("seed", "trials")
                        for arg in node.args):
                    spelled.add((name, func.name))
                if isinstance(node, ast.Name) and node.id == "check_budget":
                    callers.add((name, func.name))
    assert spelled == {("derivations", "check_budget")}
    assert callers == {("derivations", "find_regular_derivation"),
                       ("derivations", "find_derived_regular_derivation"),
                       ("derivations", "char_nilpotent_verdict"),
                       ("affine", "find_symplectic"), ("serialize", "_shared_fields")}


def test_no_module_keeps_a_second_check_table():
    # each strategy's record in affine.STRATEGIES re-checks its own witness:
    # the table from check name to witness and its wrapper type are gone
    assert _package_definitions({"_CHECKS", "_CheckedMap"}) == []


def test_check_names_are_spelled_only_in_the_strategy_records():
    # reverify_certificate reads every check name off STRATEGIES, so no
    # module spells one anywhere else (``__all__`` in __init__ lists the
    # functions is_derivation and nondegenerate, not the checks)
    checks = {name for entry in lieaffine.affine.STRATEGIES.values() for name in entry.checks}
    package = Path(lieaffine.__file__).parent
    spelled = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = {id(node) for top in tree.body if isinstance(top, ast.Assign)
                 and any(getattr(t, "id", None) == "STRATEGIES" for t in top.targets)
                 for node in ast.walk(top)}
        spelled += [(path.stem, node.lineno, node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in checks
                    and id(node) not in table]
    assert len(checks) == 7 and spelled == []


# the payloads go to stdout, the new modules to stderr
_NEW_MODULES = """
import sys
before = set(sys.modules)
import lieaffine.cli
codes = [lieaffine.cli.main(argv) for argv in %r]
print("\\n".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(max(codes, default=0))
"""


def _modules_loaded_by_cli_import(*flags, argvs=(), cwd=None):
    """The modules a fresh interpreter loads importing lieaffine.cli and running each argv (exit 0)."""
    src = str(Path(lieaffine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = _NEW_MODULES % ([list(argv) for argv in argvs],)
    run = subprocess.run([sys.executable, *flags, "-c", script], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = run.stderr.split()
    assert "lieaffine.cli" in loaded
    return loaded


def test_cli_imports_only_the_standard_library():
    # -S skips site, so no site-packages directory is on the path
    loaded = _modules_loaded_by_cli_import("-S")
    foreign = [name for name in loaded if name.partition(".")[0] != "lieaffine"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for the modules the package loads: dataclasses
    # alone pulls in inspect, ast, dis and tokenize
    loaded = _modules_loaded_by_cli_import()
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"}.isdisjoint(loaded)


def test_cli_import_loads_no_hashlib():
    # algebra_hash takes CPython's builtin SHA-256, so importing the command
    # line never loads OpenSSL (hashlib and _hashlib, about 3.6 MB)
    loaded = _modules_loaded_by_cli_import()
    assert {"hashlib", "_hashlib"}.isdisjoint(loaded)


def test_certifying_and_reverifying_load_no_hashlib(tmp_path):
    # a successful synth hashes its algebra into the certificate and the
    # verify hashes it again, both through the builtin SHA-256
    family = ["--family", "Ln", "--n", "12"]
    loaded = _modules_loaded_by_cli_import(
        argvs=[["affine", "synth", *family, "--out", "cert.json"],
               ["affine", "verify", *family, "--cert", "cert.json"]], cwd=tmp_path)
    assert (tmp_path / "cert.json").is_file()
    assert {"hashlib", "_hashlib"}.isdisjoint(loaded)


_SYNTH_C8 = ["affine", "synth", "--family", "Cn", "--n", "8", "--lambda", "1/2", "--lambda", "3",
             "--reproducible"]
_WITHOUT_BUILTIN_SHA256 = f"""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from lieaffine import cli
code = cli.main({_SYNTH_C8!r})
print("hashlib" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_hashlib_fallback_prints_the_same_certificate(capsys):
    # an interpreter without the builtin module hashes through hashlib, to
    # the same digest and so the same certificate bytes
    src = str(Path(lieaffine.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _WITHOUT_BUILTIN_SHA256],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "True\n")
    assert cli.main(_SYNTH_C8) == 0
    assert run.stdout == capsys.readouterr().out


def test_readme_library_example_runs():
    # the python block under the README's "## Library" heading, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (Library)", "exec"), {})


def test_readme_command_line_block_runs(capsys, monkeypatch, tmp_path):
    # each `lieaffine ...` line of the sh block under "## Command line", in
    # order and in one directory, so its --out and --cert files chain; a
    # pipe feeds the left side's stdout to the right side's stdin
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    lines = [line for line in block.splitlines() if line.startswith("lieaffine ")]
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        exits = re.match(r"\s*exits (\d+)", comment)
        *left, right = [shlex.split(stage) for stage in command.split("|")]
        for argv in left:
            assert argv[0] == "lieaffine" and cli.main(argv[1:]) == 0, line
            monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
        assert right[0] == "lieaffine", line
        assert cli.main(right[1:]) == (int(exits.group(1)) if exits else 0), line
        capsys.readouterr()


def test_package_version_matches_pyproject():
    # certificates record lieaffine.__version__; the build reads pyproject.toml
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert meta["project"]["version"] == lieaffine.__version__
