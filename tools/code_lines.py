"""Count the code lines of each module of a package directory, and their total.

A line counts when it holds a token other than a comment and is not part
of a module, class or function docstring; blank lines, comment lines and
docstrings are left out. Standard library only. Run from the repository
root:

    python3 tools/code_lines.py              # src/lieaffine
    python3 tools/code_lines.py path/to/pkg  # any directory of .py files

It prints one "lines module" row per module, sorted by name, then
"lines total".
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers spanned by the module's, and every class's and function's, docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, as the module docstring defines it."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv) -> int:
    root = Path(__file__).resolve().parents[1]
    package = Path(argv[1]) if len(argv) > 1 else root / "src" / "lieaffine"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:5d} {name}")
    print(f"{sum(counts.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
