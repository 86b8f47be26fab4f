"""Count the code lines of each module of the refimsim package.

    python3 tools/code_lines.py [src/refimsim]

A code line is a line that holds a token of code: blank lines, lines that
hold only a comment, and the lines of a module, class or function docstring
are not counted. A statement or string that spans several lines counts each
of them. Prints one line per module, then the total. Exits 2 with a message
when the path is not a directory holding .py modules. Uses only the standard
library.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else ROOT / "src" / "refimsim"
    modules = sorted(package.glob("*.py")) if len(argv) <= 1 and package.is_dir() else []
    if not modules:
        given = " ".join(argv) or str(package)
        print(f"usage: python3 tools/code_lines.py [PACKAGE_DIR]\n"
              f"{given!r} is not a directory holding .py modules", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
