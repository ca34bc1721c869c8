"""Count the code lines of Python modules: lines that hold a token other
than a comment, not counting blank lines or docstrings (the string that
opens a module, class or function body).  A statement spread over several
lines counts each line that holds one of its tokens; a string spanning
lines counts each line it spans.

    python3 tools/code_lines.py src/mlmkl

prints each module's count and the total.  Standard library only.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in the Python file ``path``."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    if not argv:
        print("usage: code_lines.py DIR_OR_FILE...", file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
