"""Count the code lines of each module under src/bigrade and their total.

A code line holds a token of code: blank lines, comment lines and the lines
of module, class and function docstrings are not counted.  A line with code
and a trailing comment counts, as does every line of a string that is not a
docstring.

    python tests/code_lines.py [directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bigrade"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The lines spanned by the docstring of the module and of every class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
