"""Count each module's lines, and the code lines among them.

    python scripts/code_lines.py [DIR]

For every ``*.py`` file below DIR (default: the package, ``src/ghreplay``)
it prints the total lines and the code lines, then their sums. A code
line holds some token other than a comment; a blank line, a comment-only
line and a docstring line are not code. A docstring is a string that is
the first statement of a module, class or function, found with ``ast``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ghreplay"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """The total lines of ``source`` and its code lines."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(args: list[str]) -> int:
    if len(args) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(args[0]) if args else PACKAGE
    totals = [0, 0]
    print(f"{'total':>6} {'code':>6}  module")
    for path in sorted(root.rglob("*.py")):
        lines = count(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{lines[0]:>6} {lines[1]:>6}  {path.relative_to(root)}")
    print(f"{totals[0]:>6} {totals[1]:>6}  (sum)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
