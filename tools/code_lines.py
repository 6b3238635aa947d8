"""Count the code lines of the Python files under a directory.

A code line holds at least one token that is not a comment, and is not part
of a bare string statement (a docstring).  Blank lines do not count.

    python3 tools/code_lines.py src/rcsopt
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docs.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    lines = iter(source.splitlines(keepends=True))
    for tok in tokenize.generate_tokens(lambda: next(lines, "")):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(argv: list[str]) -> int:
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        n = code_lines(path.read_text())
        print(f"{n:6d} {path}")
        total += n
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
