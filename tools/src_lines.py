"""Print the physical and the code line count of the package sources.

A code line holds a token other than a comment and is not part of a
docstring (of the module, a class or a function); blank lines, comments
and docstrings are not code.  Both counts are printed for each ``.py`` file
under ``src/`` (or the directory given as the one argument), relative to
it, and then summed in the last two lines.

    python3 tools/src_lines.py [DIR]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def counts(path: Path) -> tuple:
    """``(physical lines, code lines)`` of one source file."""
    text = path.read_text()
    with path.open("rb") as f:
        code = {line for tok in tokenize.tokenize(f.readline)
                if tok.type not in SKIPPED and tok.type != tokenize.ENCODING
                for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src")
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no .py files under {root}", file=sys.stderr)
        return 1
    physical = code = 0
    for path in files:
        p, c = counts(path)
        print(f"{path.relative_to(root)}: {p} physical, {c} code")
        physical += p
        code += c
    print(f"src physical lines: {physical}")
    print(f"src code lines: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
