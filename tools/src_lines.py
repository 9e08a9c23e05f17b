"""Line counts of the Python files under a directory, split by kind.

    python tools/src_lines.py [DIR]        (DIR defaults to src)

Per file, and in total, prints lines, code, docstring, comment and blank.
Docstring lines are the lines of every module, class and function docstring
(from the AST, blank lines inside one included); comment lines hold nothing
but a comment (from the tokenizer); blank lines are empty or whitespace
outside a docstring; every other line is code.  The counts are informational:
nothing compares them with a threshold.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("lines", "code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _comment_lines(path: Path) -> set:
    lines, code = set(), set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                lines.add(tok.start[0])
            elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                  tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER):
                code.update(range(tok.start[0], tok.end[0] + 1))
    return lines - code


def count(path: Path) -> dict:
    text = path.read_text()
    docs = _docstring_lines(ast.parse(text))
    comments = _comment_lines(path)
    out = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(text.splitlines(), 1):
        out["lines"] += 1
        if i in docs:
            out["docstring"] += 1
        elif i in comments:
            out["comment"] += 1
        elif not line.strip():
            out["blank"] += 1
        else:
            out["code"] += 1
    return out


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40}" + "".join(f"{k:>10}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        c = count(path)
        total = {k: total[k] + c[k] for k in KINDS}
        print(f"{str(path):<40}" + "".join(f"{c[k]:>10,}" for k in KINDS))
    print(f"{'total':<40}" + "".join(f"{total[k]:>10,}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
