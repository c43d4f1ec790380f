"""Count a Python file's lines by kind: docstring, blank or comment, and code.

    python tests/line_count.py PATH...

prints one row per file and a total row, each with its lines, its docstring
lines (module, class and function docstrings, found with ast), its blank or
comment lines outside docstrings, and the code lines that remain.  A
docstring's lines are those of ast.get_docstring(node, clean=False), which
are the lines its string literal spans.  A directory PATH stands for its
own *.py files, in sorted order.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

KINDS = ("lines", "docstring", "blank_or_comment", "code")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the source lines that docstrings span."""
    spans = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        doc = ast.get_docstring(node, clean=False)
        if doc is None:
            continue
        expr = node.body[0]
        spans.update(range(expr.lineno, expr.end_lineno + 1))
    return spans


def count(source: str) -> dict[str, int]:
    """Lines of each kind in one file's source."""
    lines = source.splitlines()
    doc = docstring_lines(ast.parse(source))
    other = [text for number, text in enumerate(lines, start=1) if number not in doc]
    blank = sum(1 for text in other if not text.strip() or text.lstrip().startswith("#"))
    return {"lines": len(lines), "docstring": len(doc), "blank_or_comment": blank,
            "code": len(other) - blank}


def files(paths: list[str]) -> list[str]:
    """The paths, each directory replaced by its *.py files in sorted order."""
    return [name for path in paths for name in
            (sorted(glob.glob(os.path.join(path, "*.py"))) if os.path.isdir(path) else [path])]


def main(paths: list[str]) -> None:
    total = dict.fromkeys(KINDS, 0)
    print(*KINDS, "path", sep="\t")
    for path in files(paths):
        with open(path, encoding="utf-8") as f:
            row = count(f.read())
        for kind in KINDS:
            total[kind] += row[kind]
        print(*(row[kind] for kind in KINDS), path, sep="\t")
    print(*(total[kind] for kind in KINDS), "total", sep="\t")


if __name__ == "__main__":
    main(sys.argv[1:])
