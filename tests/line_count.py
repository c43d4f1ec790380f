"""Count a Python file's lines by kind: docstring, blank or comment, and code.

    python tests/line_count.py PATH...
    python tests/line_count.py --compare BASE HEAD

The first form prints one row per file and a total row, each with its
lines, its docstring lines (module, class and function docstrings, found
with ast), its blank or comment lines outside docstrings, and the code
lines that remain.  A docstring's lines are those of
ast.get_docstring(node, clean=False), which are the lines its string
literal spans.  A directory PATH stands for its own *.py files, in sorted
order.

The second form takes two checkouts of the repository and prints, for
src/layertree, for tests and for the sum of the two, each kind's total in
BASE, in HEAD and the change.  Code moved from src/layertree into tests is
no reduction, so the sum is printed too.

Any other command line (no PATH, a PATH that does not exist, such as an
option other than --compare, or --compare without exactly two
directories) prints a usage line on stderr and exits with status 2.
"""

from __future__ import annotations

import ast
import glob
import os
import sys

KINDS = ("lines", "docstring", "blank_or_comment", "code")
PARTS = ("src/layertree", "tests")


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


def file_counts(paths: list[str]) -> list[tuple[str, dict[str, int]]]:
    """(path, lines of each kind) for every file of the paths."""
    out = []
    for path in files(paths):
        with open(path, encoding="utf-8") as f:
            out.append((path, count(f.read())))
    return out


def total(rows: list[dict[str, int]]) -> dict[str, int]:
    return {kind: sum(row[kind] for row in rows) for kind in KINDS}


def main(paths: list[str]) -> None:
    rows = file_counts(paths)
    print(*KINDS, "path", sep="\t")
    for path, row in rows:
        print(*(row[kind] for kind in KINDS), path, sep="\t")
    print(*(total([row for _, row in rows])[kind] for kind in KINDS), "total", sep="\t")


def compare(base: str, head: str) -> None:
    """Print each part's and the sum's lines of every kind in base and head, and the change."""
    # a part missing from a tree has no files, so it counts 0 lines
    old, new = ([total([row for _, row in file_counts(glob.glob(os.path.join(root, part, "*.py")))])
                 for part in PARTS] for root in (base, head))
    print("part", "kind", "base", "head", "change", sep="\t")
    for part, b, h in zip(PARTS + ("sum",), old + [total(old)], new + [total(new)]):
        for kind in KINDS:
            print(part, kind, b[kind], h[kind], h[kind] - b[kind], sep="\t")


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--compare" and all(map(os.path.isdir, args[1:])):
        compare(*args[1:])
    elif args and all(map(os.path.exists, args)):
        main(args)
    else:
        print("usage: line_count.py PATH... | --compare BASE HEAD", file=sys.stderr)
        sys.exit(2)
