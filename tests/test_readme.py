"""README.md's examples run as written, and its rule owners exist.

The library example is a doctest.  Each `$ ` line of a console block is run
by bash in an empty directory, with `layertree` run from src/, and its
output must match the lines below it, where `...` matches anything.  Each
owner cell of the "Where each rule is stated" table names package modules
or module attributes that exist; a cell "`cascade` module docstring, Walk"
names a paragraph of that module's docstring that starts with "Walk.".
"""

import doctest
import importlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
CONSOLE = re.compile(r"```console\n(.*?)```", re.S)
OWNERS = re.compile(r"^## Where each rule is stated\n(.*?)^## ", re.S | re.M)
PARAGRAPH = re.compile(r"`(\w+)` module docstring, (.+)")


def test_library_example():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def commands() -> list[tuple[str, str]]:
    """(command, expected output) for every `$ ` line of the README's console blocks."""
    with open(README) as f:
        blocks = CONSOLE.findall(f.read())
    out = []
    for block in blocks:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, want = chunk.partition("\n")
            out.append((command, want))
    return out


def test_console_examples(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    checker = doctest.OutputChecker()
    ran = commands()
    assert len(ran) == 4
    for command, want in ran:
        command = re.sub(r"^layertree\b", f"{sys.executable} -m layertree", command)
        proc = subprocess.run(["bash", "-c", command], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (command, proc.stderr)
        assert checker.check_output(want, proc.stdout, doctest.ELLIPSIS), (command, proc.stdout)


def owner_cells() -> list[str]:
    """The last cell of each row of README's "Where each rule is stated" table, past its header."""
    with open(README) as f:
        (section,) = OWNERS.findall(f.read())
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    return [row.strip("|").split("|")[-1].strip() for row in rows]


def test_rule_owners_exist():
    cells = owner_cells()
    assert len(cells) > 5
    for cell in cells:
        paragraph = PARAGRAPH.fullmatch(cell)
        if paragraph:
            module, title = paragraph.groups()
            doc = importlib.import_module(f"layertree.{module}").__doc__
            assert any(p.startswith(f"{title}.") for p in doc.split("\n\n")), cell
            continue
        names = re.findall(r"`([^`]+)`", cell)
        assert names, cell
        for name in names:
            module, *attrs = name.split(".")
            obj = importlib.import_module(f"layertree.{module}")
            for attr in attrs:
                assert hasattr(obj, attr), (cell, name)
                obj = getattr(obj, attr)
