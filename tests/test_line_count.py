"""tests/line_count.py on a small made-up file and two made-up trees, and its command line."""

import os
import subprocess
import sys

import pytest

from line_count import count, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code is code

# a comment line


class Box:
    """A class docstring."""

    def area(self):
        """A function docstring
        over three
        lines.
        """
        text = """not a docstring:
        a string in code"""
        return len(text)
'''


def test_counts_each_kind():
    # docstrings: lines 1-2, 10 and 13-16; blank or comment: 3, 5-8 and 11
    assert count(SOURCE) == {"lines": 19, "docstring": 7, "blank_or_comment": 6, "code": 6}


def test_prints_a_row_per_file_and_a_total(tmp_path):
    path = tmp_path / "made_up.py"
    path.write_text(SOURCE)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "line_count.py"),
                           str(path), str(path)], capture_output=True, text=True, check=True)
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert header == ["lines", "docstring", "blank_or_comment", "code", "path"]
    assert rows == [["19", "7", "6", "6", str(path)]] * 2 + [["38", "14", "12", "12", "total"]]


def test_a_directory_counts_its_python_files_in_order(tmp_path, capsys):
    for name in ("b.py", "a.py", "notes.txt", "sub"):
        (tmp_path / name).write_text(SOURCE) if "." in name else (tmp_path / name).mkdir()
    main([str(tmp_path)])
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["19", "7", "6", "6", str(tmp_path / name)] for name in ("a.py", "b.py")] + [
        ["38", "14", "12", "12", "total"]]


def test_compare_prints_each_part_and_the_sum(tmp_path):
    # base holds SOURCE once in src/layertree and once in tests; head drops the
    # tests copy and adds two lines of code to src/layertree
    for root, parts in (("base", {"src/layertree": SOURCE, "tests": SOURCE}),
                        ("head", {"src/layertree": SOURCE + "x = 1\ny = 2\n"})):
        for part, text in parts.items():
            (tmp_path / root / part).mkdir(parents=True)
            (tmp_path / root / part / "m.py").write_text(text)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "line_count.py"),
                           "--compare", str(tmp_path / "base"), str(tmp_path / "head")],
                          capture_output=True, text=True, check=True)
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert header == ["part", "kind", "base", "head", "change"]
    assert rows == [
        ["src/layertree", "lines", "19", "21", "2"], ["src/layertree", "docstring", "7", "7", "0"],
        ["src/layertree", "blank_or_comment", "6", "6", "0"], ["src/layertree", "code", "6", "8", "2"],
        ["tests", "lines", "19", "0", "-19"], ["tests", "docstring", "7", "0", "-7"],
        ["tests", "blank_or_comment", "6", "0", "-6"], ["tests", "code", "6", "0", "-6"],
        ["sum", "lines", "38", "21", "-17"], ["sum", "docstring", "14", "7", "-7"],
        ["sum", "blank_or_comment", "12", "6", "-6"], ["sum", "code", "12", "8", "-4"]]


@pytest.mark.parametrize("argv", [[], ["--help"], ["--compare", "."], ["--compare"],
                                  ["--compare", ".", ".", "."], ["--compare", "no_such_tree", "."],
                                  ["src", "no_such_path"]],
                         ids=["none", "help", "one_tree", "no_tree", "three_trees", "missing_tree",
                              "missing_path"])
def test_a_bad_command_line_prints_usage_and_exits_2(argv):
    # "." and "src" exist, so only the number of trees or a missing path is wrong
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "line_count.py"), *argv],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage: line_count.py PATH... | --compare BASE HEAD\n"
