"""tests/line_count.py on a small made-up file, and its command line."""

import os
import subprocess
import sys

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
