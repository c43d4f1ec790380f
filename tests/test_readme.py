"""README.md's examples run as written.

The library example is a doctest.  Each `$ ` line of a console block is run
by bash in an empty directory, with `layertree` run from src/, and its
output must match the lines below it, where `...` matches anything.
"""

import doctest
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
CONSOLE = re.compile(r"```console\n(.*?)```", re.S)


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
