"""The CI workflow (.github/workflows/tests.yml) names only things that exist.

Its steps run perfbench/run.py on named workloads, in `for w in ...` loops
and with literal --workload values, and run scripts by path.  A workload
missing from BENCHMARK.json or a moved script would fail only on the CI
host; here it fails in the tier-1 run.
"""

import json
import os
import re

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LOOP = re.compile(r"\bfor\s+(\w+)\s+in\s+([^;\n]+);")
WORKLOAD = re.compile(r"perfbench/run\.py\b[^|\n]*?--workload[\s=]+(\S+)")
SCRIPT = re.compile(r"\bpython3?\s+(?:-\S+\s+)*([\w./-]+\.py)\b")


def run_steps() -> list[str]:
    """The `run:` script of every step of every job, in file order."""
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as f:
        workflow = yaml.safe_load(f)
    return [step["run"] for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]


def workloads_named(script: str) -> list[str]:
    """The workload names a step hands perfbench/run.py: literals, or a loop variable's list."""
    loops = {var: words.split() for var, words in LOOP.findall(script)}
    names = []
    for value in WORKLOAD.findall(script):
        value = value.strip("\"'")
        var = re.fullmatch(r"\$\{?(\w+)\}?", value)
        names += loops[var.group(1)] if var else [value]
    return names


def test_every_workload_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {w["name"] for w in json.load(f)["workloads"]}
    named = [name for script in run_steps() for name in workloads_named(script)]
    assert "grid3d" in named and len(named) > 1  # the literal and the loop were both read
    assert [name for name in named if name not in declared] == []


def test_every_script_exists():
    scripts = {path for script in run_steps() for path in SCRIPT.findall(script)}
    assert {"perfbench/run.py", "tests/structure_dump.py"} <= scripts
    assert [p for p in sorted(scripts) if not os.path.isfile(os.path.join(ROOT, p))] == []
