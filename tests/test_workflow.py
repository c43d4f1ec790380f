"""The CI workflow (.github/workflows/tests.yml) names only things that exist.

Its steps run perfbench/run.py on named workloads, in `for w in ...` loops
and with literal --workload values, and run scripts by path.  A workload
missing from BENCHMARK.json or a moved script would fail only on the CI
host; here it fails in the tier-1 run.  The per-box counter gate's own check
is run here on made-up results, so a gate that passes a rise fails here too.
"""

import json
import os
import re
import subprocess
import sys

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LOOP = re.compile(r"\bfor\s+(\w+)\s+in\s+([^;\n]+);")
WORKLOAD = re.compile(r"perfbench/run\.py\b[^|\n]*?--workload[\s=]+(\S+)")
SCRIPT = re.compile(r"\bpython3?\s+(?:-\S+\s+)*([\w./-]+\.py)\b")


COUNTER_GATE = "Per-box counters against the base commit"
COUNTERS = ("tree.nodes_visited", "cascade.binary_searches", "cascade.bridge_follows",
            "tree.reported", "cascade.calls", "tree.canonical_max")


def steps() -> list[dict]:
    """Every step of every job, in file order."""
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as f:
        workflow = yaml.safe_load(f)
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def run_steps() -> list[str]:
    """The `run:` script of every step of every job, in file order."""
    return [step["run"] for step in steps() if "run" in step]


def declared_workloads() -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {w["name"] for w in json.load(f)["workloads"]}


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
    declared = declared_workloads()
    named = [name for script in run_steps() for name in workloads_named(script)]
    assert "grid3d" in named and len(named) > 1  # the literal and the loop were both read
    assert [name for name in named if name not in declared] == []


def test_every_script_exists():
    scripts = {path for script in run_steps() for path in SCRIPT.findall(script)}
    assert {"perfbench/run.py", "tests/structure_dump.py"} <= scripts
    assert [p for p in sorted(scripts) if not os.path.isfile(os.path.join(ROOT, p))] == []


def counter_gate() -> dict:
    (step,) = [step for step in steps() if step.get("name") == COUNTER_GATE]
    return step


def test_counter_gate_traces_every_workload_on_base_and_head():
    step = counter_gate()
    script = step["run"]
    assert step["if"] == "github.event_name == 'pull_request'"  # the base tree exists only then
    named = workloads_named(script)
    assert sorted(named) == sorted(list(declared_workloads()) * 2)  # once on base, once on head
    runs = re.findall(r"perfbench/run\.py[^|\n]*", script)
    assert len(runs) == 2 and all("--seed 1" in r and "--trace 1" in r for r in runs)
    assert 'cd "$RUNNER_TEMP/base"' in script and all(k in script for k in COUNTERS)


def test_counter_gate_fails_on_a_rise_or_a_reported_change(tmp_path):
    # the gate's inline check, run on made-up base and head results
    (check,) = re.findall(r"python -c '(.*?)'", counter_gate()["run"], re.S)
    base = {"tree.nodes_visited": 171.107, "cascade.binary_searches": 12.707,
            "cascade.bridge_follows": 80.7, "tree.reported": 58.887, "cascade.calls": 12.707,
            "tree.canonical_max": 19.0}

    def gate(changed=None) -> int:
        for name, values in (("base", base), ("head", {**base, **(changed or {})})):
            metrics = {k: {"value": v, "unit": "count"} for k, v in values.items()}
            (tmp_path / name).write_text(json.dumps({"metrics": metrics}))
        return subprocess.run([sys.executable, "-c", check, "grid3d", str(tmp_path / "base"),
                               str(tmp_path / "head")], capture_output=True).returncode

    assert gate() == 0
    assert gate({"tree.nodes_visited": 171.0, "cascade.bridge_follows": 80.0,
                 "tree.canonical_max": 18.0}) == 0  # a fall
    assert gate({"tree.nodes_visited": 171.11}) == 1
    assert gate({"cascade.binary_searches": 12.71}) == 1
    assert gate({"cascade.bridge_follows": 81.0}) == 1
    assert gate({"tree.reported": 58.8}) == 1 and gate({"tree.reported": 59.0}) == 1
    assert gate({"cascade.calls": 12.7}) == 1 and gate({"cascade.calls": 12.71}) == 1
    assert gate({"tree.canonical_max": 20.0}) == 1
