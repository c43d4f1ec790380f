"""The CI workflow (.github/workflows/tests.yml) names only things that exist.

Its steps run perfbench/run.py on named workloads, in `for w in ...` loops
and with literal --workload values, and run scripts by path.  A workload
missing from BENCHMARK.json or a moved script would fail only on the CI
host; here it fails in the tier-1 run.  The inline checks of the traced
grid3d run, the memory gate and the per-box counter gate are run here on
made-up results, so a gate that passes what it should refuse fails here too.
"""

import json
import os
import re
import subprocess
import sys
from functools import partial

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LOOP = re.compile(r"\bfor\s+(\w+)\s+in\s+([^;\n]+);")
WORKLOAD = re.compile(r"perfbench/run\.py\b[^|\n]*?--workload[\s=]+(\S+)")
SCRIPT = re.compile(r"\bpython3?\s+(?:-\S+\s+)*([\w./-]+\.py)\b")


COUNTER_GATE = "Per-box counters against the base commit"
MEMORY_GATE = "Memory against the base commit"
TRACED_GATE = "Traced benchmark run on grid3d, cost laws checked"
COUNTERS = ("tree.nodes_visited", "cascade.binary_searches", "cascade.bridge_follows",
            "tree.reported", "cascade.calls", "tree.canonical_max",
            "cascade.search_law_violations", "tree.canonical_law_violations")


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


def step_named(name: str) -> dict:
    (step,) = [step for step in steps() if step.get("name") == name]
    return step


def inline_check(name: str) -> str:
    """The `python -c` program of the step called name."""
    (check,) = re.findall(r"python -c '(.*?)'", step_named(name)["run"], re.S)
    return check


def against_base(check: str, tmp_path, base: dict, changed=None) -> int:
    """Exit code of a base-against-head inline check on made-up grid3d results."""
    for name, values in (("base", base), ("head", {**base, **(changed or {})})):
        metrics = {k: {"value": v} for k, v in values.items()}
        (tmp_path / name).write_text(json.dumps({"metrics": metrics}))
    return subprocess.run([sys.executable, "-c", check, "grid3d", str(tmp_path / "base"),
                           str(tmp_path / "head")], capture_output=True).returncode


def test_counter_gate_traces_every_workload_on_base_and_head():
    step = step_named(COUNTER_GATE)
    script = step["run"]
    assert step["if"] == "github.event_name == 'pull_request'"  # the base tree exists only then
    named = workloads_named(script)
    assert sorted(named) == sorted(list(declared_workloads()) * 2)  # once on base, once on head
    runs = re.findall(r"perfbench/run\.py[^|\n]*", script)
    assert len(runs) == 2 and all("--seed 1" in r and "--trace 1" in r for r in runs)
    assert 'cd "$RUNNER_TEMP/base"' in script and all(k in script for k in COUNTERS)


def test_counter_gate_fails_on_a_rise_or_a_reported_change(tmp_path):
    # the gate's inline check, run on made-up base and head results; the
    # head's two law-violation counts must be 0 whatever the base's are
    base = {"tree.nodes_visited": 171.107, "cascade.binary_searches": 12.707,
            "cascade.bridge_follows": 80.7, "tree.reported": 58.887, "cascade.calls": 12.707,
            "tree.canonical_max": 19.0, "cascade.search_law_violations": 0.0,
            "tree.canonical_law_violations": 0.0}
    gate = partial(against_base, inline_check(COUNTER_GATE), tmp_path, base)
    assert gate() == 0
    assert gate({"tree.nodes_visited": 171.0, "cascade.bridge_follows": 80.0,
                 "tree.canonical_max": 18.0}) == 0  # a fall
    assert gate({"tree.nodes_visited": 171.11}) == 1
    assert gate({"cascade.binary_searches": 12.71}) == 1
    assert gate({"cascade.bridge_follows": 81.0}) == 1
    assert gate({"tree.reported": 58.8}) == 1 and gate({"tree.reported": 59.0}) == 1
    assert gate({"cascade.calls": 12.7}) == 1 and gate({"cascade.calls": 12.71}) == 1
    assert gate({"tree.canonical_max": 20.0}) == 1
    for law in ("cascade.search_law_violations", "tree.canonical_law_violations"):
        assert gate({law: 1.0}) == 1 and gate({law: 0.5}) == 1
        broken = partial(against_base, inline_check(COUNTER_GATE), tmp_path, {**base, law: 3.0})
        assert broken() == 1 and broken({law: 0.0}) == 0  # a base with violations


def test_memory_gate_allows_one_percent(tmp_path):
    # 1 % is the benchmark's bound on retained_mb and build_peak_mb
    base = {"retained_mb": 9.359469, "build_peak_mb": 9.990799}
    gate = partial(against_base, inline_check(MEMORY_GATE), tmp_path, base)
    assert gate() == 0
    for k in base:
        assert gate({k: 1.0099 * base[k]}) == 0
        assert gate({k: 1.0101 * base[k]}) == 1


def test_traced_gate_fails_on_a_wrong_answer_or_a_broken_law():
    check = inline_check(TRACED_GATE)
    clean = {"correct": True, "failed": 0, "cascade.search_law_violations": 0.0,
             "tree.canonical_law_violations": 0.0, "tree.canonical_max": 19.0,
             "cascade.calls": 3.713, "cascade.binary_searches": 3.713,
             "tree.nodes_visited": 99.553}

    def gate(changed=None) -> int:
        values = {**clean, **(changed or {})}
        result = {"correct": values.pop("correct"), "failed": values.pop("failed"),
                  "metrics": {k: {"value": v, "unit": "count"} for k, v in values.items()}}
        return subprocess.run([sys.executable, "-c", check], input=json.dumps(result),
                              capture_output=True, text=True).returncode

    assert gate() == 0
    assert gate({"correct": False}) == 1 and gate({"failed": 1}) == 1
    assert gate({"cascade.search_law_violations": 1.0}) == 1
    assert gate({"tree.canonical_law_violations": 1.0}) == 1
    assert gate({"tree.canonical_max": 0.0}) == 1
