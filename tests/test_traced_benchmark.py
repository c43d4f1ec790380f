"""One short traced benchmark run.

perfbench/run.py --trace 1 wraps package functions by name (tree.canonical_subtrees,
CascadeStructure.build_from_ids, ...), so renaming or removing one of them
fails here, not only in a separate benchmark run.  The run also checks every
answer and the one-search and canonical-cover laws.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_run_has_no_failures_or_law_violations():
    argv = [sys.executable, "perfbench/run.py", "--workload", "cli_narrow2d",
            "--seed", "1", "--seconds", "0.2", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert result["failed"] == 0
    assert metrics["cascade.search_law_violations"]["value"] == 0
    assert metrics["tree.canonical_law_violations"]["value"] == 0
