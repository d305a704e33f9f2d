"""The benchmark's traced smoke runs, from a subprocess.

`perfbench/tracing.py` wraps engine methods such as `compute_C_decoupled`
and `IntPoly.exact_div` by name, so a refactor of the engine that the
tracer can no longer follow fails here rather than only when the
benchmark runs.  Nothing under `perfbench/` is changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["engine_warm", "frontier_rtilde"])
def test_traced_smoke_run_passes(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
