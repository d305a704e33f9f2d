"""`tools/bench_file.py` records a process that prints no JSON line as a row
with its exit code, so one crash does not lose the whole run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("out", ["", "Traceback (most recent call last):\n", "[1, 2]\n"])
def test_a_process_without_a_json_line_is_a_row_with_its_exit_code(monkeypatch, bench_file, out):
    monkeypatch.setattr(bench_file, "_run", lambda argv, budget_s=None: (1, out, 12.5))
    monkeypatch.setattr(bench_file, "WORKLOADS", ["sweep_main"])
    monkeypatch.setattr(bench_file, "SUITES", [("main", 10, (1, 2)), ("census", 10, (1,))])
    assert bench_file.perfbench_rows() == [{"workload": "sweep_main", "exit": 1}]
    assert bench_file.suite_rows() == [
        {"suite": "main", "n_max": 10, "jobs": 1, "exit": 1, "peak_rss_mb": 12.5},
        {"suite": "main", "n_max": 10, "jobs": 2, "exit": 1, "peak_rss_mb": 12.5},
        {"suite": "census", "n_max": 10, "jobs": 1, "exit": 1, "peak_rss_mb": 12.5},
    ]


def test_a_json_line_is_read_off_the_last_line(monkeypatch, bench_file):
    report = '{"checked": 9, "failures": [], "elapsed": 0.5}'
    monkeypatch.setattr(bench_file, "_run", lambda argv, budget_s=None: (0, report + "\n", 12.5))
    monkeypatch.setattr(bench_file, "SUITES", [("main", 4, (1,))])
    assert bench_file.suite_rows() == [{
        "suite": "main", "n_max": 4, "jobs": 1, "exit": 0, "checked": 9, "failures": 0,
        "elapsed_s": 0.5, "peak_rss_mb": 12.5,
    }]
