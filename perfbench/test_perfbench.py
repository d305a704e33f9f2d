"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import posicat  # noqa: E402

from calibration import REFERENCE_S, Calibrator  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload_and_predicts_every_layer_metric():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert any(name == key or name.startswith(key + ".") for key in PREDICTIONS["per_layer"]), name
    for pairs in PREDICTIONS["per_layer"].values():
        for workload, metric in pairs["moves"] + pairs.get("lesser", []):
            assert workload in WORKLOADS
            assert metric in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["frontier_c", "frontier_rtilde"])
def test_seed_fixes_the_frontier_requests(workload):
    spec = WORKLOADS[workload]
    first = spec.make_inputs(posicat, 5, smoke=True)
    assert spec.make_inputs(posicat, 5, smoke=True) == first
    other = spec.make_inputs(posicat, 6, smoke=True)
    # a different seed sends the same fixed sample in another order
    assert other["windows"] != first["windows"]
    assert sorted(other["windows"]) == sorted(first["windows"])
    perms = [posicat.BoundedAffinePerm(w) for w in first["windows"]]
    assert all(p.is_theta and p.n == first["n"] for p in perms)
    assert len({p.window for p in perms}) == len(perms)


def test_scale_comes_from_the_units_nearest_in_time():
    calibrator = Calibrator()
    # a slow spell (units of 2 * REFERENCE_S) after ten units at reference speed
    calibrator.times = [float(t) for t in range(20)]
    calibrator.samples = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert calibrator.scale_at(2.4) == 1.0
    assert calibrator.scale_at(16.0) == 0.5
    # before the first unit and after the last, the nearest NEIGHBOURS count
    assert calibrator.scale_at(-5.0) == 1.0
    assert calibrator.scale_at(100.0) == 0.5
    assert calibrator.scale_at(9.6) == 0.5  # units 8-12: three of them slow


def test_self_time_subtracts_children_and_restore_puts_names_back():
    original = posicat.harness.fset_from_paths
    init = vars(posicat.BoundedAffinePerm)["__init__"]
    tracer = Tracer(posicat)
    with tracer:
        assert posicat.harness.fset_from_paths is not original
        perm = posicat.BoundedAffinePerm.from_cycle([0, 3, 1, 4, 2])
        posicat.harness.fset_from_paths(perm)
    assert posicat.harness.fset_from_paths is original
    assert vars(posicat.BoundedAffinePerm)["__init__"] is init
    names = [s[0] for s in tracer.spans]
    assert names[0] == "paths.fset_from_paths" and "affine.require_theta" in names
    assert all(s[3] == 0 for s in tracer.spans[1:])  # children of the root
    own = tracer.self_times()
    root = tracer.spans[0]
    children = sum(end - start for _, start, end, _, _ in tracer.spans[1:])
    assert own[0] == root[2] - root[1] - children
    metrics = layer_metrics(tracer, range(5, 6))
    assert metrics["paths.fset_from_paths.calls"] == 1
    assert metrics["paths.fset_from_paths.us_per_call.n5"] > 0
    assert metrics["affine.perm_constructed.calls"] == 1


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "sweep_main", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
