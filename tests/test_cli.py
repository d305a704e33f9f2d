import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posicat
from posicat import cli
from posicat.cli import main
from posicat.harness import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_catalan_cycle(capsys):
    code, out, _ = run(capsys, "compute", "--perm", "cycle:(0,3,2,5,1,4)", "--what", "catalan")
    assert code == 0 and out.strip() == "2"


def test_compute_catalan_one_based(capsys):
    code, out, _ = run(
        capsys, "compute", "--perm", "cycle:(1,4,6,2,5,7,3)", "--what", "catalan", "--one-based"
    )
    assert code == 0 and out.strip() == "3"


def test_compute_rpoly_and_rtilde(capsys):
    code, out, _ = run(capsys, "compute", "--perm", "window:1,2", "--what", "rpoly")
    assert code == 0 and out.strip() == "q - 1"
    code, out, _ = run(capsys, "compute", "--perm", "cycle:(0,3,2,5,1,4)", "--what", "rtilde")
    assert code == 0 and out.strip() == "q^2 + 1"


def test_compute_inversions_fset_lambda_nu(capsys):
    perm = "window:3,6,4,5,7,8,9"
    code, out, _ = run(capsys, "compute", "--perm", perm, "--what", "inversions")
    assert code == 0 and json.loads(out) == [[1, 2], [1, 3]]
    code, out, _ = run(capsys, "compute", "--perm", perm, "--what", "fset")
    assert json.loads(out) == {"frame": "rect", "k": 3, "m": 4, "points": [[1, 1], [2, 3]]}
    code, out, _ = run(capsys, "compute", "--perm", "window:2,3,4,5,6", "--what", "lambda")
    assert json.loads(out) == {"lambda": [1, 0], "a": [1]}
    code, out, _ = run(capsys, "compute", "--perm", "window:2,3,4,5,6", "--what", "nu")
    assert json.loads(out) == {"nu": 0, "nu_bar": 0, "gcd": 1}


def test_compute_trace(capsys):
    code, out, err = run(
        capsys, "compute", "--perm", "window:1,2", "--what", "catalan", "--trace"
    )
    assert code == 0 and out.strip() == "1"
    rules = [json.loads(line)["rule"] for line in err.strip().splitlines()]
    assert rules == ["simple_factor", "remove_fixed_points", "base"]


def test_compute_stats(capsys):
    # the engine's counters go to stderr as one JSON object; stdout is as
    # without the flag
    perm = "window:" + ",".join(str(i + 7) for i in range(16))  # C(7, 16)
    plain = run(capsys, "compute", "--perm", perm, "--what", "catalan")
    code, out, err = run(capsys, "compute", "--perm", perm, "--what", "catalan", "--stats")
    assert plain == (0, "715\n", "")
    assert code == 0 and out == plain[1]
    engine = posicat.Engine()
    engine.compute_C(posicat.BoundedAffinePerm.translation(7, 16))
    assert json.loads(err) == engine.stats and len(err.splitlines()) == 1
    # after the trace, and all zero for a statistic the engine does not compute
    code, out, err = run(capsys, "compute", "--perm", "window:1,2", "--what", "rtilde",
                         "--trace", "--stats")
    *trace, stats = err.splitlines()
    assert code == 0 and out == "1\n"
    rules = [json.loads(line)["rule"] for line in trace]
    assert rules == ["simple_factor", "remove_fixed_points", "base"]
    assert json.loads(stats) == {"r_hits": 0, "r_misses": 1, "c_hits": 0, "c_misses": 0,
                                 "r_entries": 2, "c_entries": 0}
    code, out, err = run(capsys, "compute", "--perm", perm, "--what", "inversions", "--stats")
    assert code == 0 and json.loads(err) == dict.fromkeys(engine.stats, 0)


def test_dyck_rect_coords(capsys):
    code, out, _ = run(
        capsys, "dyck", "--k", "3", "--n", "7", "--forbid", "1,1;2,3", "--coords", "rect"
    )
    assert code == 0 and out.strip() == "3"


def test_dyck_sheared_and_empty(capsys):
    code, out, _ = run(
        capsys, "dyck", "--k", "3", "--n", "7", "--forbid", "1,2;2,5", "--coords", "sheared"
    )
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "dyck", "--k", "3", "--n", "7", "--forbid", "")
    assert out.strip() == "5"


def test_dyck_list(capsys):
    code, out, _ = run(capsys, "dyck", "--k", "3", "--n", "7", "--forbid", "", "--list")
    paths = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and len(paths) == 5
    assert all(p[0] == [0, 0] and p[-1] == [3, 7] for p in paths)


def test_dyck_list_past_the_recursion_limit(capsys):
    code, out, err = run(capsys, "dyck", "--k", "1", "--n", "1200", "--list")
    paths = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and err.strip() == "1" and len(paths) == 1
    assert paths[0][0] == [0, 0] and paths[0][-1] == [1, 1200] and len(paths[0]) == 1201


def test_synthesize(capsys):
    code, out, _ = run(capsys, "synthesize", "--k", "3", "--n", "7", "--forbid", "1,1;2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 7 and payload["k"] == 3
    code, out, _ = run(
        capsys, "compute", "--perm", json.dumps(payload), "--what", "fset"
    )
    assert json.loads(out)["points"] == [[1, 1], [2, 3]]


def test_synthesize_error_exit_code(capsys):
    code, _, err = run(capsys, "synthesize", "--k", "3", "--n", "7", "--forbid", "1,1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("k, n, forbid, coords, message", [
    ("3", "7", "1,1", "rect", "missing mirror of (1, 1)"),
    ("3", "7", "1,2", "sheared", "missing mirror of (1, 2)"),
    ("4", "8", "1,1;3,3", "rect", "[(1, 1), (3, 3)] misses lattice points"),
    ("4", "8", "1,2;3,6", "sheared", "[(1, 2), (3, 6)] misses lattice points"),
    ("2", "4", "1,0;1,1;1,2", "rect", "outside [1,1]x[1,1]"),
])
def test_synthesize_errors_name_the_points_as_given(capsys, k, n, forbid, coords, message):
    code, out, err = run(
        capsys, "synthesize", "--k", k, "--n", n, "--forbid", forbid, "--coords", coords
    )
    assert code == 2 and out == "" and message in err


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0 and len(rows) == 6
    assert {row["k"] for row in rows} == {1, 2, 3}
    assert all(
        set(row) == {"n", "k", "window", "ell", "repetition_free", "catalan", "fset", "nu_bar"}
        for row in rows
    )


def test_enumerate_k_filter_and_repetition_free(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--k", "2", "--format", "json")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 11 and all(row["k"] == 2 for row in rows)
    code, out, _ = run(
        capsys, "enumerate", "--n", "6", "--repetition-free", "--format", "json"
    )
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(row["repetition_free"] for row in rows)


def test_enumerate_period_one_prints_nothing(capsys):
    # Theta(k, 1) is empty, like a --k filter that matches nothing
    assert run(capsys, "enumerate", "--n", "1") == (0, "", "")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_enumerate_period_below_one_is_a_usage_error(capsys, n):
    code, out, err = run(capsys, "enumerate", "--n", n)
    assert code == 2 and out == "" and "argument --n" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("k", ["7", "3", "0", "-1"])
def test_enumerate_k_outside_the_frame_is_refused_before_any_output(capsys, fmt, k):
    # refused at once: no (n-1)! scan for nothing, and no CSV header either
    code, out, err = run(capsys, "enumerate", "--n", "3", "--k", k, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: need 1 <= k <= n-1, got k={k}, n=3\n"


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "csv")
    reader = csv.reader(io.StringIO(out))
    rows = list(reader)
    assert rows[0] == ["n", "k", "window", "ell", "repetition_free", "catalan", "fset", "nu_bar"]
    assert len(rows) == 7


def test_verify_main_small(capsys):
    code, out, err = run(capsys, "verify", "--suite", "main", "--n-max", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["checked"] == 1 + 2 + 6
    assert "PASS" in err


def test_verify_structure(capsys):
    code, out, err = run(capsys, "verify", "--suite", "structure", "--n-max", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "structure" and payload["passed"] is True
    # the Theta windows, then the 15 frames (k, n) with n <= 6
    assert payload["checked"] == 1 + 2 + 6 + 24 + 120 + 15
    assert "PASS" in err


def test_verify_structure_failure_exits_1(capsys, monkeypatch):
    def failing(n_max, jobs=1):
        report = VerificationReport("structure", {"n_max": n_max, "jobs": jobs}, 0, [], 0.0)
        report.failures.append({"window": [2, 4], "check": "min_length",
                                "expected": 1, "actual": 0})
        return report

    monkeypatch.setattr(cli, "verify_structure", failing)
    code, out, err = run(capsys, "verify", "--suite", "structure", "--n-max", "4")
    assert code == 1
    assert json.loads(out)["passed"] is False and "FAIL" in err


def test_verify_census(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "census", "--n-max", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "census"


def test_usage_errors(capsys):
    assert run(capsys, "compute", "--what", "catalan")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    code, _, err = run(capsys, "compute", "--perm", "window:9,9", "--what", "catalan")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("suite", ["main", "synthesis", "engine", "structure", "census"])
def test_verify_n_max_below_two_is_a_usage_error(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "-3")
    assert code == 2 and out == "" and "n_max" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, "verify", "--suite", "main", "--n-max", "3", "--jobs", jobs)
    assert code == 2 and out == "" and "--jobs" in err


def test_bad_forbidden_text(capsys):
    code, _, err = run(capsys, "dyck", "--k", "3", "--n", "7", "--forbid", "1;2,3")
    assert code == 2 and "error" in err


def test_bad_forbidden_entry_exits_2(capsys):
    code, _, err = run(capsys, "dyck", "--k", "3", "--n", "7", "--forbid", "1,a")
    assert code == 2 and "bad point" in err


@pytest.mark.parametrize("text", [
    '{"x":1}', "window:a,b", '{"window": [1, 2', "cycle:(0,x)", '{"window": [1, 2], "k": 1.0}',
    pytest.param('{"window": ' + "[" * 100_000, id="nested_100000_deep"),
])
def test_bad_perm_text_exits_2(capsys, text):
    code, out, err = run(capsys, "compute", "--perm", text, "--what", "catalan")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("dyck", "--k", "-3", "--n", "7"),
    ("dyck", "--k", "8", "--n", "7", "--list"),
    ("dyck", "--k", "0", "--n", "0"),
])
def test_dyck_bad_frame_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "0 <= k <= n" in err


@pytest.mark.parametrize("k", ["0", "7"])
def test_synthesize_bad_frame_exits_2(capsys, k):
    code, out, err = run(capsys, "synthesize", "--k", k, "--n", "7")
    assert code == 2 and out == ""
    assert "1 <= k <= n-1" in err


def test_verify_jobs_defaults_to_one(capsys, monkeypatch):
    # no environment variable sets the worker count; only --jobs does
    monkeypatch.setenv("POSICAT_JOBS", "3")
    code, out, _ = run(capsys, "verify", "--suite", "main", "--n-max", "3")
    assert code == 0 and json.loads(out)["params"]["jobs"] == 1


def _run_python(*args):
    """`python args` on this package's source."""
    src = str(Path(posicat.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )


def test_a_closed_pipe_exits_141_without_a_traceback():
    # as `posicat enumerate --n 8 | head -n 1` does: 128 + SIGPIPE, the
    # status of a shell tool killed on a closed pipe, not 1 for a failure
    src = str(Path(posicat.__file__).resolve().parent.parent)
    with subprocess.Popen(
        [sys.executable, "-m", "posicat", "enumerate", "--n", "8", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert json.loads(proc.stdout.readline())["n"] == 8
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
    assert err == ""


def _run_optimised(*argv):
    """`python -O -m posicat.cli argv`: -O strips assert statements, and
    every check must hold without them."""
    return _run_python("-O", "-m", "posicat.cli", *argv)


def test_python_m_posicat_runs_the_readme_example():
    done = _run_python("-m", "posicat", "compute", "--perm", "cycle:(0,3,2,5,1,4)",
                       "--what", "catalan")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2\n"


def test_python_m_posicat_bad_input_exits_2_without_a_traceback():
    done = _run_python("-m", "posicat", "compute", "--perm", "window:1,1", "--what", "catalan")
    assert done.returncode == 2 and done.stdout == ""
    assert "error:" in done.stderr and "Traceback" not in done.stderr


def test_verify_under_python_O_prints_one_report():
    done = _run_optimised("verify", "--suite", "main", "--n-max", "5")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)  # extra output would be "Extra data"
    assert report["suite"] == "main" and report["checked"] > 0 and report["failures"] == []


def test_bad_input_under_python_O_exits_2_without_a_traceback():
    done = _run_optimised("compute", "--perm", "window:1,1", "--what", "catalan")
    assert done.returncode == 2 and done.stdout == ""
    assert "error:" in done.stderr and "Traceback" not in done.stderr
