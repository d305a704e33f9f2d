"""Write BENCH_<short commit>.json: the perfbench workloads, the suites and
the frontier, each measured in its own process.  The name ends in "-dirty"
when tracked files differ from the commit.

Run from anywhere, with no arguments; it takes about eight minutes on two
cores and writes the file at the root of the checkout:

    python3 tools/bench_file.py

Stdlib only.  The package is imported from the checkout's `src/`.  Three
tables:
- `perfbench`: `perfbench/run.py --workload W --seed 1 --seconds 20
  --trace 0` for each workload, its six end-to-end metrics copied from the
  last line it prints (times in reference seconds, as perfbench scales
  them);
- `suites`: `python -m posicat verify` per suite, n_max and jobs, with the
  report's `checked` and `elapsed` (raw seconds);
- `frontier`: one request per process on a cold `Engine`, in raw seconds,
  with the engine's counters.  A row that runs out of its budget is killed
  and records the budget and its exit code instead of a time.

A perfbench or suite process that ends without printing its JSON line is
recorded too, as a row with its exit code and no metrics, and the run goes
on.

Every row records `peak_rss_mb`, the `ru_maxrss` that `wait4` reports for
its process: the largest of the process and the workers it reaped.  Rows
from one run compare with each other; rows from runs in different sessions
or on different machines do not.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

WORKLOADS = ["sweep_main", "frontier_c", "frontier_rtilde", "engine_warm", "synthesis"]
SUITES = [
    ("main", 10, (1, 2)),
    ("engine", 8, (1, 2)),
    ("engine", 9, (1, 2)),
    ("structure", 10, (1, 2)),
    ("synthesis", 14, (1, 2)),
    ("census", 10, (1,)),  # the census runs serially
]
BUDGET_S = 60  # per frontier row: the (7, 16) top cell needs about 175 s
# 8 cycles per period from perfbench's `_random_cycle`, seeded by request and n
SAMPLE_SIZE = 8
SAMPLES = [("Rtilde", "R", n) for n in (18, 20, 22)] + [("C", "C", n) for n in (22, 24, 26)]
TOP_CELLS = [(5, 13), (6, 13), (6, 15), (7, 16), (7, 17), (8, 17)]
# k = n/2 windows at n = 20 and n = 22, where duality does not orient.  They
# are the R~ samples n = 20 #3 and n = 22 #0, kept as fixed rows so that
# they stay should the samples change
WINDOWS = [
    [18, 9, 7, 15, 8, 14, 20, 12, 16, 26, 21, 22, 19, 17, 31, 30, 23, 24, 25, 33],
    [7, 8, 18, 17, 15, 23, 11, 19, 20, 28, 26, 16, 14, 34, 31, 25, 21, 35, 22, 27, 32, 24],
]

# one request on a cold engine: prints its seconds and the engine's counters
ROW_PROBE = (
    "import json, sys, time\n"
    "from posicat import BoundedAffinePerm, Engine\n"
    "request, window = sys.argv[1], json.loads(sys.argv[2])\n"
    "perm, engine = BoundedAffinePerm(window), Engine()\n"
    "start = time.perf_counter()\n"
    "getattr(engine, 'compute_' + request)(perm)\n"
    "seconds = time.perf_counter() - start\n"
    "print(json.dumps({'seconds': seconds, 'stats': engine.stats}))\n"
)


def _run(argv: list[str], budget_s: float | None = None) -> tuple[int, str, float]:
    """Run argv from the checkout's root; return its exit code, its stdout
    and its peak RSS in MB.  A process still running after `budget_s` is
    killed."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(budget_s, proc.kill) if budget_s else None
    if timer:
        timer.start()
    with proc.stdout:
        out = proc.stdout.read()
    if timer:
        # the child is not reaped yet, so a kill that fires now hits no
        # other process
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def _last_json(out: str) -> dict | None:
    """The JSON object on the last line of `out`, or None when there is
    none: the process died, or printed something else last."""
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def perfbench_rows() -> list[dict]:
    rows = []
    for name in WORKLOADS:
        code, out, _ = _run([sys.executable, "perfbench/run.py", "--workload", name,
                             "--seed", "1", "--seconds", "20", "--trace", "0"])
        row = {"workload": name, "exit": code}
        result = _last_json(out)
        if result is not None:
            row["correct"] = result["correct"]
            row["metrics"] = {key: m["value"] for key, m in result["metrics"].items()}
        rows.append(row)
    return rows


def suite_rows() -> list[dict]:
    rows = []
    for suite, n_max, jobs_list in SUITES:
        for jobs in jobs_list:
            code, out, rss = _run([sys.executable, "-m", "posicat", "verify", "--suite", suite,
                                   "--n-max", str(n_max), "--jobs", str(jobs)])
            report = _last_json(out)
            row = {"suite": suite, "n_max": n_max, "jobs": jobs, "exit": code}
            # with no report, the exit code says what went wrong
            if report is not None:
                if suite == "census":
                    row["groups"] = sum(len(f["groups"]) for f in report["frames"])
                    row["all_match_gcd"] = report["all_match_gcd"]
                    row["all_nu_bar_bijective"] = report["all_nu_bar_bijective"]
                else:
                    row["checked"] = report["checked"]
                    row["failures"] = len(report["failures"])
                row["elapsed_s"] = report["elapsed"]
            row["peak_rss_mb"] = rss
            rows.append(row)
    return rows


def _load_random_cycle():
    """perfbench's `_random_cycle`, loaded by path so no workload is
    redefined here."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return workloads._random_cycle


def frontier_inputs() -> list[dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from posicat import BoundedAffinePerm

    random_cycle = _load_random_cycle()
    inputs = []
    for request, letter, n in SAMPLES:
        rng = random.Random(f"roadmap-frontier-{letter}-{n}")
        for i in range(SAMPLE_SIZE):
            perm = BoundedAffinePerm.from_cycle(random_cycle(rng, n))
            inputs.append({"row": f"{request} sample n={n} #{i}", "request": request,
                           "window": list(perm.window)})
    for k, n in TOP_CELLS:
        inputs.append({"row": f"Rtilde top cell ({k}, {n})", "request": "Rtilde",
                       "window": list(BoundedAffinePerm.translation(k, n).window)})
    for window in WINDOWS:
        inputs.append({"row": f"Rtilde window n={len(window)}", "request": "Rtilde",
                       "window": window})
    return inputs


def frontier_rows() -> list[dict]:
    rows = []
    for row in frontier_inputs():
        code, out, rss = _run([sys.executable, "-c", ROW_PROBE, row["request"],
                               json.dumps(row["window"])], BUDGET_S)
        if code == 0:
            row.update(json.loads(out))
        else:
            row.update({"exit": code, "budget_s": BUDGET_S})  # -9: killed at the budget
        row["peak_rss_mb"] = rss
        rows.append(row)
        print(f"bench_file: {row['row']}: {row.get('seconds', 'budget')}", file=sys.stderr)
    return rows


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> int:
    # the short commit, with "-dirty" when tracked files differ from it
    commit = _git("describe", "--always", "--dirty")
    bench = {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "frontier_budget_s": BUDGET_S,
        "perfbench": perfbench_rows(),
        "suites": suite_rows(),
        "frontier": frontier_rows(),
    }
    path = ROOT / f"BENCH_{commit}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
