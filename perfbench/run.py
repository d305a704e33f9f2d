"""Benchmark for posicat: one workload, timed or traced, with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_main --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's `src/`.  Set-up imports it and
builds the workload's inputs from `--seed`, several times, and reports the
median.  Then passes over the same inputs repeat until `--seconds` is
spent, at least three times.  `--trace 0` times untraced passes and
reports the end-to-end metrics.  Every time, set-up included, is scaled to
the reference host speed by the calibration units run nearest to it (see
`calibration.py`), and each request counts the median of its runs.
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics, writing the spans of the last traced pass to
`perfbench/out/`.  `--smoke` runs the workload at a tiny size with the same
checks.

Outputs are checked after the timed section.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; metric names and units come from BENCHMARK.json.  A run record
with the environment, the inputs and the pass times goes to
`perfbench/out/`.  Exit codes: 0 when every check passes, 1 when one fails,
2 when the package source or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from calibration import REFERENCE_S, Calibrator
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 15  # set-ups per timed run; setup_s is their median
MIN_PASSES = 3  # passes per run however long they take: a process's first
# pass often runs slowest
N_RANGE = range(2, 12)  # periods of the per-n layer metrics

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import posicat\n"
    "print(time.perf_counter() - start)\n"
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_posicat():
    """Import the package from the checkout's source, never an installed
    copy."""
    init = SRC / "posicat" / "__init__.py"
    if not init.is_file():
        die(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import posicat

    if Path(posicat.__file__).resolve() != init.resolve():
        die(f"imported {posicat.__file__} instead of {init}")
    return posicat


def fresh_import_s() -> float:
    """Import time of the package in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def git_commit() -> Optional[str]:
    """The checked-out commit when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(posicat) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "jobs": 1,
        "commit": git_commit(),
        "posicat_version": posicat.__version__,
    }


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same checks")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    posicat = import_posicat()
    workload = WORKLOADS[args.workload]

    # -- set-up: import and input generation, repeated for a median --------------
    reps = 1 if args.trace else SETUP_REPS
    import_s, generate_s, started = [], [], []
    setup_calibrator = Calibrator()
    inputs = state = None
    for _ in range(reps):
        started.append(time.perf_counter())
        import_s.append(fresh_import_s())
        start = time.perf_counter()
        again = workload.make_inputs(posicat, args.seed, args.smoke)
        state = workload.prepare(posicat, again)
        generate_s.append(time.perf_counter() - start)
        if inputs is not None and again != inputs:
            raise RuntimeError("the same seed gave different inputs")
        inputs = again
        setup_calibrator.unit()
    # each set-up is scaled like a request: by the units nearest to it
    scaled_setup_s = [(i + g) * setup_calibrator.scale_at(t)
                      for i, g, t in zip(import_s, generate_s, started)]
    setup_s = statistics.median(scaled_setup_s)

    # -- measurement ------------------------------------------------------------------
    untraced, traced, layer_runs = [], [], []
    tracer = None
    calibrator = Calibrator()
    between = (lambda: None) if args.trace else calibrator.tick
    began = time.perf_counter()
    while True:
        lap_start = time.perf_counter()
        untraced.append(workload.run_pass(posicat, state, posicat.Engine, between=between))
        if args.trace:
            tracer = Tracer(posicat)
            with tracer:
                traced.append(
                    workload.run_pass(posicat, state, tracer.engine_factory(), tracer.wrap)
                )
            layer_runs.append(layer_metrics(tracer, N_RANGE))
        now = time.perf_counter()
        if len(untraced) >= MIN_PASSES and now - began + (now - lap_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks, outside the timed section -------------------------------------------
    results = untraced + traced
    failed, failure_sample = workload.check(posicat, state, results)
    attempted = workload.items(state) * len(results)

    # -- metrics ------------------------------------------------------------------------
    walls = [r.wall_s for r in untraced]
    if args.trace:
        metrics = {key: statistics.median_low(run[key] for run in layer_runs) for key in layer_runs[0]}
        metrics["trace.overhead_ratio"] = min(r.wall_s for r in traced) / min(walls)
        declared = spec["per_layer"]
    else:
        # Each run of a request is scaled from the host speed of its moment
        # to the reference speed, and each request counts the median of its
        # scaled runs.
        scaled = [[ms * calibrator.scale_at(t) for ms, t in zip(r.latencies_ms, r.started)]
                  for r in untraced]
        per_request = [statistics.median(runs) for runs in zip(*scaled)]
        raw_ms = [statistics.median(runs) for runs in zip(*(r.latencies_ms for r in untraced))]
        wall = sum(per_request) / 1e3
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "items_per_s": workload.items(state) / wall,
            "peak_rss_mb": peak_rss_mb,
            "latency_ms_p50": quantile(per_request, 0.5),
            "latency_ms_p90": quantile(per_request, 0.9),
        }
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} are not both "
                           "measured and declared in BENCHMARK.json")

    # -- record and result ---------------------------------------------------------------
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(posicat),
        "inputs": inputs,
        "setup": {"import_s": import_s, "generate_s": generate_s,
                  "calibration_s": setup_calibrator.samples},
        "untraced_pass_s": walls,
        "calibration_s": calibrator.samples,
        "traced_pass_s": [r.wall_s for r in traced],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failure_sample": failure_sample,
        "metrics": metrics,
    }
    if not args.trace:
        record["unscaled_request_ms"] = raw_ms
        record["request_ms_by_pass"] = [r.latencies_ms for r in untraced]
    if tracer is not None:
        spans_path = OUT / f"{tag}.spans.json.gz"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )

    print(
        f"perfbench: {args.workload} seed={args.seed} passes={len(untraced)} "
        f"attempted={attempted} failed={failed}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
