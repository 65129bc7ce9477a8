"""candlegate benchmark: one process, one thread, seeded inputs, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload backtest_10k --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each layer's
public functions and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Inputs, outputs, a results file and (traced) a span log go to bench/out/.
See bench/LAYERS.md for what each metric means.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()

# One thread everywhere: pin BLAS and OpenMP pools before numpy is imported.
PINNED = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("backtest_10k", "llm_loop_10k", "live_100k")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the package and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import candlegate"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return time.perf_counter() - start


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_pinning": PINNED,
    }


def measure_untraced(workload, seconds: float, checks) -> tuple[dict, dict]:
    import_s = median(time_import() for _ in range(IMPORT_REPEATS))
    setup_s = [timed(workload.setup)[0] for _ in range(SETUP_REPEATS)]
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        elapsed, output = timed(workload.job)
        passes.append(elapsed)
        workload.after_pass(output, checks)
    # Before the checks, whose own allocations are not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.verify(checks)

    job_s = median(passes)
    if workload.latencies is not None:
        per_decision_ms = np.asarray(workload.latencies) * 1e3
    else:
        per_decision_ms = np.asarray(passes) * 1e3 / workload.origins
    values = {
        "setup_s": import_s + median(setup_s),
        "job_s": job_s,
        "origins_per_s": workload.origins / job_s,
        "decide_p50_ms": float(np.percentile(per_decision_ms, 50)),
        "decide_p99_ms": float(np.percentile(per_decision_ms, 99)),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "import_s": import_s,
        "setup_body_s": setup_s,
        "pass_s": passes,
        "decide_samples": int(per_decision_ms.size),
        "decide_samples_are": (
            "single decisions" if workload.latencies is not None else "job passes, ms per origin"
        ),
    }
    return values, extra


def measure_traced(workload, seconds: float, checks, out: Path) -> tuple[dict, dict]:
    """One traced set-up, then untraced and traced job passes in turn, so both
    medians come from the same stretch of time."""
    import layers
    from tracer import Tracer

    tracer = Tracer()

    def traced(fn):
        layers.install(tracer)
        try:
            elapsed, result = timed(fn)
        finally:
            tracer.uninstall()
        phase, spans = tracer.take(elapsed)
        return phase, spans, result

    setup_phase, span_log, _ = traced(workload.setup)
    untraced, phases = [], []
    deadline = time.perf_counter() + seconds
    while len(phases) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        if len(untraced) <= len(phases):
            elapsed, output = timed(workload.job)
            untraced.append(elapsed)
        else:
            phase, spans, output = traced(workload.job)
            if not phases:
                span_log = span_log + spans
            phases.append(phase)
        workload.after_pass(output, checks)
    workload.verify(checks)

    spans_path = out / "spans.csv"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(span_log):
            fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
    extra = {
        "setup_spans": layers.span_summary(setup_phase),
        "job_spans_first_traced_pass": layers.span_summary(phases[0]),
        "traced_pass_s": [p.duration for p in phases],
        "untraced_pass_s": untraced,
        "span_log": str(spans_path.relative_to(ROOT)),
    }
    return layers.per_layer_metrics(setup_phase, phases, untraced), extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "candlegate" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"error: {ROOT} is not a candlegate checkout (needs src/candlegate and "
              "tests/oracles.py)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import candlegate

    if Path(candlegate.__file__).resolve().parent != (SRC / "candlegate").resolve():
        print(f"error: imported candlegate from {candlegate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks as ck
    from workloads import WORKLOADS

    out = ROOT / "bench" / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](out, args.seed, ck.load_oracles(ROOT))
    checks = ck.Checks()
    if args.trace:
        values, extra = measure_traced(workload, args.seconds, checks, out)
        listed = spec["per_layer"]
    else:
        values, extra = measure_untraced(workload, args.seconds, checks)
        listed = spec["end_to_end"]

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {
            name: {"bytes": path.stat().st_size, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for name, path in workload.files.items()
        },
        "candles": len(workload.market),
        "origins_per_pass": workload.origins,
        "environment": environment(),
        "failed_share": checks.failed / checks.attempted,
        "failure_messages": checks.messages,
        "planted_failures_detected": workload.planted_failures,
        "wall_s": time.perf_counter() - T0,
        **extra,
        **result,
    }
    results_path = ROOT / "bench" / "out" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(exist_ok=True)
    results_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for message in checks.messages:
        print(f"check failed: {message}")
    print(f"{args.workload} seed {args.seed}: {checks.attempted} checks, {checks.failed} failed; "
          f"results in {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
