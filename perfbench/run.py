"""Benchmark of rthdg: paper-scale local solves, thick-cloud global solves, element learning.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper|thick|learn --seed N --seconds S --trace 0|1

One workload runs in this single process with BLAS and OpenMP pinned to one
thread. It makes its inputs from the seed, repeats rounds of its operations
for about S seconds (whole rounds only), checks the outputs, writes a record
with its context to perfbench/out/ and prints, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every round after the first is
traced and the run reports the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("paper", "thick", "learn"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def os_threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def context(args, session):
    import numpy
    import scipy
    from probe import missing_targets
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = {}
    wl = session.wl
    return {
        "git_sha": git_sha(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python_threads": threading.active_count(),
        "os_threads": os_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": wl.name,
        "seeds": {"seed": args.seed, "surrogate_init": session.train_seed,
                  "labels": session.label_seed,
                  "anchored_model": None if wl.trains_el_model else args.seed},
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_missing": missing_targets(),
    }


def run(args):
    import layers
    import workloads
    from probe import span_cost_s

    session = workloads.Session(workloads.WORKLOADS[args.workload], args.seed)
    t_start = time.perf_counter()
    index = 0
    while True:
        session.run_round(traced=bool(args.trace) and index > 0, check=index == 0)
        index += 1
        elapsed = time.perf_counter() - t_start
        # at least two rounds (the first runs the checks and starts cold); then stop
        # once the next round would end more than half a round after --seconds
        if index >= 2 and elapsed * (1 + 0.5 / index) >= args.seconds:
            break
    window = time.perf_counter() - t_start
    session.final_checks()

    traced_spans = [r.spans for r in session.rounds if r.traced]
    if args.trace:
        metrics = layers.layer_metrics(traced_spans, span_cost_s(), session.last_el_model)
    else:
        metrics = session.end_to_end()
    result = {"correct": session.checker.all_ok, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"context": context(args, session), "window_s": window,
              "rounds": [{"traced": r.traced, "times": r.times, "iters": r.iters}
                         for r in session.rounds],
              "checks": session.checker.records, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(traced_spans))
    return result


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # numpy is imported only after this
        os.environ[var] = "1"
    if not (ROOT / "src" / "rthdg" / "__init__.py").is_file():
        print(f"perfbench: no rthdg sources at {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
