"""The homotopy on the benchmark's s=0 ops: its rounds, row-rounds and CPU time.

    python3 scalebench/homotopy_replay.py --side change
    python3 scalebench/homotopy_replay.py --side parent --src ../parent/src

For each workload (``esc-imbalanced`` and ``src-classify``) the script builds
the s=0 cases with ``perfbench/workloads.make_cases`` and runs
``workloads.run_op`` on every case.  Every run is a fresh process with BLAS
capped at one thread, the workloads interleaved so that a slow stretch of the
host does not hold one workload's runs.  A run makes one untimed counting
pass, which records the solver calls (``lasso._exact_solve`` calls), the
rounds (the stacked ``np.linalg.solve`` calls made inside them) and the
row-rounds (the sum of those solves' leading dimensions), and then PASSES
timed passes, which record the CPU seconds of the whole op pass and of
``_exact_solve`` alone (the median pass of each), and ``workloads.digest`` of
the results.  Counts and digest depend on the code only, not on the host.
The script imports ``perfbench`` from this checkout and the package from
``--src``, so it can measure another checkout's ``src`` directory.

The results of one side are written under ``sides[<side>]`` of the output
file (``BENCH_homotopy.json`` at the root of the repository by default); the
other sides already in that file are kept, so two runs compare two versions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("esc-imbalanced", "src-classify")
SEED = 0
RUNS = 5
PASSES = 5
BLAS_THREADS = "1"


def run_workload(name: str) -> dict:
    """One counting pass and PASSES timed passes over the workload's s=0 ops."""
    import numpy as np

    from perfbench import workloads
    from subspace_exemplars import lasso

    cases = workloads.make_cases(name, SEED)
    exact_solve, solve = lasso._exact_solve, np.linalg.solve
    counts = {"calls": 0, "rounds": 0, "row_rounds": 0}
    inside = [False]

    def counted_solve(a, b):
        if inside[0]:
            counts["rounds"] += 1
            counts["row_rounds"] += a.shape[0]
        return solve(a, b)

    def counted_exact_solve(*args):
        counts["calls"] += 1
        inside[0] = True
        try:
            return exact_solve(*args)
        finally:
            inside[0] = False

    lasso._exact_solve, np.linalg.solve = counted_exact_solve, counted_solve
    try:
        results = [workloads.run_op(case) for case in cases]
    finally:
        lasso._exact_solve, np.linalg.solve = exact_solve, solve

    spent = [0.0]

    def timed_exact_solve(*args):
        start = time.process_time()
        try:
            return exact_solve(*args)
        finally:
            spent[0] += time.process_time() - start

    op_cpu, solve_cpu = [], []
    lasso._exact_solve = timed_exact_solve
    try:
        for _ in range(PASSES):
            spent[0] = 0.0
            start = time.process_time()
            for case in cases:
                workloads.run_op(case)
            op_cpu.append(time.process_time() - start)
            solve_cpu.append(spent[0])
    finally:
        lasso._exact_solve = exact_solve
    return {**counts, "digest": workloads.digest(cases, results),
            "op_cpu_s": statistics.median(op_cpu), "solve_cpu_s": statistics.median(solve_cpu)}


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", help="name of the version measured, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the package")
    ap.add_argument("--out", default=str(ROOT / "BENCH_homotopy.json"))
    ap.add_argument("--runs", type=int, default=RUNS, help="fresh processes per workload")
    ap.add_argument("--workload", help=argparse.SUPPRESS)  # one run, in a child
    args = ap.parse_args()
    if args.workload is not None:
        print(json.dumps(run_workload(args.workload)))
        return 0
    if not args.side:
        ap.error("--side is required")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([args.src, str(ROOT)]),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    runs = {name: [] for name in WORKLOADS}
    for _ in range(args.runs):
        for name in WORKLOADS:
            out = subprocess.run([sys.executable, __file__, "--workload", name], env=env,
                                 capture_output=True, text=True, check=True)
            runs[name].append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(args.side, name, runs[name][-1], flush=True)

    cells = []
    for name, rs in runs.items():
        cells.append({
            "workload": name,
            "runs": rs,
            **{key: sorted({r[key] for r in rs}) for key in
               ("calls", "rounds", "row_rounds", "digest")},
            "op_cpu_s": spread([r["op_cpu_s"] for r in rs]),
            "solve_cpu_s": spread([r["solve_cpu_s"] for r in rs]),
        })
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update({
        "command": "python3 scalebench/homotopy_replay.py --side <side> [--src <dir>]",
        "seed": SEED,
        "runs_per_workload": args.runs,
        "passes_per_run": PASSES,
        "blas_threads": int(BLAS_THREADS),
        "host": f"{os.cpu_count()} CPUs, {sys.platform}, Python {sys.version.split()[0]}",
    })
    doc.setdefault("sides", {})[args.side] = cells
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
