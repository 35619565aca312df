"""The homotopy on the benchmark's s=0 ops: its rounds, row-rounds and CPU time.

    python3 scalebench/homotopy_replay.py --side change
    python3 scalebench/homotopy_replay.py --side parent --src ../parent/src

For each workload (``esc-imbalanced`` and ``src-classify``) the script builds
the s=0 cases with ``perfbench/workloads.make_cases`` and runs
``workloads.run_op`` on every case.  Every workload runs ``--runs`` times
through ``harness.run``, each in a fresh process with BLAS capped at one
thread.  A run makes one untimed counting pass, which records the solver
calls (``lasso._exact_solve`` calls), the rounds (the stacked
``np.linalg.solve`` calls made inside them) and the row-rounds (the sum of
those solves' leading dimensions), and then PASSES timed passes, which
record the CPU seconds of the whole op pass and of ``_exact_solve`` alone
(the median pass of each), and ``workloads.digest`` of the results.  Counts
and digest depend on the code only, not on the host.  The children import
``perfbench`` from this checkout and the package from ``--src``.  The
results go under ``sides[<side>]`` of ``BENCH_homotopy.json`` at the root of
the repository by default.
"""

import statistics
import sys
import time

import harness

WORKLOADS = ("esc-imbalanced", "src-classify")
SEED = 0
RUNS = 5
PASSES = 5


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


SUMMARIES = {"calls": harness.distinct, "rounds": harness.distinct,
             "row_rounds": harness.distinct, "digest": harness.distinct,
             "op_cpu_s": harness.spread, "solve_cpu_s": harness.spread}


def main() -> int:
    ap = harness.parser(__doc__, "BENCH_homotopy.json", RUNS)
    ap.add_argument("--runs", type=int, help="fresh processes per workload")
    return harness.run(ap, __file__, "workload", WORKLOADS, run_workload, SUMMARIES, lambda runs: {
        "command": "python3 scalebench/homotopy_replay.py --side <side> [--src <dir>]",
        "seed": SEED,
        "runs_per_workload": runs,
        "passes_per_run": PASSES,
    })


if __name__ == "__main__":
    sys.exit(main())
