"""Lazy FFS on noisy data: targets priced and time of one ffs_lazy call.

    python3 scalebench/ffs_ladder.py --side change
    python3 scalebench/ffs_ladder.py --side parent --src ../parent/src

Each cell is N=6000 points on five 4-dim subspaces of R^20 (data seed 0)
with noise sigma in {0, 0.01, 0.05}, selected by ``ffs_lazy`` at lam=100,
k=30 and selection seed 1.  Every cell runs RUNS times through
``harness.run``, each in a fresh process with BLAS capped at one thread.  A
run records the selection's ``total_evals`` (the targets priced; this data
has no points equal up to sign, so each one is a solve), the CPU and wall
seconds of the call and a digest of the picks.  The script calls only public
names of the package.  Its results go under ``sides[<side>]`` of
``BENCH_ffs.json`` at the root of the repository by default.
"""

import hashlib
import json
import sys
import time

import harness

SIGMAS = (0.0, 0.01, 0.05)
RUNS = 3
CONFIG = {"N": 6000, "D": 20, "subspace_dims": [4] * 5, "data_seed": 0, "lam": 100.0,
          "k": 30, "selection_seed": 1}


def run_cell(sigma: float) -> dict:
    """One ffs_lazy call on the cell's data (in this process)."""
    import subspace_exemplars as sx

    n = CONFIG["N"] // len(CONFIG["subspace_dims"])
    spec = sx.SubspaceSpec(CONFIG["D"], tuple(CONFIG["subspace_dims"]),
                           (n,) * len(CONFIG["subspace_dims"]), sigma, CONFIG["data_seed"])
    data = sx.synth_union_of_subspaces(spec)
    cpu, wall = time.process_time(), time.perf_counter()
    ex = sx.ffs_lazy(data, CONFIG["lam"], CONFIG["k"], seed=CONFIG["selection_seed"])
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    picks = hashlib.sha256(json.dumps(list(ex.indices)).encode()).hexdigest()[:16]
    return {"evals": ex.total_evals, "cpu_s": cpu, "wall_s": wall, "picks": picks}


SUMMARIES = {"evals": harness.spread, "cpu_s": harness.spread, "wall_s": harness.spread,
             "picks": harness.distinct}


def main() -> int:
    ap = harness.parser(__doc__, "BENCH_ffs.json", RUNS)
    return harness.run(ap, __file__, "sigma", SIGMAS, run_cell, SUMMARIES, lambda runs: {
        "command": "python3 scalebench/ffs_ladder.py --side <side> [--src <dir>]",
        "config": CONFIG,
        "runs_per_cell": runs,
    })


if __name__ == "__main__":
    sys.exit(main())
