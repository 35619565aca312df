"""Lazy FFS on noisy data: targets priced and time of one ffs_lazy call.

    python3 scalebench/ffs_ladder.py --side change
    python3 scalebench/ffs_ladder.py --side parent --src ../parent/src

Each cell is N=6000 points on five 4-dim subspaces of R^20 (data seed 0)
with noise sigma in {0, 0.01, 0.05}, selected by ``ffs_lazy`` at lam=100,
k=30 and selection seed 1.  Every cell runs RUNS times, each in a fresh
process with BLAS capped at one thread, the cells interleaved so that a slow
stretch of the host does not hold one cell's runs.  A run records the
selection's ``total_evals`` (the targets priced; this data has no points
equal up to sign, so each one is a solve), the CPU and wall seconds of the
call and a digest of the picks.  The script calls only public names, so
``--src`` can point it at the ``src`` directory of another checkout.

The results of one side are written under ``sides[<side>]`` of the output
file (``BENCH_ffs.json`` at the root of the repository by default); the
other sides already in that file are kept, so two runs compare two versions.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIGMAS = (0.0, 0.01, 0.05)
RUNS = 3
BLAS_THREADS = "1"
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


def spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", help="name of the version measured, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the package")
    ap.add_argument("--out", default=str(ROOT / "BENCH_ffs.json"))
    ap.add_argument("--cell", type=float, help=argparse.SUPPRESS)  # one run, in a child
    args = ap.parse_args()
    if args.cell is not None:
        print(json.dumps(run_cell(args.cell)))
        return 0
    if not args.side:
        ap.error("--side is required")

    env = dict(os.environ, PYTHONPATH=args.src, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    runs = {sigma: [] for sigma in SIGMAS}
    for _ in range(RUNS):
        for sigma in SIGMAS:
            out = subprocess.run([sys.executable, __file__, "--cell", repr(sigma)], env=env,
                                 capture_output=True, text=True, check=True)
            runs[sigma].append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(args.side, sigma, runs[sigma][-1], flush=True)

    cells = []
    for sigma, rs in runs.items():
        cells.append({
            "sigma": sigma,
            "runs": rs,
            "evals": spread([r["evals"] for r in rs]),
            "cpu_s": spread([r["cpu_s"] for r in rs]),
            "wall_s": spread([r["wall_s"] for r in rs]),
            "picks": sorted({r["picks"] for r in rs}),
        })
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update({
        "command": "python3 scalebench/ffs_ladder.py --side <side> [--src <dir>]",
        "config": CONFIG,
        "runs_per_cell": RUNS,
        "blas_threads": int(BLAS_THREADS),
        "host": f"{os.cpu_count()} CPUs, {sys.platform}, Python {sys.version.split()[0]}",
    })
    doc.setdefault("sides", {})[args.side] = cells
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
