"""The fresh-process protocol that both scalebench ladders run through.

A ladder script defines its cells, one function that measures a cell in the
running process, and a summary of each field that function returns; it
builds its flags with ``parser`` and hands them to ``run``.  ``run`` then
measures every cell ``runs`` times, each time in a fresh process with BLAS
capped at one thread, the cells interleaved so that a slow stretch of the
host does not hold one cell's runs.  The parent process imports neither the
package nor ``perfbench``.  A child's path is ``--src`` and then the root of
this checkout, which holds ``perfbench`` but no copy of the package, so
``--src`` can point a ladder at the ``src`` directory of another checkout.

The results of one side are written under ``sides[<side>]`` of the output
file, next to the ladder's metadata, the host and the BLAS thread cap; the
other sides already in that file are kept, so two runs compare two versions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


def spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def distinct(values: list) -> list:
    return sorted(set(values))


def parser(doc: str, out: str, runs: int) -> argparse.ArgumentParser:
    """The flags every ladder takes; ``out`` is its file at the root of the repository.

    ``runs`` is the number of fresh processes per cell, the default of a
    ``--runs`` flag that a ladder may add.
    """
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.set_defaults(runs=runs)
    ap.add_argument("--side", help="name of the version measured, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the package")
    ap.add_argument("--out", default=str(ROOT / out))
    ap.add_argument("--cell", help=argparse.SUPPRESS)  # one run, in a child
    return ap


def run(ap, script, key, cells, measure, summaries, meta) -> int:
    """Parse ap's flags, then measure one cell (a child) or run the ladder (the parent).

    Each cell runs ``args.runs`` times.  A cell record holds ``key`` = the
    cell, its runs and ``summaries[field]`` of each field over them;
    ``meta(runs)`` gives the ladder's metadata.
    """
    args = ap.parse_args()
    if args.cell is not None:
        print(json.dumps(measure({str(cell): cell for cell in cells}[args.cell])))
        return 0
    if not args.side:
        ap.error("--side is required")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([args.src, str(ROOT)]),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    runs = {cell: [] for cell in cells}
    for _ in range(args.runs):
        for cell in cells:
            out = subprocess.run([sys.executable, script, "--cell", str(cell)], env=env,
                                 capture_output=True, text=True, check=True)
            runs[cell].append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(args.side, cell, runs[cell][-1], flush=True)

    records = [{key: cell, "runs": rs, **{field: summary([r[field] for r in rs])
                                          for field, summary in summaries.items()}}
               for cell, rs in runs.items()]
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(meta(args.runs), blas_threads=int(BLAS_THREADS),
               host=f"{os.cpu_count()} CPUs, {sys.platform}, Python {sys.version.split()[0]}")
    doc.setdefault("sides", {})[args.side] = records
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0
