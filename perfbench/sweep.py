"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads esc-baseline src-classify --seeds 0-9
    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  Runs go
one at a time, untraced.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, check=True, cwd=HERE.parent,
            )
            res = json.loads(proc.stdout.splitlines()[-1])
            runs.append(res)
            print(f"{workload} seed {seed}: correct {res['correct']} failed {res['failed']}"
                  f" of {res['attempted']}, {time.monotonic() - start:.1f} s", flush=True)
        rows = {}
        for m in SPEC["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "unit": m["unit"], "values": vals}
            bound = m["bound"]
            flag = f"  bound {bound:.2f}" + (
                "  OVER" if spread > bound else "  over 1/3" if spread > bound / 3 else "")
            print(f"  {m['name']:28s} median {med:12.6g} {m['unit']:8s} "
                  f"Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:7.4f}{flag}", flush=True)
        summary[workload] = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                             "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
