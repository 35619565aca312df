"""Pipeline benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload esc-imbalanced --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  With ``--trace 0`` the last line of output is a JSON
object with every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
carries the per-layer metrics of a traced pass instead.  The lines above it
give the same numbers as a table, the sample count of the op percentiles,
the BLAS thread cap, the host-speed probe, the unadjusted wall-time figures
and a digest of the outputs.

The timing metrics are host-adjusted (worker.REF_S): each op's wall time is
scaled by the probe time of a reference host over that of a fixed probe
kernel taken around the op, and each set-up time likewise by probes taken
right after it.  The host's speed drifts by 1.5x over tens of
seconds; the probe follows the drift and the adjusted times keep only what
the program changes.  The probe calls no library code.

The load is closed-loop: one caller in one process, each op starting when
the previous one has finished.  The workload runs in a child process
(worker.py) so that the BLAS thread cap is in place before numpy loads and
peak memory is that of the workload alone.  BLAS runs one thread: with two
threads on two shared cores every BLAS call waits for the slower core, and
op times follow the probe less closely.  Set-up time is measured in
SETUP_REPS fresh processes, half of them before the measuring worker and
half after it, so that one slow stretch of the host does not hold them all;
their median is reported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_REPS = 5  # the measuring worker counts as one
TIMEOUT_S = 170  # every run must end within 180 s
BLAS_THREADS = "1"

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "adj_points_per_s": "points/s",
    "adj_op_p50_s": "s",
    "adj_op_p80_s": "s",
    "accuracy_pct": "%",
    "ok_pct": "%",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); its last line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=deadline - time.monotonic(),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p80(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[7]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "subspace_exemplars" / "__init__.py").is_file():
        print(f"error: no library under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    threads = BLAS_THREADS
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + TIMEOUT_S
    extra = 0 if args.trace else SETUP_REPS - 1
    setups = [worker([*common, "--setup-only"], env, deadline) for _ in range(extra // 2)]
    res = worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                 env, deadline)
    setups.append(res)
    setups += [worker([*common, "--setup-only"], env, deadline)
               for _ in range(extra - extra // 2)]

    times = res["op_times"]
    adj = res["op_adj"]
    if args.trace:
        units = res["per_layer_units"]
        values = res["per_layer"]
    else:
        units = END_TO_END
        values = {
            "adj_points_per_s": res["points"] / sum(adj),
            "adj_op_p50_s": statistics.median(adj),
            "adj_op_p80_s": p80(adj),
            "accuracy_pct": res["accuracy_pct"],
            "ok_pct": 100.0 * (1 - res["failed"] / res["attempted"]),
            "setup_s": statistics.median(r["setup_adj"] for r in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller  BLAS threads {threads}  host.ref_s {res['ref_s']:.4f} s")
    for name, unit in units.items():
        note = " (absent)" if name in res["absent"] else ""
        print(f"  {name:28s} {values[name]:14.6g} {unit}{note}")
    beyond = sum(t > p80(adj) for t in adj)
    print(f"  op samples {len(times)} ({beyond} beyond p80), "
          f"setup samples {len(setups)}, failed {res['failed']} of {res['attempted']} ops")
    print(f"  unadjusted: {res['points'] / sum(times):.6g} points/s, "
          f"op p50 {statistics.median(times):.6g} s, op p80 {p80(times):.6g} s, "
          f"setup {statistics.median(r['setup_s'] for r in setups):.6g} s")
    for msg in res["failures"]:
        print(f"  FAIL {msg}")
    deterministic = {
        "digest": res["digest"],
        "accuracy_pct": res["accuracy_pct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        **{n: values[n] for n, u in units.items() if u in ("count", "%", "ratio", "value")},
    }
    print("deterministic " + json.dumps(deterministic, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
