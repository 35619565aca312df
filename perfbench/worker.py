"""One benchmark process: set up, then measure one workload closed-loop.

Started by run.py, which sets the BLAS thread cap before this process
imports numpy.  Prints one JSON object with the raw measurements on its last
line of output.

    python3 perfbench/worker.py --workload esc-imbalanced --seed 0 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload esc-imbalanced --seed 0 --setup-only

Set-up time runs from the start of this module, so it covers importing the
library and numpy, making the inputs, their CSV round trip and one tiny
warm-up op; it is host-adjusted by seven probes taken right after it.  The host-speed probe runs before every op and after the last
op of a pass, outside the timed section.  Every op of the first pass is
checked in full; an op of a later pass whose output is identical to a
checked one passes, and any other output is checked in full.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = HERE / "out"


_PROBE_A = np.random.default_rng(12345).standard_normal((96, 96)) / 10
_PROBE_V = _PROBE_A[:, :8].copy()


def probe() -> float:
    """Seconds of one fixed numpy + pure-Python kernel: the host-speed probe.

    It mixes what an op spends its time on: small BLAS products and an
    ``eigh``, many tiny numpy calls, and an interpreted loop.  It calls no
    library code, so a change to the library cannot move it.
    """
    t = time.perf_counter()
    b = _PROBE_A
    for _ in range(10):
        b = _PROBE_A @ b
    np.linalg.eigh(b + b.T)
    v = _PROBE_V
    for j in range(500):
        v = v - 0.01 * np.maximum(v[j % 96], 0.0)
    acc = 0
    for i in range(60_000):
        acc += i * i
    return time.perf_counter() - t


# Probe seconds on the reference host: an op's adjusted time is its wall time
# times REF_S / (the probe's time around that op).
REF_S = 0.010


def local_refs(refs: list[float], n_ops: int) -> list[float]:
    """Host speed at each op of a pass: the median of the four probes nearest it.

    ``refs[i]`` was taken just before op i and ``refs[n_ops]`` after the last.
    """
    return [statistics.median(refs[max(0, i - 1):i + 3]) for i in range(n_ops)]


def adjusted(times: list[float], refs: list[float]) -> list[float]:
    return [t * REF_S / r for t, r in zip(times, refs)]


def run_pass(cases, tr=None):
    """Run every op once, probing the host before each op and after the last.

    Returns (op seconds, probe seconds near each op, results, errors,
    warnings); ``results`` is parallel to ``cases`` and an op that raised has
    None.
    """
    times, refs, results, errors = [], [], [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, case in enumerate(cases):
            refs.append(probe())
            if tr is not None:
                tr.op, tr.case = i, case
                sid = tr.begin("op")
            res = None
            t = time.perf_counter()
            try:
                res = workloads.run_op(case)
            except Exception as exc:  # a failed op is counted, not raised
                errors.append(f"{case.name}: {type(exc).__name__}: {exc}")
            finally:
                times.append(time.perf_counter() - t)
                if tr is not None:
                    tr.end(sid)
            results.append(res)
        refs.append(probe())
    msgs = [str(w.message) for w in caught]
    counts = {
        "zero_code": sum("zero codes" in m for m in msgs),
        "isolated": sum("isolated vertices" in m for m in msgs),
    }
    return times, local_refs(refs, len(cases)), results, errors, counts


def same(a, b) -> bool:
    return a.indices == b.indices and np.array_equal(a.labels, b.labels)


def check_pass(cases, results, passed):
    """Output checks outside the timed section.

    ``passed`` maps a case index to an earlier result that passed every
    check; a result identical to it passes without being checked again, and
    a result that passes is recorded there.  Returns (failed op count,
    failure messages, (gap, kkt) per fully checked op).
    """
    failed, msgs, certs = 0, [], []
    for i, (case, res) in enumerate(zip(cases, results)):
        if res is None:
            failed += 1
            continue
        if i in passed and same(res, passed[i]):
            continue
        try:
            fails, gap, kkt = workloads.check(case, res)
        except Exception as exc:  # a check that cannot run fails its op
            fails = [f"{case.name}: check raised {type(exc).__name__}: {exc}"]
        else:
            certs.append((gap, kkt))
        if fails:
            failed += 1
            msgs += fails
        else:
            passed.setdefault(i, res)
    return failed, msgs, certs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tr = Tracer() if args.trace else None
    absent: set[str] = set()
    if tr is not None:
        layers.install_dataset(tr, absent)
    cases = workloads.make_cases(args.workload, args.seed)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cases = workloads.csv_roundtrip(cases, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if tr is not None:
        tr.unhook_all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for case in workloads.make_cases("smoke", 0):
            workloads.run_op(case)
    setup_s = time.perf_counter() - T0
    setup = {"setup_s": setup_s,
             "setup_adj": adjusted([setup_s], [statistics.median(probe() for _ in range(7))])[0]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    op_times, op_refs, msgs, failed, passes, passed = [], [], [], 0, 0, {}

    def measured_pass(traced=False):
        nonlocal failed, msgs, passes
        times, refs, results, errors, warn_counts = run_pass(cases, tr if traced else None)
        if traced:
            tr.unhook_all()
        n_bad, fails, certs = check_pass(cases, results, {} if traced else passed)
        op_times.extend(times)
        op_refs.extend(refs)
        failed += n_bad
        msgs += errors + fails
        passes += 1
        return times, results, warn_counts, certs

    _, results, _, _ = measured_pass()
    while not args.trace and sum(op_times) < args.seconds:
        measured_pass()

    per_layer = None
    if tr is not None:
        untraced_s = sum(adjusted(op_times, op_refs))
        layers.install(tr, absent)
        times, traced, warn_counts, certs = measured_pass(traced=True)
        split_acc = {}
        for case, res in zip(cases, traced):
            if case.split is not None and res is not None:
                split_acc.setdefault(case.split, []).append(workloads.accuracy(case, res))
        per_layer = layers.metrics(
            tr,
            certs=certs or [(0.0, 0.0)],
            warnings=warn_counts,
            split_acc={x: float(np.mean(v)) for x, v in split_acc.items()},
            wall_s=sum(times),
            overhead_s=sum(adjusted(times, op_refs[-len(times):])) - untraced_s,
            ref_s=statistics.median(op_refs),
        )
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")

    done = [(c, r) for c, r in zip(cases, results) if r is not None]
    print(json.dumps({
        **setup,
        "ref_s": statistics.median(op_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_times": op_times,
        "op_adj": adjusted(op_times, op_refs),
        "points": passes * sum(c.data.count for c in cases),
        "accuracy_pct": float(np.mean([workloads.accuracy(c, r) for c, r in done])) if done else 0.0,
        "attempted": passes * len(cases),
        "failed": failed,
        "failures": msgs[:10],
        "digest": workloads.digest(*zip(*done)) if done else "",
        "per_layer": per_layer,
        "per_layer_units": layers.UNITS,
        "absent": sorted(absent),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
