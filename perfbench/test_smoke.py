"""Smoke test of the benchmark itself on tiny inputs.

Runs the smoke workload twice untraced and once traced: the output digest
must repeat, the run must pass its own output checks, and every metric that
BENCHMARK.json names must be printed with its unit, and no other.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    det = next(ln for ln in lines if ln.startswith("deterministic "))
    return json.loads(det.split(" ", 1)[1]), json.loads(lines[-1])


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_smoke_runs_are_deterministic_and_complete():
    det1, res1 = _run(0)
    det2, res2 = _run(0)
    assert det1["digest"] == det2["digest"]
    assert det1["accuracy_pct"] == det2["accuracy_pct"]
    _assert_metrics(res1, SPEC["end_to_end"])
    _assert_metrics(res2, SPEC["end_to_end"])

    det_t, res_t = _run(1)
    assert det_t["digest"] == det1["digest"]
    _assert_metrics(res_t, SPEC["per_layer"])
    assert det_t["ffs.evals"] > 0 and det_t["lasso.solver_calls"] > 0
