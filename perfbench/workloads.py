"""Benchmark workloads: inputs made from a seed, the timed op, output checks.

Every op calls the library through a module attribute (``cluster.esc_pipeline``,
``ffs.ffs_lazy``, ...), the same names the tracer wraps, so traced and
untraced runs execute identical library code.  Why each workload exists is
recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from subspace_exemplars import classify, cluster, dataset, ffs, lasso, metrics

TOL = lasso.DEFAULT_TOL
CERT_SAMPLE = 16  # codes per op whose certificates are recomputed


@dataclass
class Case:
    """One op's input: a dataset and the parameters of its task."""

    name: str
    kind: str  # "esc" (esc_pipeline) or "src" (ffs_lazy + src_classify)
    data: dataset.DataMatrix
    lam: float
    k: int
    n_clusters: int
    seed: int
    t: int = 0
    split: int | None = None  # minority size x of an x/(100-x) split
    naive_check: bool = False  # check ffs_lazy against ffs_naive (cheap only at small N)


@dataclass
class Result:
    """What an op returned: exemplar indices, labels, and codes when exposed."""

    indices: tuple[int, ...]
    labels: np.ndarray
    codes: list | None = None


def _synth(D, dims, counts, seed, coefficients="sphere"):
    spec = dataset.SubspaceSpec(D, dims, counts, 0.0, seed, coefficients=coefficients)
    return dataset.synth_union_of_subspaces(spec)


def _esc_baseline(s):
    data = _synth(20, (4,) * 5, (300,) * 5, s)
    return [Case(f"seed{s}", "esc", data, 100.0, 30, 5, s, t=5)]


def _esc_large(s):
    data = _synth(8, (3, 3), (2500, 2500), s)
    return [Case(f"seed{s}", "esc", data, 20.0, 8, 2, s, t=5)]


def _shuffled(cases, s):
    """The cases in an order drawn from s."""
    return [cases[i] for i in np.random.default_rng(s).permutation(len(cases))]


def _esc_imbalanced(s):
    # acceptance criterion 6: its sizes, lam, k, t and seeds; every s runs the
    # same fifty datasets, so the work does not depend on s
    cases = []
    for x in (10, 20, 30, 40, 50):
        for seed in range(10):
            data = _synth(5, (3, 3), (x, 100 - x), seed, "nonneg")
            cases.append(Case(f"x{x}/seed{seed}", "esc", data, 30.0, 10, 2, seed, t=3,
                              split=x, naive_check=True))
    return _shuffled(cases, s)


def _src_classify(s):
    # thirty fixed datasets: at lam=1e4 the solver work on one dataset moves
    # by up to 3x with its data and selection seeds, so every s runs the same
    # thirty and the work does not depend on s; many short ops rather than a
    # few long ones, so that a run's median holds many samples; k=12 is one
    # exemplar per subspace dimension, as in criterion 7
    cases = []
    for seed in range(30):
        data = _synth(12, (4,) * 3, (20,) * 3, seed)
        cases.append(Case(f"seed{seed}", "src", data, 1e4, 12, 3, seed))
    return _shuffled(cases, s)


def _smoke(s):
    # tiny inputs of both op kinds: the warm-up op and the benchmark's own test
    esc = _synth(6, (2, 2), (20, 20), s)
    src = _synth(6, (2, 2), (15, 15), s + 1)
    return [
        Case(f"esc/seed{s}", "esc", esc, 30.0, 6, 2, s, t=3),
        Case(f"src/seed{s + 1}", "src", src, 1e4, 4, 2, s + 1),
    ]


# BENCHMARK.json lists esc-imbalanced and src-classify; esc-baseline and
# esc-large (one long op each) are run by hand for traced layer splits
WORKLOADS = {
    "esc-baseline": _esc_baseline,
    "esc-large": _esc_large,
    "esc-imbalanced": _esc_imbalanced,
    "src-classify": _src_classify,
    "smoke": _smoke,
}


def make_cases(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](seed)


def csv_roundtrip(cases: list[Case], tmpdir) -> list[Case]:
    """Pass every dataset through save_csv/load_csv; the copy must be exact."""
    out = []
    for i, case in enumerate(cases):
        path = tmpdir / f"case{i}.csv"
        dataset.save_csv(case.data, path, with_labels=True)
        back = dataset.load_csv(path, with_labels=True)
        path.unlink()
        if not (np.array_equal(back.points, case.data.points)
                and np.array_equal(back.labels, case.data.labels)):
            raise ValueError(f"{case.name}: CSV round trip changed the data")
        out.append(replace(case, data=back))
    return out


def run_op(case: Case) -> Result:
    """The timed unit of work: one clustering or one classification."""
    if case.kind == "esc":
        part, ex, codes = cluster.esc_pipeline(
            case.data, case.lam, case.k, case.t, case.n_clusters, seed=case.seed,
            return_details=True,
        )
        return Result(ex.indices, part.labels, codes)
    ex = ffs.ffs_lazy(case.data, case.lam, case.k, seed=case.seed)
    labeled = classify.LabeledExemplars.from_data(ex, case.data)
    part = classify.src_classify(case.data, labeled, case.lam)
    return Result(ex.indices, part.labels)


def check(case: Case, res: Result) -> tuple[list[str], float, float]:
    """Output checks of one op; returns (failures, max gap, max KKT violation).

    Recomputes the public duality gap and KKT violation of a fixed sample of
    codes, each with its residual x - A c recomputed from its coefficients;
    classification does not return its codes, so they are solved again for
    the sample (codes are per-target independent of the batch).
    """
    fails = []
    X = case.data.points
    N = case.data.count
    labels = np.asarray(res.labels)
    if labels.shape != (N,):
        fails.append(f"labels have shape {labels.shape}, expected ({N},)")
    elif labels.min() < 0 or labels.max() >= case.n_clusters:
        fails.append(f"labels outside [0, {case.n_clusters})")

    A = X[:, list(res.indices)]
    sample = np.unique(np.linspace(0, N - 1, min(N, CERT_SAMPLE)).astype(int))
    if res.codes is not None:
        codes = [res.codes[j] for j in sample]
    else:
        codes = lasso.solve_lasso_batch(A, X[:, sample], case.lam)
    # the certificates take the residual as given; recompute it so that they
    # certify the coefficients themselves
    codes = [lasso.SparseCode(c.coeffs, X[:, j] - A @ c.coeffs, c.objective)
             for j, c in zip(sample, codes)]
    gap = max(lasso.duality_gap(A, X[:, j], case.lam, c) for j, c in zip(sample, codes))
    kkt = max(lasso.kkt_violation(A, X[:, j], case.lam, c) for j, c in zip(sample, codes))
    if not gap <= TOL:
        fails.append(f"duality gap {gap:.3e} > tol {TOL:g}")
    if not kkt <= TOL:
        fails.append(f"KKT violation {kkt:.3e} > tol {TOL:g}")

    if case.naive_check:
        ref = ffs.ffs_naive(case.data, case.lam, case.k, first_index=res.indices[0])
        if ref.indices != tuple(res.indices):
            fails.append("ffs_lazy indices differ from ffs_naive")
    return [f"{case.name}: {f}" for f in fails], gap, kkt


def accuracy(case: Case, res: Result) -> float:
    return float(metrics.clustering_accuracy(case.data.labels, res.labels))


def digest(cases: list[Case], results: list[Result]) -> str:
    """Hash of every op's exemplar indices and labels, in case order."""
    h = hashlib.sha256()
    for case, res in zip(cases, results):
        h.update(case.name.encode())
        h.update(np.asarray(res.indices, dtype=np.int64).tobytes())
        h.update(np.asarray(res.labels, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]
