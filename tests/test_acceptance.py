"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria and tolerances are fixed here, not calibrated: cost range and
attainment (1), monotonicity (2), the regularizer threshold (3), exact
equivalence and speedup of the lazy search (4), selection/coding guarantees
on independent subspaces (5), the imbalanced two-subspace benchmark (6),
classification correctness (7), the worst-case-cost geometry chain (8),
matching-based metrics vs brute force (9), and solver certificates (10).
"""

import itertools
import math
import time

import numpy as np
import pytest

import subspace_exemplars as sx
from subspace_exemplars.lasso import _as_points


def _report(num: int, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}{tail}")


def _unit(rng, d, n):
    a = rng.standard_normal((d, n))
    return a / np.linalg.norm(a, axis=0)


def _kkt_violation(dictionary, target, lam, code) -> float:
    # independent recomputation of the subgradient conditions
    a = _as_points(dictionary)
    e = np.asarray(target, float) - a @ code.coeffs
    corr = a.T @ e
    alpha = 1.0 / lam
    worst = 0.0
    for i in range(a.shape[1]):
        if code.coeffs[i] == 0.0:
            worst = max(worst, abs(corr[i]) - alpha)
        else:
            worst = max(worst, abs(corr[i] - math.copysign(alpha, code.coeffs[i])))
    return worst


def test_criterion_1_cost_range_and_attainment():
    start = time.time()
    rng = np.random.default_rng(101)
    lams = [10.0, 100.0, 1e4]
    checked = 0
    ok = True
    while checked < 200:
        d = int(rng.integers(4, 9))
        n = int(rng.integers(8, 16))
        pts = _unit(rng, d, n)
        mode = checked % 4
        if mode == 2:
            pts[:, n - 1] = -pts[:, 0]  # plant an antipodal pair
        data = sx.DataMatrix(pts)
        lam = lams[checked % 3]
        floor = 1.0 - 0.5 / lam
        j = int(rng.integers(n))
        if mode == 0:
            subset = []
            val = sx.f_cost(data.points[:, j], subset, data, lam)
            ok &= val == lam / 2
        elif mode == 1:
            subset = sorted(set([j] + list(rng.choice(n, 3, replace=False))))
            val = sx.f_cost(data.points[:, j], subset, data, lam)
            ok &= abs(val - floor) <= 1e-6
        elif mode == 2:
            j = 0
            subset = [n - 1, int(rng.integers(1, n - 1))]  # contains -x_j
            val = sx.f_cost(data.points[:, j], subset, data, lam)
            ok &= abs(val - floor) <= 1e-6
        else:
            subset = [int(i) for i in rng.choice(n, 3, replace=False) if i != j]
            val = sx.f_cost(data.points[:, j], subset, data, lam)
            ok &= val > floor + 1e-6
        ok &= floor - 1e-6 <= val <= lam / 2 + 1e-6
        checked += 1
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    _report(1, ok, f"200 triples in {elapsed:.1f}s")
    assert ok


def test_criterion_2_monotonicity():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(50):
        d = int(rng.integers(4, 9))
        n = int(rng.integers(10, 24))
        data = sx.DataMatrix(_unit(rng, d, n))
        lam = float(rng.choice([10.0, 100.0]))
        sizes = sorted(rng.choice(np.arange(1, n), 3, replace=False))
        perm = rng.permutation(n)
        chain = [sorted(int(i) for i in perm[:s]) for s in sizes]
        reports = [sx.F_cost(s, data, lam) for s in chain]
        for small, big in zip(reports, reports[1:]):
            ok &= bool(np.all(small.per_point >= big.per_point - 1e-6))
            ok &= small.sup_value >= big.sup_value - 1e-6
    _report(2, ok, "50 nested-subset instances")
    assert ok


def test_criterion_3_lambda_threshold():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(20):
        d = int(rng.integers(5, 10))
        n = int(rng.integers(8, 16))
        data = sx.DataMatrix(_unit(rng, d, n))
        thr = sx.lambda_threshold(data)
        if not thr > 1:
            continue
        lam = 1.0 + 0.9 * (thr - 1.0)
        subset = sorted(int(i) for i in rng.choice(n, int(rng.integers(1, 5)), replace=False))
        for j in range(n):
            if j in subset:
                continue
            val = sx.f_cost(data.points[:, j], subset, data, lam)
            ok &= abs(val - lam / 2) <= 1e-9
    _report(3, ok, "20 datasets, lam strictly below threshold")
    assert ok


def test_criterion_4_lazy_equals_naive():
    rng = np.random.default_rng(104)
    identical = 0
    strictly_fewer = 0
    for _ in range(50):
        d = int(rng.integers(4, 13))
        n = int(rng.integers(30, 161))
        k = int(rng.integers(2, 21))
        lam = float(rng.choice([10.0, 100.0, 1e4]))
        data = sx.DataMatrix(_unit(rng, d, n))
        seed = int(rng.integers(10_000))
        naive = sx.ffs_naive(data, lam, k, seed=seed)
        lazy = sx.ffs_lazy(data, lam, k, seed=seed)
        identical += naive.indices == lazy.indices
        strictly_fewer += lazy.total_evals < k * n
    ok = identical == 50 and strictly_fewer >= 45
    _report(4, ok, f"identical {identical}/50, lazy < kN in {strictly_fewer}/50")
    assert ok


def _theorem_instances():
    rng = np.random.default_rng(105)
    for _ in range(20):
        n_sub = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(1, 6, size=n_sub))
        counts = [int(rng.integers(d + 2, 5 * d + 10)) for d in dims]
        counts[int(rng.integers(n_sub))] *= 3  # force imbalance
        ambient = sum(dims) + int(rng.integers(2, 7))
        seed = int(rng.integers(100_000))
        spec = sx.SubspaceSpec(ambient, dims, tuple(counts), 0.0, seed)
        yield spec, seed


def test_criterion_5_selection_covers_subspaces():
    # selection runs at lam = 1e4 as stated; the coding guarantees are
    # lam = infinity statements, so the codes over the selected set are the
    # exact equality-constrained L1 solutions
    ok = True
    worst_resid = 0.0
    worst_rate = 1.0
    for spec, seed in _theorem_instances():
        data = sx.synth_union_of_subspaces(spec)
        k = sum(spec.subspace_dims)
        chosen = sx.ffs_lazy(data, 1e4, k, seed=seed)
        for c, d in enumerate(spec.subspace_dims):
            block = data.points[:, [i for i in chosen.indices if data.labels[i] == c]]
            ok &= block.shape[1] > 0 and np.linalg.matrix_rank(block, tol=1e-8) == d
        dictionary = data.points[:, list(chosen.indices)]
        coeffs = []
        resid = 0.0
        for j in range(data.count):
            value, c = sx.l1_min_exact(dictionary, data.points[:, j])
            ok &= math.isfinite(value) and c is not None
            coeffs.append(np.where(np.abs(c) < 1e-9, 0.0, c))
            resid = max(resid, float(np.linalg.norm(
                data.points[:, j] - dictionary @ c)))
        rate = sx.subspace_preserving_rate(
            np.column_stack(coeffs), data.labels[list(chosen.indices)], data.labels
        )
        worst_rate = min(worst_rate, rate)
        worst_resid = max(worst_resid, resid)
        ok &= rate >= 1 - 1e-6 and resid <= 1e-4
    _report(5, ok, f"worst rate deficit {1 - worst_rate:.2e}, worst residual {worst_resid:.2e}")
    assert ok


def test_criterion_6_imbalanced_two_subspace_benchmark():
    means = {}
    for x in (10, 20, 30, 40, 50):
        vals = []
        for seed in range(10):
            spec = sx.SubspaceSpec(5, (3, 3), (x, 100 - x), 0.0, seed,
                                   coefficients="nonneg")
            data = sx.synth_union_of_subspaces(spec)
            part = sx.esc_pipeline(data, 30.0, 10, 3, 2, seed=seed)
            vals.append(sx.clustering_accuracy(data.labels, part.labels))
        means[x] = float(np.mean(vals))
    ok = all(m >= 99.0 for m in means.values())
    detail = ", ".join(f"x={x}: {m:.1f}" for x, m in means.items())
    _report(6, ok, f"mean accuracy by split: {detail}")
    assert ok, f"mean accuracy below 99 at some split: {detail}"


def test_criterion_7_classification_correctness():
    ok = True
    for spec, seed in _theorem_instances():
        data = sx.synth_union_of_subspaces(spec)
        k = sum(spec.subspace_dims)
        chosen = sx.ffs_lazy(data, 1e4, k, seed=seed)
        labeled = sx.LabeledExemplars.from_data(chosen, data)
        out = sx.src_classify(data, labeled, 1e4)
        rest = [j for j in range(data.count) if j not in chosen.indices]
        ok &= bool(np.all(out.labels[rest] == data.labels[rest]))
    _report(7, ok, "100% of non-exemplar points on 20 instances")
    assert ok


def test_criterion_8_geometry_chain():
    rng = np.random.default_rng(108)
    res = 1e-3
    worst_chain = 0.0
    done = 0
    while done < 20:
        m = int(rng.integers(2, 9))
        ang = rng.uniform(0.0, math.pi, m)
        pts = np.vstack([np.cos(ang), np.sin(ang)])
        # a thin hull makes 1/cos(gamma) arbitrarily ill-conditioned, so the
        # grid tolerance is only meaningful on covering radii bounded away
        # from a right angle
        if sx.covering_radius(np.hstack([pts, -pts]), 1e-2) > 1.0:
            continue
        done += 1
        hull = sx.SymmetricHull.from_points(pts)
        f_sup = sx.sup_l1_cost_on_sphere(pts, res)
        inv_r = 1.0 / sx.inradius(hull)
        inv_cos = 1.0 / math.cos(sx.covering_radius(hull.generators, res))
        worst_chain = max(
            worst_chain,
            abs(f_sup - inv_r),
            abs(f_sup - inv_cos),
            abs(inv_r - inv_cos),
        )
    worst_eq15 = 0.0
    done = 0
    while done < 100:
        m = int(rng.integers(2, 7))
        pts = _unit(rng, 3, m)
        x = pts @ rng.standard_normal(m)
        norm = np.linalg.norm(x)
        if norm < 1e-9:
            continue
        x /= norm
        hull = sx.SymmetricHull.from_points(pts)
        lp, _ = sx.l1_min_exact(pts, x)
        worst_eq15 = max(worst_eq15, abs(sx.minkowski_functional(hull, x) - lp))
        done += 1
    ok = worst_chain <= 2e-3 and worst_eq15 <= 1e-8
    _report(8, ok, f"chain dev {worst_chain:.2e} (tol 2e-3), gauge-vs-LP dev {worst_eq15:.2e} (tol 1e-8)")
    assert ok


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        size = int(rng.integers(6, 50))
        truth = rng.integers(0, n, size)
        pred = rng.integers(0, n, size)
        table = sx.contingency_table(truth, pred)
        dim = table.counts.shape[0]
        brute_acc = 100.0 * max(
            sum(table.counts[i, p[i]] for i in range(dim))
            for p in itertools.permutations(range(dim))
        ) / size
        counts = table.counts.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            prec = counts / table.group_sizes[None, :]
            rec = counts / table.class_sizes[:, None]
            f = np.where(counts > 0, 2 * prec * rec / (prec + rec), 0.0)
        brute_f = 100.0 * max(
            sum(f[i, p[i]] for i in range(dim))
            for p in itertools.permutations(range(dim))
        ) / table.n_true
        ok &= abs(sx.clustering_accuracy(truth, pred) - brute_acc) <= 1e-10
        ok &= abs(sx.clustering_fscore(truth, pred) - brute_f) <= 1e-10
    ok &= sx.imbalance([3, 3, 3]) == 0.0
    ok &= sx.imbalance([0, 0, 11, 0]) == 1.0
    _report(9, ok, "100 contingency tables vs brute force")
    assert ok


def test_criterion_10_solver_certificates():
    rng = np.random.default_rng(110)
    worst_kkt = 0.0
    for _ in range(500):
        d = int(rng.integers(3, 10))
        m = int(rng.integers(1, 14))
        lam = float(rng.choice([10.0, 100.0, 1e4]))
        a = _unit(rng, d, m)
        x = _unit(rng, d, 1)[:, 0]
        code = sx.solve_lasso_batch(a, x, lam, 1e-8)[0]
        worst_kkt = max(worst_kkt, _kkt_violation(a, x, lam, code))
    ok = worst_kkt <= 1e-8

    worst_agree = 0.0
    for _ in range(50):
        # overcomplete dictionaries: a square near-singular dictionary can
        # legitimately push the finite-lam objective below the exact L1 value
        d = int(rng.integers(4, 6))
        m = int(rng.integers(d + 2, d + 7))
        a = _unit(rng, d, m)
        x = a @ rng.standard_normal(m)
        x /= np.linalg.norm(x)
        lp, _ = sx.l1_min_exact(a, x)
        code = sx.solve_lasso_batch(a, x, 1e6, 1e-6)[0]
        worst_agree = max(worst_agree, abs(code.objective - lp))
        worst_kkt_16 = _kkt_violation(a, x, 1e6, code)
        ok &= worst_kkt_16 <= 1e-6
    ok &= worst_agree <= 1e-3
    _report(10, ok, f"worst KKT {worst_kkt:.2e} (tol 1e-8), LP agreement {worst_agree:.2e} (tol 1e-3)")
    assert ok
