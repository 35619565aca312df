import time

import numpy as np
import pytest

from subspace_exemplars import (
    DataMatrix,
    NoConvergence,
    SparseCode,
    SubspaceSpec,
    duality_gap,
    kkt_violation,
    solve_lasso_batch,
    subspace_preserving_rate,
    synth_union_of_subspaces,
)


def _unit_columns(rng, d, m):
    a = rng.standard_normal((d, m))
    return a / np.linalg.norm(a, axis=0)


def _objective(a, x, lam, c):
    e = x - a @ c
    return np.abs(c).sum() + 0.5 * lam * float(e @ e)


def test_empty_dictionary_gives_lambda_half():
    x = np.array([0.6, 0.8])
    code = solve_lasso_batch(np.zeros((2, 0)), x, 150.0)[0]
    assert code.objective == 75.0
    assert code.coeffs.size == 0
    assert np.array_equal(code.residual, x)


def test_target_in_dictionary_hits_floor():
    rng = np.random.default_rng(0)
    a = _unit_columns(rng, 6, 4)
    code = solve_lasso_batch(a, a[:, 2].copy(), 100.0)[0]
    assert abs(code.objective - 0.995) <= 1e-6
    expected = np.zeros(4)
    expected[2] = 1 - 1 / 100.0
    assert np.allclose(code.coeffs, expected, atol=1e-7)


def test_lambda_below_coherence_threshold_gives_zero():
    # four unit vectors with pairwise inner products exactly 0.5
    gram = 0.5 * np.ones((4, 4)) + 0.5 * np.eye(4)
    a_all = np.linalg.cholesky(gram).T
    dictionary, target = a_all[:, :3], a_all[:, 3].copy()
    code = solve_lasso_batch(dictionary, target, 1.5)[0]
    assert np.all(code.coeffs == 0.0)
    assert abs(code.objective - 0.75) <= 1e-12


def test_orthonormal_pair_large_lambda():
    a = np.eye(2)
    x = np.array([1.0, 1.0]) / np.sqrt(2)
    code = solve_lasso_batch(a, x, 1e6)[0]
    assert abs(code.objective - np.sqrt(2)) <= 1e-3
    assert np.allclose(code.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-5)


def test_optimality_certificates_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = int(rng.integers(4, 12))
        m = int(rng.integers(1, 15))
        lam = float(rng.choice([5.0, 50.0, 500.0]))
        a = _unit_columns(rng, d, m)
        x = _unit_columns(rng, d, 1)[:, 0]
        code = solve_lasso_batch(a, x, lam, 1e-8)[0]
        assert kkt_violation(a, x, lam, code) <= 1e-8
        assert duality_gap(a, x, lam, code) <= 1e-8
        assert abs(_objective(a, x, lam, code.coeffs) - code.objective) <= 1e-9


def test_monotone_in_dictionary():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = _unit_columns(rng, 8, 12)
        x = _unit_columns(rng, 8, 1)[:, 0]
        lam = 40.0
        small = solve_lasso_batch(a[:, :5], x, lam)[0]
        big = solve_lasso_batch(a, x, lam)[0]
        assert small.objective >= big.objective - 2e-8


def test_column_negation_symmetry():
    rng = np.random.default_rng(3)
    a = _unit_columns(rng, 6, 5)
    x = _unit_columns(rng, 6, 1)[:, 0]
    base = solve_lasso_batch(a, x, 30.0)[0]
    flipped_dict = a.copy()
    flipped_dict[:, 2] *= -1
    flipped = solve_lasso_batch(flipped_dict, x, 30.0)[0]
    assert abs(base.objective - flipped.objective) <= 1e-10
    assert abs(base.coeffs[2] + flipped.coeffs[2]) <= 1e-8


def test_tiny_coefficients_snapped():
    rng = np.random.default_rng(11)
    a = _unit_columns(rng, 5, 8)
    x = _unit_columns(rng, 5, 1)[:, 0]
    code = solve_lasso_batch(a, x, 20.0)[0]
    nz = code.coeffs[code.coeffs != 0.0]
    assert np.all(np.abs(nz) >= 1e-12)


def test_no_convergence_reports_gap():
    rng = np.random.default_rng(1)
    a = _unit_columns(rng, 6, 6)
    x = _unit_columns(rng, 6, 1)[:, 0]
    with pytest.raises(NoConvergence) as err:
        solve_lasso_batch(a, x, 100.0, 1e-20)
    assert err.value.gap > 0.75e-20
    assert err.value.target_index == 0


def test_batch_singleton_matches_single():
    rng = np.random.default_rng(8)
    a = _unit_columns(rng, 6, 7)
    x = _unit_columns(rng, 6, 1)
    single = solve_lasso_batch(a, x[:, 0], 25.0)[0]
    batch = solve_lasso_batch(a, x, 25.0)
    assert len(batch) == 1
    assert np.array_equal(batch[0].coeffs, single.coeffs)
    assert batch[0].objective == single.objective


def test_batch_targets_in_dictionary():
    rng = np.random.default_rng(9)
    a = _unit_columns(rng, 8, 6)
    lam = 75.0
    codes = solve_lasso_batch(a, a.copy(), lam)
    for code in codes:
        assert abs(code.objective - (1 - 0.5 / lam)) <= 1e-9


def test_batch_order_and_failure_index():
    rng = np.random.default_rng(10)
    a = _unit_columns(rng, 6, 5)
    xs = _unit_columns(rng, 6, 4)
    codes = solve_lasso_batch(a, xs, 30.0)
    for j, code in enumerate(codes):
        alone = solve_lasso_batch(a, xs[:, j], 30.0)[0]
        assert abs(code.objective - alone.objective) <= 1e-9
    with pytest.raises(NoConvergence) as err:
        solve_lasso_batch(a, xs, 30.0, tol=1e-20)
    assert err.value.target_index in range(4)
    assert err.value.gap > 0.75e-20


def test_two_subspace_codes_are_subspace_preserving():
    # dictionary spanning two independent subspaces (search-selected, as in
    # the full method); codes at large lambda put no mass on the wrong class
    from subspace_exemplars import ffs_lazy

    spec = SubspaceSpec(20, (3, 3), (25, 25), 0.0, 2)
    data = synth_union_of_subspaces(spec)
    sel = list(ffs_lazy(data, 1e4, 8, seed=2).indices)
    a = data.points[:, sel]
    codes = solve_lasso_batch(a, data.points, 1e4)
    rate = subspace_preserving_rate(codes.coeffs, data.labels[sel], data.labels)
    assert rate >= 1 - 1e-6


def test_full_step_that_crosses_zero_is_not_stationary():
    # the finisher's full step here changes a sign; taken as the optimum of
    # the pattern it was solved for, it returned a point whose KKT violation
    # is 2/lam
    X = synth_union_of_subspaces(SubspaceSpec(12, (4, 4, 4), (20, 20, 20), 0.0, 2)).points
    a, x, lam = X[:, [50, 58, 5]], X[:, 29], 1e4
    code = solve_lasso_batch(a, x, lam)[0]
    assert kkt_violation(a, x, lam, code) <= 1e-8
    assert duality_gap(a, x, lam, code) <= 1e-8
    # the 4-sweep solution of the solver that took the crossing as stationary
    expected = [-0.12928370045491824, 0.0003706388806496985, 0.2564461080646064]
    assert np.allclose(code.coeffs, expected, rtol=0.0, atol=1e-12)


def test_repeated_columns_with_random_signs_are_certified():
    # a copy of an active column (either sign) moves with the homotopy's
    # level; let into the support, it makes the active Gram block singular
    rng = np.random.default_rng(12)
    for case in range(200):
        d, nb = int(rng.integers(3, 10)), int(rng.integers(1, 7))
        base = _unit_columns(rng, d, nb)
        while np.abs(base.T @ base - np.eye(nb)).max() > 0.9:
            base = _unit_columns(rng, d, nb)
        rep = rng.integers(0, nb, size=int(rng.integers(1, 2 * nb + 1)))
        a = np.concatenate([base, base[:, rep] * rng.choice([-1.0, 1.0], rep.size)], axis=1)
        a = a[:, rng.permutation(a.shape[1])]
        picks = a[:, rng.integers(0, a.shape[1], 2)] * rng.choice([-1.0, 1.0], 2)
        x = np.concatenate([_unit_columns(rng, d, 3), picks], axis=1)
        lam = (2.0, 10.0, 100.0)[case % 3]
        codes = solve_lasso_batch(a, x, lam)
        for j, code in enumerate(codes):
            assert kkt_violation(a, x[:, j], lam, code) <= 1e-8
            assert duality_gap(a, x[:, j], lam, code) <= 1e-8


def test_a_one_column_path_takes_one_round(monkeypatch):
    # the first join is seeded, so the only round is the step down to 1/lam
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    x = np.array([[0.6, -0.8], [0.8, 0.6]])
    codes = solve_lasso_batch(np.array([[1.0], [0.0]]), x, 10.0)
    assert len(calls) == 1
    assert np.allclose(codes.coeffs, [[0.5, -0.7]], rtol=0, atol=1e-12)


def test_the_first_join_prefers_a_positive_correlation_then_the_lower_index():
    # |h| ties between a column and its negation: the path is not unique, and
    # the column with the positive correlation takes the code
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    x = np.array([[0.6, -0.6], [0.8, 0.8], [0.0, 0.0]])
    codes = solve_lasso_batch(np.column_stack([a, -a, b]), x, 100.0)
    assert np.allclose(codes.coeffs, [[0.59, 0.0], [0.0, 0.59], [0.0, 0.0]], rtol=0, atol=1e-12)
    assert np.count_nonzero(codes.coeffs) == 2


_X = np.array([0.6, 0.8])


@pytest.mark.parametrize("dictionary, targets, lam, tol, name", [
    (np.zeros((2, 0)), np.array([np.nan, 1.0]), 10.0, 1e-8, "targets"),
    (np.zeros((2, 0)), 3 * _X, 10.0, 1e-8, "targets"),
    (np.array([1.0, 0.0]), _X, 10.0, 1e-8, "dictionary"),
    (np.eye(2), np.eye(2)[:, :, None], 10.0, 1e-8, "targets"),
    (np.eye(3), _X, 10.0, 1e-8, "targets"),
    (np.eye(2) * 2.0, _X, 10.0, 1e-8, "dictionary"),
    (np.eye(2), np.array([1.0, 1.0]), 10.0, 1e-8, "targets"),
    (np.eye(2), _X, 1.0, 1e-8, "lam"),
    (np.eye(2), _X, 2.0, 0.0, "tol"),
    (np.eye(2), np.array([np.nan, 1.0]), 10.0, 1e-8, "targets"),
    (np.array([[1.0, np.nan], [0.0, 0.0]]), _X, 10.0, 1e-8, "dictionary"),
], ids=["nan-target-empty-dict", "3x-target-empty-dict", "1d-dict", "3d-targets", "d-mismatch",
        "non-unit-dict", "non-unit-target", "lam", "tol", "nan-target", "nan-dict"])
def test_the_solver_rejects_bad_input_at_its_boundary(dictionary, targets, lam, tol, name):
    with pytest.raises(ValueError, match=name):
        solve_lasso_batch(dictionary, targets, lam, tol)


def test_certificates_recompute_the_residual_from_the_target():
    # correct coefficients with a zero stored residual; certificates read
    # from the stored residual would give KKT 1/lam and gap 1.80
    rng = np.random.default_rng(3)
    a = _unit_columns(rng, 6, 5)
    x = _unit_columns(rng, 6, 1)[:, 0]
    code = solve_lasso_batch(a, x, 30.0)[0]
    wiped = SparseCode(code.coeffs, np.zeros(6), code.objective)
    assert kkt_violation(a, x, 30.0, wiped) <= 1e-8
    assert duality_gap(a, x, 30.0, wiped) <= 1e-8


def test_unreachable_tolerance_fails_at_once():
    rng = np.random.default_rng(1)
    a = _unit_columns(rng, 6, 6)
    x = _unit_columns(rng, 6, 3)
    start = time.perf_counter()
    with pytest.raises(NoConvergence):
        solve_lasso_batch(a, x[:, 0], 100.0, 1e-20)
    with pytest.raises(NoConvergence):
        solve_lasso_batch(a, x, 100.0, tol=1e-20)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("lam, tol", [(np.inf, 1e-8), (np.nan, 1e-8), (1.0, 1e-8), (10.0, 0.0),
                                      (10.0, -1.0), (10.0, np.nan), (10.0, np.inf)])
@pytest.mark.parametrize("entry", ["solve_lasso_batch", "ffs_naive", "ffs_lazy", "f_cost",
                                   "F_cost"])
def test_bad_lam_and_tol_are_rejected_at_every_entry_point(entry, lam, tol):
    from subspace_exemplars import F_cost, f_cost, ffs_lazy, ffs_naive

    data = synth_union_of_subspaces(SubspaceSpec(6, (2, 2), (5, 5), 0.0, 0))
    x = data.points[:, 0]
    calls = {
            "solve_lasso_batch": lambda: solve_lasso_batch(data.points[:, 1:4], data.points, lam, tol),
        "ffs_naive": lambda: ffs_naive(data, lam, 3, tol=tol),
        "ffs_lazy": lambda: ffs_lazy(data, lam, 3, tol=tol),
        "f_cost": lambda: f_cost(x, [1, 2], data, lam, tol),
        "F_cost": lambda: F_cost([1, 2], data, lam, tol),
    }
    name = "lam" if not (np.isfinite(lam) and lam > 1) else "tol"
    with pytest.raises(ValueError, match=name):
        calls[entry]()
