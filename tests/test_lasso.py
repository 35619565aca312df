import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from subspace_exemplars import lasso


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


def test_returns_the_certified_coefficients(monkeypatch):
    # the coefficients that _cd_core certified, bit for bit, a tiny one too
    certified = []
    cd_core = lasso._cd_core

    def recorded(*args):
        C, *rest = cd_core(*args)
        C[0, 0] = 1e-13
        certified.append(C.copy())
        return (C, *rest)

    monkeypatch.setattr(lasso, "_cd_core", recorded)
    rng = np.random.default_rng(11)
    a = _unit_columns(rng, 5, 8)
    x = _unit_columns(rng, 5, 3)
    codes = solve_lasso_batch(a, x, 20.0)
    assert len(certified) == 1
    assert codes.coeffs.tobytes() == certified[0].tobytes()


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


def _coherent_case(i):
    """Case i of the coherent-dictionary family: D = M in 3..10, unit columns
    v + sigma * noise around one unit v, sigma = 0.05, 0.2 or 0.5 by i mod 3,
    and four unit targets."""
    rng = np.random.default_rng(10000 + i)
    d = int(rng.integers(3, 11))
    sigma = (0.05, 0.2, 0.5)[i % 3]
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    a = v[:, None] + sigma * rng.standard_normal((d, d))
    return a / np.linalg.norm(a, axis=0), _unit_columns(rng, d, 4)


def test_coherent_dictionaries_at_a_large_lambda_return_exact_codes():
    # at lam = 1e4 ||c||_1 reaches 100-1000, so the gap of an exact code can
    # sit above tol and some cases raise NoConvergence; every code that is
    # returned satisfies the optimality conditions to rounding
    start = time.perf_counter()
    returned = 0
    for i in range(200):
        a, x = _coherent_case(i)
        try:
            codes = solve_lasso_batch(a, x, 1e4)
        except NoConvergence:
            continue
        returned += 1
        for j, code in enumerate(codes):
            assert kkt_violation(a, x[:, j], 1e4, code) <= 1e-12
    assert returned >= 150
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("lam, tol", [(np.inf, 1e-8), (np.nan, 1e-8), (1.0, 1e-8), (10.0, 0.0),
                                      (10.0, -1.0), (10.0, np.nan), (10.0, np.inf)])
@pytest.mark.parametrize("entry", ["solve_lasso_batch", "ffs_naive", "ffs_lazy", "f_cost",
                                   "F_cost", "esc_pipeline", "src_classify", "select"])
def test_bad_lam_and_tol_are_rejected_at_every_entry_point(entry, lam, tol):
    # tol is a solver setting only: every other entry point has no such
    # parameter and certifies at the solver's default
    from subspace_exemplars import (F_cost, LabeledExemplars, esc_pipeline, f_cost, ffs_lazy,
                                    ffs_naive, src_classify)
    from subspace_exemplars.ffs import select

    data = synth_union_of_subspaces(SubspaceSpec(6, (2, 2), (5, 5), 0.0, 0))
    x, dictionary = data.points[:, 0], data.points[:, 1:4]
    labeled = LabeledExemplars.from_data([0, 5], data)
    calls = {
        "solve_lasso_batch": lambda **kw: solve_lasso_batch(dictionary, data.points, lam, **kw),
        "ffs_naive": lambda **kw: ffs_naive(data, lam, 3, **kw),
        "ffs_lazy": lambda **kw: ffs_lazy(data, lam, 3, **kw),
        "f_cost": lambda **kw: f_cost(x, [1, 2], data, lam, **kw),
        "F_cost": lambda **kw: F_cost([1, 2], data, lam, **kw),
        "esc_pipeline": lambda **kw: esc_pipeline(data, lam, 3, 3, 2, **kw),
        "src_classify": lambda **kw: src_classify(data, labeled, lam, **kw),
        # the random baseline ignores lam, so only the dispatch can reject it
        "select": lambda **kw: select(data, "random", lam, 3, **kw),
    }
    if tol == 1e-8:
        with pytest.raises(ValueError, match="lam"):
            calls[entry]()
    else:
        with pytest.raises(ValueError if entry == "solve_lasso_batch" else TypeError, match="tol"):
            calls[entry](tol=tol)


def _padded_exact_solve(G, H, alpha):
    """The homotopy on full-size state: every round gathers from and scatters
    into the (T, M) arrays, and after the path a separate final solve inverts
    one padded block per target and refines its solution.
    ``lasso._exact_solve`` takes each code from its last round's stacked solve
    instead, so the two agree to rounding: the same objective and, where no
    column repeats up to sign, the same supports and signs."""
    M, T = H.shape
    h = H.T
    c, s = np.zeros((T, M)), np.zeros((T, M))  # s: signs of the active set, 0 off it
    mu = np.abs(h).max(axis=1, initial=0.0)
    rows = np.flatnonzero(mu > alpha)
    first = np.concatenate([h[rows], -h[rows]], axis=1).argmax(axis=1)
    s[rows, first % M] = np.array([1.0, -1.0])[first // M]
    eye = np.eye(M)

    def blocks(rows):
        on = s[rows] != 0.0
        return np.where(on[:, :, None] & on[:, None, :], G, eye), on

    # the seeded join is the first of at most 8 M + 64 rounds
    for _ in range(8 * M + 63):
        if not rows.size:
            break
        gm, on = blocks(rows)
        d = np.linalg.solve(gm, s[rows][:, :, None])[:, :, 0]
        a, r = d @ G, h[rows] - c[rows] @ G
        m, left = mu[rows, None], mu[rows] - alpha
        events = np.full((rows.size, 3, M), np.inf)
        for i, sg in enumerate((1.0, -1.0)):
            rate = 1.0 - sg * a
            np.divide(np.maximum(m - sg * r, 0.0), rate, out=events[:, i],
                      where=~on & (rate > lasso._JOIN_EPS))
        np.divide(-c[rows], d, out=events[:, 2], where=s[rows] * d < 0.0)
        events = events.reshape(rows.size, 3 * M)
        k = events.argmin(axis=1)
        step = np.minimum(events.min(axis=1), left)
        go = step != left
        c[rows] += step[:, None] * d
        mu[rows] -= step
        rows, kind, j = rows[go], k[go] // M, k[go] % M
        c[rows[kind == 2], j[kind == 2]] = 0.0
        s[rows, j] = np.array([1.0, -1.0, 0.0])[kind]

    # the exact solve on the final support and signs; iterative refinement,
    # since the restricted Gram can be ill-conditioned
    rows = np.flatnonzero((s != 0.0).any(axis=1))
    gm, on = blocks(rows)
    rhs = np.where(on, h[rows] - alpha * s[rows], 0.0)[:, :, None]
    inv = np.linalg.inv(gm)
    sol = inv @ rhs
    for _ in range(4):
        res = gm @ sol - rhs
        if not np.abs(res).max(initial=0.0) >= 1e-15:
            break
        sol -= inv @ res
    c[rows] = sol[:, :, 0]
    return c.T


def _homotopy_case(seed, d, n_base, copies, axes, targets, alpha, sigma=0.0):
    """(A, X): a dictionary of random unit columns (with sigma > 0, unit
    columns v + sigma * noise around one unit v, as in the coherent family),
    their +-copies and, when ``axes`` or a tie target asks for them, the
    coordinate axes; targets of these kinds:

    random  a random unit vector;
    column  dictionary column v (mod M): its path ends on its own support;
    tie     (e_p +- e_q) / sqrt 2, so axes p and q tie exactly in the first join;
    inside  a vector of norm alpha / 2: max |h| <= alpha, no support;
    repeat  the previous target again: the same final support.
    """
    rng = np.random.default_rng(seed)
    if sigma:
        base = _unit_columns(rng, d, 1) + sigma * rng.standard_normal((d, n_base))
        cols = [base / np.linalg.norm(base, axis=0)]
    else:
        cols = [_unit_columns(rng, d, n_base)]
    cols += [sign * cols[0][:, [j % n_base]] for j, sign in copies]
    if axes or any(kind == "tie" for kind, _ in targets):
        cols.append(np.eye(d))
    a = np.column_stack(cols)
    xs = []
    for kind, v in targets:
        if kind == "column":
            x = a[:, v % a.shape[1]]
        elif kind == "tie":
            p = v % d
            q = (p + 1 + v // d % max(d - 1, 1)) % d
            x = np.zeros(d)
            x[p] += 1.0
            x[q] += (1.0, -1.0)[v % 2] if q != p else 0.0
            x /= np.linalg.norm(x)
        elif kind == "inside":
            x = 0.5 * alpha * _unit_columns(rng, d, 1)[:, 0]
        elif kind == "repeat" and xs:
            x = xs[-1]
        else:
            x = _unit_columns(rng, d, 1)[:, 0]
        xs.append(x)
    return a, np.column_stack(xs)


_KINDS = ["random", "column", "tie", "inside", "repeat"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 7),
    n_base=st.integers(1, 8),
    copies=st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1.0, -1.0])), max_size=5),
    axes=st.booleans(),
    targets=st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 40)), min_size=1,
                     max_size=16),
    alpha=st.sampled_from([0.9, 0.3, 1e-2, 1e-4]),
    sigma=st.just(0.0),
)
# M = 1 and T = 1
@example(seed=1, d=3, n_base=1, copies=[], axes=False, targets=[("random", 0)], alpha=1e-2,
         sigma=0.0)
# M = 1, one target with no support and one that ends on the column
@example(seed=2, d=2, n_base=1, copies=[], axes=False, targets=[("inside", 0), ("column", 0)],
         alpha=0.3, sigma=0.0)
# every final support the same
@example(seed=3, d=6, n_base=5, copies=[], axes=False,
         targets=[("random", 0)] + [("repeat", 0)] * 7, alpha=1e-4, sigma=0.0)
# every final support different
@example(seed=4, d=6, n_base=6, copies=[], axes=False,
         targets=[("column", j) for j in range(6)], alpha=1e-2, sigma=0.0)
# duplicated and antipodal columns, with exact first-join ties
@example(seed=5, d=4, n_base=3, copies=[(0, 1.0), (1, -1.0), (2, -1.0)], axes=True,
         targets=[("tie", v) for v in range(8)] + [("column", 3), ("column", 4)], alpha=1e-3,
         sigma=0.0)
# a repeated column: the optimum is not unique, and the random target's code
# puts column 1's weight on its copy in the reference only
@example(seed=0, d=5, n_base=5, copies=[(1, 1.0)], axes=False,
         targets=[("random", 0), ("column", 1)], alpha=1e-2, sigma=0.0)
# coherent dictionaries, columns v + 0.05 noise with M = D: in some rounds
# partial pivoting of the bordered block takes a pivot from an off-support row
@example(seed=3, d=3, n_base=3, copies=[], axes=False,
         targets=[("random", 0)] * 3 + [("column", 0)], alpha=1e-4, sigma=0.05)
@example(seed=7, d=7, n_base=7, copies=[], axes=False,
         targets=[("random", 0)] * 3 + [("column", 29)], alpha=1e-4, sigma=0.05)
@example(seed=20, d=5, n_base=5, copies=[], axes=False,
         targets=[("random", 0)] * 3 + [("column", 1)], alpha=1e-4, sigma=0.05)
def test_the_homotopy_matches_the_padded_reference(seed, d, n_base, copies, axes, targets, alpha,
                                                   sigma):
    # rows finish in different rounds, some have no support, columns repeat
    # with either sign and the first join ties.  Each code comes from its last
    # round's solve, the reference's from a refined inverse, so they agree to
    # rounding; with a repeated column the optimum need not be unique
    a, X = _homotopy_case(seed, d, n_base, copies, axes, targets, alpha, sigma)
    G, H = a.T @ a, a.T @ X
    got, ref = lasso._exact_solve(G, H, alpha), _padded_exact_solve(G, H, alpha)
    objectives = [[_objective(a, X[:, j], 1.0 / alpha, c[:, j]) for j in range(X.shape[1])]
                  for c in (got, ref)]
    assert np.allclose(*objectives, rtol=1e-12, atol=0.0)
    if not (np.abs(G[np.triu_indices(G.shape[0], 1)]) > 1.0 - 1e-9).any():
        assert np.array_equal(np.sign(got), np.sign(ref))
        assert (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref).sum(axis=0))).all()


def test_paths_that_end_in_their_first_round_take_one_solve(monkeypatch):
    # 40 targets, each equal to one of three dictionary columns, reach 1/lam
    # in their first round: its stacked solve gives every code, and nothing
    # is inverted
    inverted, solves = [], []
    inv, solve = np.linalg.inv, np.linalg.solve
    monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: inverted.append(1) or inv(*a, **k))
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    rng = np.random.default_rng(13)
    a = _unit_columns(rng, 8, 6)
    picks = np.arange(40) % 3 * 2
    codes = solve_lasso_batch(a, a[:, picks], 100.0)
    assert not inverted and len(solves) == 1
    expected = np.zeros((6, 40))
    expected[picks, np.arange(40)] = 1 - 1 / 100.0
    assert np.allclose(codes.coeffs, expected, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 7),
    n_base=st.integers(1, 8),
    copies=st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1.0, -1.0])), max_size=5),
    axes=st.booleans(),
    targets=st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 40)), min_size=1,
                     max_size=16),
    alpha=st.sampled_from([0.9, 1e-2, 1e-4]),
)
# duplicated and antipodal columns, every target +- one of them
@example(seed=5, d=4, n_base=3, copies=[(0, 1.0), (1, -1.0), (2, -1.0), (2, 1.0)], axes=False,
         targets=[("column", j) for j in range(7)] * 2, alpha=1e-4)
def test_a_code_does_not_depend_on_its_batch(seed, d, n_base, copies, axes, targets, alpha):
    # each target's code has the same bits whether it is solved with every
    # other target, with a few of them, or in another order: the stacked solve
    # treats each block on its own and nothing else mixes the rows
    a, X = _homotopy_case(seed, d, n_base, copies, axes, targets, alpha)
    rng = np.random.default_rng([seed, 1])
    X = X * rng.choice([-1.0, 1.0], X.shape[1])
    G, H = a.T @ a, a.T @ X
    part = rng.permutation(X.shape[1])[:int(rng.integers(1, X.shape[1] + 1))]
    whole = lasso._exact_solve(G, H, alpha)
    assert lasso._exact_solve(G, H[:, part], alpha).tobytes() == whole[:, part].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 7),
    n_base=st.integers(1, 8),
    copies=st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1.0, -1.0])), max_size=5),
    axes=st.booleans(),
    targets=st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 40)), min_size=1,
                     max_size=16),
    alpha=st.sampled_from([0.9, 0.3, 1e-2, 1e-4]),
    draw=st.data(),
)
def test_a_target_of_width_w_is_coded_over_the_first_w_columns(seed, d, n_base, copies, axes,
                                                                targets, alpha, draw):
    # each target of a wider batch may use only its leading columns: its
    # code is that of the same target solved over those columns alone, up to
    # the rounding of the wider bordered solves, and _cd_core certifies it
    # over them, reading no correlation beyond
    a, X = _homotopy_case(seed, d, n_base, copies, axes, targets, alpha)
    G, H = a.T @ a, a.T @ X
    M, T = H.shape
    assert (lasso._exact_solve(G, H, alpha, np.full(T, M)).tobytes()
            == lasso._exact_solve(G, H, alpha).tobytes())
    width = np.array(draw.draw(st.lists(st.integers(1, M), min_size=T, max_size=T), label="w"))
    got = lasso._cd_core(G, H, (X * X).sum(axis=0), 1.0 / alpha, lasso.DEFAULT_TOL, width)[0]
    for j, w in enumerate(width):
        alone = lasso._exact_solve(G[:w, :w], H[:w, [j]], alpha)[:, 0]
        assert not got[w:, j].any()
        scale = 1e-12 * max(1.0, np.abs(alone).sum())
        objectives = [_objective(a[:, :w], X[:, j], 1.0 / alpha, c) for c in (got[:w, j], alone)]
        assert abs(objectives[0] - objectives[1]) <= scale
        # with a repeated leading column the optimum need not be unique
        if not (np.abs(G[:w, :w][np.triu_indices(w, 1)]) > 1.0 - 1e-9).any():
            assert np.array_equal(np.sign(got[:w, j]), np.sign(alone))
            assert np.abs(got[:w, j] - alone).max() <= scale


@pytest.mark.parametrize("lam", [3.0, 10.0, 100.0])
def test_an_orthonormal_dictionary_takes_one_solve_per_coordinate_above_alpha(monkeypatch, lam):
    # with G = I the path joins the coordinates of x in order of size, one per
    # round, and ends when the next one is at most 1/lam: a target with p of
    # them above 1/lam takes p rounds, a batch as many as its longest path,
    # and each code is the soft threshold of x
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    rng = np.random.default_rng(14)
    for _ in range(10):
        X = _unit_columns(rng, 8, int(rng.integers(1, 6)))
        solves.clear()
        codes = solve_lasso_batch(np.eye(8), X, lam)
        assert len(solves) == (np.abs(X) > 1.0 / lam).sum(axis=0).max()
        assert np.array_equal(codes.coeffs, np.sign(X) * np.maximum(np.abs(X) - 1.0 / lam, 0.0))


def test_the_committed_homotopy_replay_shows_one_path_per_workload():
    # BENCH_homotopy.json (scalebench/homotopy_replay.py) times the homotopy
    # of the versions it compares on the benchmark's s=0 ops; a speed-up that
    # changed a selection or the paths would not be one, and a side whose
    # runs differ would not be deterministic.  Batching paths differently
    # changes the calls and the rounds they take in lock-step, and pruning
    # more targets also takes fewer row-rounds; the change may take no more
    # calls, rounds or row-rounds than the parent
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCH_homotopy.json").read_text())
    seen, per_side = {}, {}
    for side, cells in doc["sides"].items():
        for cell in cells:
            for run in cell["runs"]:
                seen.setdefault(cell["workload"], set()).add(run["digest"])
                for key in ("calls", "rounds", "row_rounds"):
                    per_side.setdefault((side, cell["workload"], key), set()).add(run[key])
    assert seen and all(len(values) == 1 for values in seen.values()), seen
    assert all(len(values) == 1 for values in per_side.values()), per_side
    for (side, workload, key), (value,) in per_side.items():
        if side == "change":
            assert value <= min(per_side["parent", workload, key]), (workload, key)
