import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_exemplars import (
    DataMatrix,
    F_cost,
    SubspaceSpec,
    TooFewPoints,
    cost_floor,
    f_cost,
    ffs_lazy,
    ffs_naive,
    lambda_threshold,
    normalize_columns,
    synth_union_of_subspaces,
)
from subspace_exemplars.ffs import _Carried
from subspace_exemplars.lasso import _UNIT_TOL, NoConvergence
from subspace_exemplars.selfrep import _CostEvaluator


def _random_data(rng, d, n):
    pts = rng.standard_normal((d, n))
    return normalize_columns(DataMatrix(pts))


def test_empty_set_convention():
    data = _random_data(np.random.default_rng(0), 4, 6)
    assert f_cost(data.points[:, 0], [], data, 150.0) == 75.0


def test_member_point_attains_floor():
    data = _random_data(np.random.default_rng(1), 5, 8)
    val = f_cost(data.points[:, 3], [1, 3, 5], data, 15.0)
    assert abs(val - (1 - 1 / 30.0)) <= 1e-6


def test_negated_member_attains_floor():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((5, 4))
    pts[:, 2] = -pts[:, 1]  # antipodal pair
    data = normalize_columns(DataMatrix(pts))
    val = f_cost(data.points[:, 1], [0, 2], data, 15.0)
    assert abs(val - (1 - 1 / 30.0)) <= 1e-6


def test_non_member_stays_above_floor():
    data = _random_data(np.random.default_rng(3), 6, 10)
    val = f_cost(data.points[:, 9], [0, 1, 2], data, 100.0)
    assert val > cost_floor(100.0) + 1e-6


def test_F_cost_full_set():
    data = _random_data(np.random.default_rng(4), 4, 7)
    lam = 50.0
    report = F_cost(range(7), data, lam)
    assert abs(report.sup_value - (1 - 0.5 / lam)) <= 1e-6
    assert report.per_point.shape == (7,)
    assert report.sup_value == report.per_point[report.argmax_index]


def test_F_cost_empty_set_tie_break():
    data = _random_data(np.random.default_rng(5), 3, 5)
    report = F_cost([], data, 80.0)
    assert report.sup_value == 40.0
    assert report.argmax_index == 0


def test_F_cost_monotone_in_set():
    rng = np.random.default_rng(6)
    data = _random_data(rng, 5, 12)
    lam = 30.0
    small = F_cost([0, 1, 2], data, lam)
    big = F_cost([0, 1, 2, 3, 4, 5], data, lam)
    assert small.sup_value >= big.sup_value - 1e-6
    assert np.all(small.per_point >= big.per_point - 1e-6)


# every cost is certified to within the solver tolerance of its optimum
_CERT_TOL = 1e-8

_instances = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    n=st.integers(2, 10),
    lam=st.sampled_from([2.0, 10.0, 100.0, 1e4]),
    draw=st.data(),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_instances)
def test_adding_an_exemplar_never_raises_a_cost(seed, d, n, lam, draw):
    data = _random_data(np.random.default_rng(seed), d, n)
    subset = draw.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    extra = draw.draw(st.sampled_from([j for j in range(n) if j not in subset]))
    before = F_cost(subset, data, lam).per_point
    after = F_cost(subset + [extra], data, lam).per_point
    assert np.all(after <= before + _CERT_TOL)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_instances)
def test_permuting_the_points_permutes_the_costs(seed, d, n, lam, draw):
    rng = np.random.default_rng(seed)
    data = _random_data(rng, d, n)
    subset = draw.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    perm = rng.permutation(n)
    # point j of the permuted data is point perm[j] of the original
    moved = F_cost(np.argsort(perm)[subset], DataMatrix(data.points[:, perm]), lam)
    ref = F_cost(subset, data, lam).per_point
    assert np.allclose(moved.per_point, ref[perm], rtol=0.0, atol=_CERT_TOL)


def test_range_bounds_hold_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(5):
        data = _random_data(rng, 6, 9)
        lam = float(rng.choice([5.0, 40.0, 400.0]))
        subset = list(rng.choice(9, size=int(rng.integers(1, 6)), replace=False))
        report = F_cost(subset, data, lam)
        assert np.all(report.per_point >= cost_floor(lam) - 1e-6)
        assert np.all(report.per_point <= lam / 2 + 1e-6)


@pytest.mark.parametrize("lam", [1e2, 1e4])
def test_costs_off_the_unit_sphere_stay_within_lam_times_the_unit_tolerance(lam):
    # the data of test_lazy_equals_naive_off_unit_norm: two orthogonal 3-dim
    # blocks, columns 5e-11 off the unit sphere, which the data check allows;
    # the empty set costs lam / 2 by convention, but the zero code that prices
    # the other block after the first pick costs 0.5 lam ||x||^2, above lam / 2
    rng = np.random.default_rng(18)
    pts = np.zeros((6, 24))
    pts[:3, :12] = rng.standard_normal((3, 12))
    pts[3:, 12:] = rng.standard_normal((3, 12))
    pts *= (1.0 + 5e-11) / np.linalg.norm(pts, axis=0)
    data = DataMatrix(pts[:, rng.permutation(24)])
    bound = lam / 2 + lam * _UNIT_TOL
    empty = F_cost([], data, lam).sup_value
    assert empty == lam / 2
    picks = ffs_naive(data, lam, 4, first_index=0).indices
    for j in range(1, 5):
        assert F_cost(picks[:j], data, lam).sup_value <= bound
    one = F_cost([0], data, lam).sup_value
    assert lam / 2 < one <= empty + lam * _UNIT_TOL


def test_lambda_threshold_orthogonal_pair():
    data = DataMatrix(np.eye(2))
    assert lambda_threshold(data) == math.inf


def test_lambda_threshold_antipodal():
    pts = np.array([[1.0, -1.0], [0.0, 0.0]])
    assert lambda_threshold(DataMatrix(pts)) == 1.0


def test_lambda_threshold_too_few_points():
    with pytest.raises(TooFewPoints):
        lambda_threshold(DataMatrix(np.ones((2, 1))))


@pytest.mark.parametrize("seed", range(12))
def test_lambda_threshold_equals_the_full_gram_maximum(seed):
    # the threshold takes the Gram 256 rows at a time; the largest off-diagonal
    # entry is the full Gram's, bit for bit, also across block boundaries
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(2, 41)), int(rng.choice([2, 37, 256, 257, 700, 1500]))
    data = _random_data(rng, d, n)
    g = np.abs(data.points.T @ data.points)
    np.fill_diagonal(g, 0.0)
    assert lambda_threshold(data) == 1.0 / g.max()


def test_below_threshold_costs_collapse():
    rng = np.random.default_rng(8)
    data = _random_data(rng, 8, 10)
    thr = lambda_threshold(data)
    assert thr > 1
    lam = 1 + 0.9 * (thr - 1)
    subset = [0, 3, 7]
    for j in range(10):
        if j in subset:
            continue
        assert abs(f_cost(data.points[:, j], subset, data, lam) - lam / 2) <= 1e-9


def test_argmax_tie_break_lowest_index():
    # duplicated points have identical costs; the report must pick the first
    pts = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    data = normalize_columns(DataMatrix(pts))
    report = F_cost([2], data, 20.0)
    assert report.per_point[0] == report.per_point[1]
    assert report.argmax_index == 0


def test_members_and_their_negations_sit_exactly_on_the_floor():
    # an antipodal copy and a duplicate are planted in every dataset
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(2, 7)), int(rng.integers(3, 12))
        pts = rng.standard_normal((d, n))
        perm = rng.permutation(n)
        pts[:, perm[1]] = -pts[:, perm[0]]
        pts[:, perm[2]] = pts[:, perm[3 % n]]
        data = normalize_columns(DataMatrix(pts))
        sel = list(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        X = data.points
        on = [j for j in range(n)
              if any(np.array_equal(X[:, j], s * X[:, i]) for i in sel for s in (1.0, -1.0))]
        for lam in (2.0, 10.0, 100.0, 1e4):
            per = F_cost(sel, data, lam).per_point
            assert np.all(per[on] == cost_floor(lam)), (seed, lam)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), draw=st.data())
def test_twin_classes_are_the_points_equal_up_to_sign(d, draw):
    # few distinct entries, so columns repeat, often negated, with -0.0 and
    # leading zeros; a point's class is the lowest index equal to it or to
    # its negation
    entry = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
    column = st.lists(entry, min_size=d, max_size=d).filter(any)
    pts = np.array(draw.draw(st.lists(column, min_size=1, max_size=12), label="columns")).T
    X = normalize_columns(DataMatrix(pts)).points
    n = X.shape[1]
    brute = [min(i for i in range(n) if np.array_equal(X[:, i], X[:, j])
                 or np.array_equal(X[:, i], -X[:, j])) for j in range(n)]
    assert _CostEvaluator(DataMatrix(X), 10.0).twin.tolist() == brute


def test_f_cost_of_an_exemplar_or_its_negation_is_the_floor_exactly():
    # on the README tour data a solved cost lands 6e-16 to 2e-14 below the
    # floor on all 8 exemplars
    data = synth_union_of_subspaces(SubspaceSpec(10, (3, 3), (60, 140), seed=1))
    lam = 100.0
    sel = list(ffs_lazy(data, lam, 8, seed=7).indices)
    per = F_cost(sel, data, lam).per_point
    for j in sel:
        for x in (data.points[:, j], -data.points[:, j]):
            assert f_cost(x, sel, data, lam) == cost_floor(lam) == per[j]


def test_dual_lower_bound_never_exceeds_the_cost():
    # random selection sequences from a lower-dimensional subspace, often
    # with more points than its dimension or a point and its negation, so
    # their columns are linearly dependent; each step re-solves a random
    # part of the classes, so the others carry dual points and codes of
    # older steps, lowered by one coordinate step per pick.
    # A sequence stops where the solver cannot certify a cost to compare
    # with: at lam = 1e4 seed 41 meets the large-l1 gap defect of
    # test_coherent_dictionaries_at_a_large_lambda_return_exact_codes
    uncertified = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, d))
        low = rng.standard_normal((d, r)) @ rng.standard_normal((r, d + 1))
        pts = np.column_stack([low, -low[:, 0], low[:, 1],
                               rng.standard_normal((d, int(rng.integers(2, 2 * d))))])
        data = normalize_columns(DataMatrix(pts))
        order = [int(i) for i in rng.permutation(d + 3)]
        everyone = np.arange(data.count)
        for lam in (1.5, 2.0, 10.0, 100.0, 1e4):
            ev = _CostEvaluator(data, lam)
            carried = _Carried(ev)
            carried.add(order[0])
            try:
                for size in range(1, len(order)):
                    sel = order[:size]
                    lower = carried.lower(everyone)
                    cost = ev.costs(sel, everyone)
                    floor = ev.taken(sel)[ev.twin]
                    assert np.all(lower <= cost + 1e-13 * lam), (seed, lam, size)
                    assert np.all(lower[floor] == cost_floor(lam)), (seed, lam, size)
                    assert np.all(carried.upper >= cost - 1e-13 * lam), (seed, lam, size)
                    assert np.all(carried.upper[floor] == cost_floor(lam)), (seed, lam, size)
                    free = np.flatnonzero(~floor & (ev.twin == everyone))
                    carried.solve(free[rng.random(free.size) < 0.5])
                    carried.add(order[size])
            except NoConvergence:
                uncertified.append((seed, lam))
    assert set(uncertified) <= {(41, 1e4)}


def test_zero_code_dual_bound_is_the_qr_bound():
    # before any solve every point carries the zero code's nu = lam x, and
    # its bound is the value at t x + (lam - t) r with
    # t = min(lam, 1 / max |a_i^T x|) and r from a QR of the selection
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        data = _random_data(rng, d, 3 * d)
        sel = [int(i) for i in rng.choice(3 * d, size=int(rng.integers(1, 2 * d)), replace=False)]
        everyone = np.arange(data.count)
        for lam in (1.5, 100.0, 1e4):
            ev = _CostEvaluator(data, lam)
            A, X, x2 = data.points[:, sel], data.points, ev.xnorm2
            q_, _ = np.linalg.qr(A)
            r2 = ((X - q_ @ (q_.T @ X)) ** 2).sum(axis=0)
            with np.errstate(divide="ignore"):
                t = np.minimum(lam, 1.0 / np.abs(A.T @ X).max(axis=0))
            old = t * x2 - 0.5 * t * t * x2 / lam + 0.5 * r2 * (lam - t) ** 2 / lam
            old[sel] = cost_floor(lam)
            carried = _Carried(ev)
            for j in sel:
                carried.add(j)
            new = carried.lower(everyone)
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-14 * lam)


@pytest.mark.parametrize("entry", ["ffs_lazy", "ffs_naive", "F_cost"])
def test_data_off_the_unit_sphere_is_rejected_before_any_solve(entry):
    # unchecked, such data gives costs far outside [1 - 1/(2 lam), lam/2]
    data = DataMatrix(3 * np.random.default_rng(0).standard_normal((5, 40)))
    calls = {
        "ffs_lazy": lambda: ffs_lazy(data, 30.0, 5),
        "ffs_naive": lambda: ffs_naive(data, 30.0, 5),
        "F_cost": lambda: F_cost([0, 1], data, 30.0),
    }
    with pytest.raises(ValueError, match="unit norm"):
        calls[entry]()


@pytest.mark.parametrize("call, match", [
    (lambda x, data: f_cost(3 * x, [1, 2], data, 10.0), "unit norm"),
    (lambda x, data: f_cost(0 * x, [1, 2], data, 10.0), "unit norm"),
    (lambda x, data: f_cost(np.full_like(x, np.nan), [1, 2], data, 10.0), "unit norm"),
    (lambda x, data: f_cost(np.append(x, 0.0), [1, 2], data, 10.0), "length"),
    (lambda x, data: f_cost(x, [1, 99], data, 10.0), r"\[0, N=10\)"),
    (lambda x, data: f_cost(x, [-1], data, 10.0), r"\[0, N=10\)"),
    (lambda x, data: F_cost([1, -1], data, 10.0), r"\[0, N=10\)"),
    (lambda x, data: F_cost([10], data, 10.0), r"\[0, N=10\)"),
], ids=["scaled", "zero", "nan", "long", "index-99", "index-neg", "F-index-neg", "F-index-N"])
def test_bad_targets_and_indices_are_rejected(call, match):
    data = synth_union_of_subspaces(SubspaceSpec(6, (2, 2), (5, 5), 0.0, 0))
    with pytest.raises(ValueError, match=match):
        call(data.points[:, 0], data)
