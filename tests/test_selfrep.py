import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_exemplars import (
    DataMatrix,
    F_cost,
    TooFewPoints,
    cost_floor,
    f_cost,
    lambda_threshold,
    normalize_columns,
)


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


def test_lambda_threshold_orthogonal_pair():
    data = DataMatrix(np.eye(2))
    assert lambda_threshold(data) == math.inf


def test_lambda_threshold_antipodal():
    pts = np.array([[1.0, -1.0], [0.0, 0.0]])
    assert lambda_threshold(DataMatrix(pts)) == 1.0


def test_lambda_threshold_too_few_points():
    with pytest.raises(TooFewPoints):
        lambda_threshold(DataMatrix(np.ones((2, 1))))


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
