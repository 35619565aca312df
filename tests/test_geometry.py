import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subspace_exemplars import (
    DegenerateHull,
    SymmetricHull,
    UnsupportedDim,
    covering_radius,
    inradius,
    l1_min_exact,
    minkowski_functional,
    solve_lasso_batch,
    sup_l1_cost_on_sphere,
)
from subspace_exemplars.geometry import _sphere_grid


def _unit(rng, d, m):
    a = rng.standard_normal((d, m))
    return a / np.linalg.norm(a, axis=0)


def test_l1_min_orthonormal():
    value, coeffs = l1_min_exact(np.eye(2), np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(value - np.sqrt(2)) <= 1e-9
    assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-9)


def test_l1_min_column_target():
    rng = np.random.default_rng(0)
    a = _unit(rng, 4, 3)
    value, coeffs = l1_min_exact(a, a[:, 1])
    assert abs(value - 1.0) <= 1e-9
    expected = np.zeros(3)
    expected[1] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-8)


def test_l1_min_infeasible_sentinel():
    value, coeffs = l1_min_exact(np.eye(3)[:, :1], np.array([0.0, 1.0, 0.0]))
    assert value == math.inf
    assert coeffs is None


def test_gauge_of_generators_and_homogeneity():
    hull = SymmetricHull.from_points(np.eye(2))
    assert abs(minkowski_functional(hull, np.array([1.0, 0.0])) - 1.0) <= 1e-9
    assert abs(minkowski_functional(hull, np.array([0.5, 0.0])) - 0.5) <= 1e-9
    rng = np.random.default_rng(1)
    hull3 = SymmetricHull.from_points(_unit(rng, 3, 4))
    x = _unit(rng, 3, 1)[:, 0]
    g1 = minkowski_functional(hull3, x)
    g2 = minkowski_functional(hull3, 0.37 * x)
    assert abs(g2 - 0.37 * g1) <= 1e-10


def test_gauge_outside_span_is_infinite():
    hull = SymmetricHull.from_points(np.eye(3)[:, :1])
    assert minkowski_functional(hull, np.array([0.0, 1.0, 0.0])) == math.inf


def test_gauge_equals_l1_min_on_random_feasible_instances():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        pts = _unit(rng, 3, m)
        x = pts @ rng.standard_normal(m)
        norm = np.linalg.norm(x)
        if norm < 1e-9:
            continue
        x /= norm
        hull = SymmetricHull.from_points(pts)
        lp, _ = l1_min_exact(pts, x)
        assert abs(minkowski_functional(hull, x) - lp) <= 1e-8


def test_covering_radius_cross_and_antipodal():
    pts = np.hstack([np.eye(2), -np.eye(2)])
    assert abs(covering_radius(pts, 1e-3) - np.pi / 4) <= 2e-3
    pair = np.array([[1.0, -1.0], [0.0, 0.0]])
    assert abs(covering_radius(pair, 1e-3) - np.pi / 2) <= 2e-3


def test_appendix_lemma_on_cross_polytope():
    # worst-case cost equals 1/cos of the covering radius of the symmetrized set
    pts = np.eye(2)
    hull = SymmetricHull.from_points(pts)
    f_sup = sup_l1_cost_on_sphere(pts, 1e-3)
    gamma = covering_radius(hull.generators, 1e-3)
    assert abs(f_sup - np.sqrt(2)) <= 2e-3
    assert abs(1.0 / math.cos(gamma) - f_sup) <= 2e-3


def test_inradius_cross_polytope():
    # exact in any dimension: conv(+-e_1 ... +-e_D) has inradius 1 / sqrt(D)
    for dim in range(2, 7):
        hull = SymmetricHull.from_points(np.eye(dim))
        assert abs(inradius(hull) - 1 / np.sqrt(dim)) <= 1e-12


@pytest.mark.parametrize("delta", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("a", [0.0, 0.3, 2.5])
def test_inradius_thin_rhombus(a, delta):
    # conv(+-p, +-q) for unit p, q at angle delta: the nearest facets are
    # the edges from q to -p and from -q to p, at distance sin(delta / 2)
    pts = np.array([[math.cos(a), math.cos(a + delta)], [math.sin(a), math.sin(a + delta)]])
    r = inradius(SymmetricHull.from_points(pts))
    assert abs(r / math.sin(delta / 2) - 1.0) <= 1e-6


def test_inradius_ignores_duplicated_generators():
    rng = np.random.default_rng(6)
    pts = _unit(rng, 3, 4)
    once = inradius(SymmetricHull.from_points(pts))
    twice = inradius(SymmetricHull.from_points(np.hstack([pts, pts[:, ::-1], -pts[:, :1]])))
    assert abs(once - twice) <= 1e-15


def test_inradius_dense_circle_tends_to_one():
    ang = np.linspace(0.0, np.pi, 64, endpoint=False)
    hull = SymmetricHull.from_points(np.vstack([np.cos(ang), np.sin(ang)]))
    assert inradius(hull) >= 0.99


def test_inradius_times_sup_cost_is_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ang = rng.uniform(0.0, np.pi, 3)
        pts = np.vstack([np.cos(ang), np.sin(ang)])
        hull = SymmetricHull.from_points(pts)
        prod = inradius(hull) * sup_l1_cost_on_sphere(pts, 1e-3)
        assert abs(prod - 1.0) <= 1e-3


def test_inradius_octahedron_3d():
    hull = SymmetricHull.from_points(np.eye(3))
    assert abs(inradius(hull) - 1 / np.sqrt(3)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3]),
    m=st.integers(2, 7),
    res=st.sampled_from([0.5, 0.2, 0.1]),
)
def test_inradius_bounds_the_grid_searches(seed, dim, m, res):
    # the grid never overstates the covering radius gamma, nor the supremum
    # of the L1 cost, so the exact inradius r = cos(gamma) = 1 / sup cost is
    # bounded at any grid step
    pts = _unit(np.random.default_rng(seed), dim, m)
    assume(np.linalg.matrix_rank(pts, tol=1e-6) == dim)
    hull = SymmetricHull.from_points(pts)
    r = inradius(hull)
    assert r <= math.cos(covering_radius(hull.generators, res)) + 1e-12
    if dim == 2:
        assert 1.0 / r >= sup_l1_cost_on_sphere(pts, res) - 1e-12


def test_degenerate_and_unsupported():
    flat = SymmetricHull.from_points(np.eye(3)[:, :2])
    with pytest.raises(DegenerateHull):
        inradius(flat)
    with pytest.raises(UnsupportedDim):
        covering_radius(np.eye(4), 1e-2)
    with pytest.raises(UnsupportedDim):
        inradius(SymmetricHull.from_points(np.eye(1)))


def test_hull_validation():
    with pytest.raises(ValueError):
        SymmetricHull(np.eye(2))  # not closed under negation
    with pytest.raises(ValueError):
        SymmetricHull.from_points(2.0 * np.eye(2))  # not unit norm


def test_hull_rejects_a_nan_generator_as_not_unit_norm():
    with pytest.raises(ValueError, match="unit norm"):
        SymmetricHull.from_points(np.array([[np.nan, 1.0], [0.0, 0.0]]))


def test_covering_radius_rejects_a_nan_point():
    with pytest.raises(ValueError, match="unit norm"):
        covering_radius(np.array([[np.nan, 1.0], [0.0, 0.0]]), 0.1)


def test_lasso_objective_approaches_l1_min():
    rng = np.random.default_rng(4)
    pts = _unit(rng, 4, 6)
    x = pts @ rng.standard_normal(6)
    x /= np.linalg.norm(x)
    lp, _ = l1_min_exact(pts, x)
    gaps = []
    for lam, tol in ((1e2, 1e-8), (1e4, 1e-8), (1e6, 1e-6)):
        code = solve_lasso_batch(pts, x, lam, tol)[0]
        gaps.append(abs(code.objective - lp))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 1e-3


def test_sup_gauge_matches_sup_l1():
    rng = np.random.default_rng(5)
    ang = rng.uniform(0.0, np.pi, 4)
    pts = np.vstack([np.cos(ang), np.sin(ang)])
    hull = SymmetricHull.from_points(pts)
    a = 1.0 / inradius(hull)
    b = sup_l1_cost_on_sphere(pts, 1e-3)
    assert abs(a - b) <= 1e-6


@pytest.mark.parametrize("resolution", [-0.01, 0.0, math.nan, math.inf])
def test_grid_searches_reject_a_bad_resolution(resolution):
    for search in (covering_radius, sup_l1_cost_on_sphere):
        with pytest.raises(ValueError, match=f"got {resolution}"):
            search(np.eye(2), resolution)


@pytest.mark.parametrize("seed", range(6))
def test_sup_is_the_grid_max_of_the_l1_program(seed):
    # the exact value at each direction of the covering radius's grid, also
    # with a duplicated, an antipodal, a zero and a non-unit column
    rng = np.random.default_rng(seed)
    pts = _unit(rng, 2, int(rng.integers(2, 6)))
    pts = np.hstack([pts, pts[:, :1], -pts[:, -1:], np.zeros((2, 1)), 2.5 * _unit(rng, 2, 1)])
    grid = _sphere_grid(2, 0.05)
    want = max(l1_min_exact(pts, grid[:, g])[0] for g in range(grid.shape[1]))
    assert abs(sup_l1_cost_on_sphere(pts, 0.05) / want - 1.0) <= 1e-12


def test_sup_of_a_rank_one_set_is_infinite():
    # the grid's first direction is e1, where a pair of e1 with the zero
    # column would be 0 / 0
    for line in ([[0.6, -0.6, 1.2, 0.0], [0.8, -0.8, 1.6, 0.0]], [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]):
        assert sup_l1_cost_on_sphere(np.array(line), 0.05) == math.inf


def test_sup_over_a_zero_column_on_a_grid_direction():
    pts = np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 0.0]])
    t = np.arange(0.0, 2.0 * math.pi, 0.05)
    want = (np.abs(np.cos(t)) + np.abs(np.sin(t))).max()
    assert abs(sup_l1_cost_on_sphere(pts, 0.05) / want - 1.0) <= 1e-12


def test_sup_rejects_a_nan_point():
    with pytest.raises(ValueError, match="finite"):
        sup_l1_cost_on_sphere(np.array([[np.nan, 1.0], [0.0, 0.0]]), 0.05)
