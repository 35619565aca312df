"""Brute-force geometric oracles.

These routines check, at desk scale, the identities tying the
self-representation machinery to convex geometry:

* exact equality-constrained L1 minimization (the lam -> infinity limit of
  the lasso objective), solved as a linear program;
* the Minkowski functional (gauge) of the symmetrized convex hull of an
  exemplar set, min sum(u) subject to [X0, -X0] u = x, u >= 0.  That is the
  same linear program as the L1 minimization, so the eq15 oracle, which
  compares the two, checks that the two entry points agree;
* the chain tying the worst-case cost over the sphere to 1/inradius of
  conv(+-X0) and to 1/cos of the covering radius of +-X0.  Each of its
  three quantities takes its own route: the worst-case cost is the exact L1
  value at each direction of the covering radius's grid, the least over the
  2-column bases (D = 2), the inradius is exact, read off the hull's facets
  (Qhull, any D >= 2), and the covering radius is a grid search (D in
  {2, 3}).  Neither grid search solves a linear program.

The LPs are infeasibility-aware: a target outside the span yields the +inf
sentinel rather than an error.
scipy's LP solver loads on the first LP, which the chain never makes, and
``scipy.spatial`` on the first ``inradius`` call, not when the module is
imported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lasso import _check_unit

__all__ = [
    "SymmetricHull",
    "UnsupportedDim",
    "DegenerateHull",
    "l1_min_exact",
    "minkowski_functional",
    "covering_radius",
    "inradius",
    "sup_l1_cost_on_sphere",
]

_SPAN_TOL = 1e-9


class UnsupportedDim(ValueError):
    """The routine does not support the ambient dimension."""


class DegenerateHull(ValueError):
    """The hull does not span the ambient space."""


@dataclass(frozen=True)
class SymmetricHull:
    """conv(+-X0): generators are the 2M columns, closed under negation."""

    generators: np.ndarray

    def __post_init__(self):
        g = np.array(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[1] == 0 or g.shape[1] % 2:
            raise ValueError("generators must be a (D, 2M) array")
        _check_unit(g, "generators")
        m = g.shape[1] // 2
        if not np.allclose(g[:, m:], -g[:, :m], atol=1e-12):
            raise ValueError("generators must be closed under negation")
        g.setflags(write=False)
        object.__setattr__(self, "generators", g)

    @classmethod
    def from_points(cls, points: np.ndarray) -> "SymmetricHull":
        p = np.asarray(points, dtype=float)
        if p.ndim != 2:
            raise ValueError("points must be a (D, M) array")
        return cls(np.hstack([p, -p]))

    @property
    def dim(self) -> int:
        return self.generators.shape[0]

    @property
    def m(self) -> int:
        return self.generators.shape[1] // 2


def _span_basis(a: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return u[:, :0]
    return u[:, s > s[0] * 1e-12]


def l1_min_exact(dictionary: np.ndarray, target: np.ndarray):
    """min ||c||_1 subject to target = dictionary @ c, by linear programming.

    Returns (value, coeffs); (inf, None) when the target is not in the span
    of the dictionary within 1e-9.
    """
    a = np.asarray(dictionary, dtype=float)
    x = np.asarray(target, dtype=float).ravel()
    if a.ndim != 2 or a.shape[0] != x.shape[0]:
        raise ValueError("dictionary must be (D, M) matching the target length")
    if a.shape[1] == 0:
        return (math.inf, None) if np.linalg.norm(x) > _SPAN_TOL else (0.0, np.zeros(0))
    q = _span_basis(a)
    if np.linalg.norm(x - q @ (q.T @ x)) > _SPAN_TOL:
        return math.inf, None
    from scipy.optimize import linprog
    m = a.shape[1]
    a_eq = q.T @ np.hstack([a, -a])
    res = linprog(
        c=np.ones(2 * m),
        A_eq=a_eq,
        b_eq=q.T @ x,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:  # pragma: no cover - guarded by the span check
        raise RuntimeError(f"LP solver failed: {res.message}")
    coeffs = res.x[:m] - res.x[m:]
    return float(res.fun), coeffs


def minkowski_functional(hull: SymmetricHull, x: np.ndarray) -> float:
    """Gauge of the hull: smallest t > 0 with x / t inside conv(+-X0).

    Solved as min sum(u) with generators @ u = x, u >= 0 (u sums to the
    scaling t).  Returns inf when x is outside the hull's span; 0 at x = 0.
    """
    g = hull.generators
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != hull.dim:
        raise ValueError("x has wrong dimension")
    q = _span_basis(g)
    if np.linalg.norm(x - q @ (q.T @ x)) > _SPAN_TOL:
        return math.inf
    from scipy.optimize import linprog
    res = linprog(
        c=np.ones(g.shape[1]),
        A_eq=q.T @ g,
        b_eq=q.T @ x,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:  # pragma: no cover
        raise RuntimeError(f"LP solver failed: {res.message}")
    return float(res.fun)


def _check_resolution(resolution: float) -> None:
    """Reject a grid resolution that is not finite and > 0."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"grid_resolution must be finite and > 0, got {resolution}")


def _sphere_grid(dim: int, resolution: float) -> np.ndarray:
    """Deterministic (D, G) grid of unit directions at the given angular step."""
    if dim == 2:
        theta = np.arange(0.0, 2.0 * math.pi, resolution)
        return np.vstack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        theta = np.arange(0.5 * resolution, math.pi, resolution)  # polar
        phi = np.arange(0.0, 2.0 * math.pi, resolution)  # azimuth
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        st = np.sin(tt).ravel()
        return np.vstack([st * np.cos(pp.ravel()), st * np.sin(pp.ravel()), np.cos(tt).ravel()])
    raise UnsupportedDim(f"grid search supports D in {{2, 3}}, got {dim}")


def covering_radius(points_on_sphere: np.ndarray, grid_resolution: float) -> float:
    """max over the sphere of the angle to the closest of the given points.

    Evaluated on a deterministic grid, so the result is accurate to
    O(grid_resolution) and never exceeds the true radius.
    """
    _check_resolution(grid_resolution)
    v = np.asarray(points_on_sphere, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("points_on_sphere must be a (D, m) array")
    _check_unit(v, "points")
    grid = _sphere_grid(v.shape[0], grid_resolution)
    best = np.clip((v.T @ grid).max(axis=0), -1.0, 1.0)
    return float(np.arccos(best.min()))


def sup_l1_cost_on_sphere(points: np.ndarray, grid_resolution: float) -> float:
    """Supremum over the unit circle of the exact L1 minimization value (D = 2).

    The value of ``l1_min_exact(points, x)``, exactly, at every direction x of
    the grid that ``covering_radius`` walks, so the result never exceeds the
    true supremum.  In R^2 a basic optimal solution of min ||c||_1 subject to
    A c = x uses at most two independent columns, so the value at x is the
    least, over pairs i < j with det = a_i x a_j != 0, of
    (|x x a_j| + |a_i x x|) / |det|.  That costs O(M^2 / grid_resolution).
    A pair with det = 0 (a duplicated, antipodal or zero column) is skipped;
    with no independent pair the value is +inf, as off the span.
    """
    _check_resolution(grid_resolution)
    a = np.asarray(points, dtype=float)
    if a.ndim != 2 or not np.isfinite(a).all():
        raise ValueError("points must be a finite (D, M) array")
    if a.shape[0] != 2:
        raise UnsupportedDim("sup over the sphere is implemented for D = 2")
    x = _sphere_grid(2, grid_resolution)
    cross = np.abs(np.outer(a[1], x[0]) - np.outer(a[0], x[1]))  # |x x a_k|, (M, G)
    value = np.full(x.shape[1], math.inf)
    for i, j in itertools.combinations(range(a.shape[1]), 2):
        det = a[0, i] * a[1, j] - a[1, i] * a[0, j]
        if det != 0.0:
            value = np.minimum(value, (cross[i] + cross[j]) / abs(det))
    return float(value.max())


def inradius(hull: SymmetricHull) -> float:
    """Radius of the largest ball inscribed in the hull (D >= 2), exactly.

    The hull is full-dimensional and contains the origin, so the radius is
    the smallest distance from the origin to one of its facet hyperplanes.
    Qhull returns each facet as a unit outward normal n and offset b with
    n . x + b <= 0 inside, so that distance is -b.
    """
    g = hull.generators
    if np.linalg.matrix_rank(g, tol=1e-10) < hull.dim:
        raise DegenerateHull("hull does not span the ambient space")
    if hull.dim < 2:
        raise UnsupportedDim(f"inradius supports D >= 2, got {hull.dim}")
    from scipy.spatial import ConvexHull
    return float(-ConvexHull(g.T).equations[:, -1].max())
