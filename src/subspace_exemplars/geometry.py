"""Brute-force geometric oracles.

These routines verify, at desk scale and through independent computational
routes, the identities tying the self-representation machinery to convex
geometry:

* exact equality-constrained L1 minimization (the lam -> infinity limit of
  the lasso objective), solved as a linear program;
* the Minkowski functional (gauge) of the symmetrized convex hull of an
  exemplar set, solved as a convex-combination membership LP, which must
  equal the L1 minimum on the hull's span;
* covering radius and inradius on the circle and 2-sphere by deterministic
  grid search, tying the worst-case cost to 1/cos of the covering radius.

The LPs are infeasibility-aware: a target outside the span yields the +inf
sentinel rather than an error.
scipy's LP solver loads on the first LP, not when the module is imported.
"""

from __future__ import annotations

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
    "sup_gauge_on_sphere",
    "sup_l1_cost_on_sphere",
]

_SPAN_TOL = 1e-9


class UnsupportedDim(ValueError):
    """Grid search supports ambient dimension 2 and 3 only."""


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


def _coarse_to_fine_angles(resolution: float, objective) -> float:
    """Maximize a per-angle objective on [0, pi) by two-stage grid search.

    The hull gauge is piecewise smooth with pieces far wider than the coarse
    step, so refining around the best few coarse angles reaches the same
    maximum as a full fine sweep.
    """
    coarse = max(resolution, 0.02)
    angles = np.arange(0.0, math.pi, coarse)
    vals = np.array([objective(t) for t in angles])
    best = -math.inf
    for i in np.argsort(vals)[-3:]:
        lo, hi = angles[i] - coarse, angles[i] + coarse
        fine = np.arange(lo, hi + 0.5 * resolution, resolution)
        for t in fine:
            best = max(best, objective(t))
    return best


def sup_gauge_on_sphere(hull: SymmetricHull, grid_resolution: float) -> float:
    """Supremum of the Minkowski functional over the unit circle (D = 2)."""
    _check_resolution(grid_resolution)
    if hull.dim != 2:
        raise UnsupportedDim("sup over the sphere is implemented for D = 2")
    return _coarse_to_fine_angles(
        grid_resolution,
        lambda t: minkowski_functional(hull, np.array([math.cos(t), math.sin(t)])),
    )


def sup_l1_cost_on_sphere(points: np.ndarray, grid_resolution: float) -> float:
    """Supremum over the unit circle of the exact L1 minimization value.

    The grid-sup counterpart of the worst-case cost at lam = infinity,
    computed through the equality-constrained LP route (D = 2).
    """
    _check_resolution(grid_resolution)
    a = np.asarray(points, dtype=float)
    if a.shape[0] != 2:
        raise UnsupportedDim("sup over the sphere is implemented for D = 2")

    def value(t: float) -> float:
        v, _ = l1_min_exact(a, np.array([math.cos(t), math.sin(t)]))
        return v

    return _coarse_to_fine_angles(grid_resolution, value)


def inradius(hull: SymmetricHull, grid_resolution: float) -> float:
    """Radius of the largest ball inscribed in the hull (D in {2, 3}).

    Computed as the minimum over grid directions u of 1 / gauge(u); by
    symmetry of the hull the search runs over half the sphere.
    """
    _check_resolution(grid_resolution)
    g = hull.generators
    if np.linalg.matrix_rank(g, tol=1e-10) < hull.dim:
        raise DegenerateHull("hull does not span the ambient space")
    if hull.dim == 2:
        return 1.0 / sup_gauge_on_sphere(hull, grid_resolution)
    if hull.dim == 3:
        def gauge(theta: float, phi: float) -> float:
            st = math.sin(theta)
            u = np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])
            return minkowski_functional(hull, u)

        coarse = max(grid_resolution, 0.1)
        thetas = np.arange(0.5 * coarse, math.pi, coarse)
        phis = np.arange(0.0, 2.0 * math.pi, coarse)
        vals = np.array([[gauge(t, p) for p in phis] for t in thetas])
        best = float(vals.max())
        flat = np.argsort(vals, axis=None)[-3:]
        for pos in flat:
            i, j = divmod(int(pos), phis.size)
            for t in np.arange(thetas[i] - coarse, thetas[i] + coarse, grid_resolution):
                for p in np.arange(phis[j] - coarse, phis[j] + coarse, grid_resolution):
                    best = max(best, gauge(t, p))
        return 1.0 / best
    raise UnsupportedDim(f"inradius grid search supports D in {{2, 3}}, got {hull.dim}")
