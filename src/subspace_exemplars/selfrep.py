"""Self-representation cost of a candidate exemplar set.

``f_cost(x, S)`` is the optimal value of the L1 + squared-residual objective
of :mod:`subspace_exemplars.lasso` when x is coded over the columns indexed
by S; ``F_cost`` is its worst case over the dataset.  Both are monotone
non-increasing in S, bounded between 1 - 1/(2 lam) and lam/2, and the floor
is attained exactly when the point (or its negation) belongs to S.  Costs
are solved from zero on every call; no solver state is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lasso
from .dataset import DataMatrix
from .lasso import DEFAULT_TOL, NoConvergence, _check_params, _check_unit

__all__ = ["CostReport", "TooFewPoints", "f_cost", "F_cost", "lambda_threshold", "cost_floor"]


class TooFewPoints(ValueError):
    """lambda_threshold needs at least two points."""


@dataclass(frozen=True)
class CostReport:
    """Per-point costs, their supremum, and the first index attaining it."""

    per_point: np.ndarray
    sup_value: float
    argmax_index: int


def cost_floor(lam: float) -> float:
    """Smallest attainable cost, 1 - 1/(2 lam) (attained on +-exemplars)."""
    return 1.0 - 0.5 / lam


def _indices(exemplars: Sequence[int], n: int) -> list[int]:
    sel = [int(i) for i in exemplars]
    if any(not 0 <= i < n for i in sel):
        raise ValueError(f"exemplar indices must lie in [0, N={n})")
    return sel


class _CostEvaluator:
    """Costs of data points over a selection, shared by F_cost and FFS.

    Points equal up to sign have one cost: each such class is solved once,
    at its lowest index, and a class with a selected member is at the cost
    floor exactly.  So exact ties stay exact, whichever batch a cost comes
    from.  Holds only the classes and squared norms, no Gram and no codes.
    """

    def __init__(self, data: DataMatrix, lam: float, tol: float):
        X = self.points = data.points
        _check_unit(X, "data columns")
        self.N = data.count
        # ||x||^2 rounded as a BLAS product, like G and H (a plain sum of squares
        # moves 6 of criterion 6's 50 selections); 256 columns at a time
        blocks = np.array_split(np.arange(self.N), -(-self.N // 256))
        self.xnorm2 = np.concatenate([np.diag(X[:, b].T @ X[:, b]) for b in blocks])
        self.lam, self.tol = lam, tol
        self.floor = cost_floor(lam)
        lead = X[np.argmax(X != 0.0, axis=0), np.arange(self.N)]
        canon = (X * np.where(lead < 0.0, -1.0, 1.0)).T + 0.0  # + 0.0 turns -0.0 into 0.0
        _, first, inverse = np.unique(canon, axis=0, return_index=True, return_inverse=True)
        self.twin = first[inverse.ravel()]  # lowest index equal up to sign

    def taken(self, sel: list[int]) -> np.ndarray:
        """Mask indexed by class (``twin``): True where the class has a selected member."""
        return np.bincount(self.twin[sel], minlength=self.N) > 0

    def costs(self, sel: list[int], targets: np.ndarray) -> np.ndarray:
        """Costs of the target points over the selection, in one solver call."""
        cls = self.twin[targets]
        out = np.full(targets.size, self.floor)
        free = ~self.taken(sel)[cls]
        todo, back = np.unique(cls[free], return_inverse=True)
        if todo.size:
            A = self.points[:, sel]
            try:
                costs = lasso._cd_core(A.T @ A, A.T @ self.points[:, todo], self.xnorm2[todo],
                                       self.lam, self.tol)[4]
            except NoConvergence as err:
                raise NoConvergence(err.gap, int(todo[err.target_index])) from None
            out[free] = costs[back]
        return out

    def lower_bounds(self, sel: list[int], targets: np.ndarray) -> np.ndarray:
        """Lower bounds on the target costs from one feasible point of the lasso dual.

        The dual of the cost is max nu^T x - ||nu||^2 / (2 lam) subject to
        |a_i^T nu| <= 1 for every selected column.  The point
        nu = t x + (lam - t) r, with r = x - Q Q^T x off a reduced QR of the
        selected columns (so A^T r = 0 even when A is rank-deficient) and
        t = min(lam, 1 / max_i |a_i^T x|), is feasible, and its value

            t ||x||^2 - t^2 ||x||^2 / (2 lam) + ||r||^2 (lam - t)^2 / (2 lam)

        bounds the cost from below (the dual point of gap-safe screening,
        Fercoq, Gramfort & Salmon 2015).  A class with a selected member
        gets the floor exactly.  No solver call.
        """
        A, X = self.points[:, sel], self.points[:, targets]
        q, _ = np.linalg.qr(A)
        r = X - q @ (q.T @ X)
        x2, r2, lam = self.xnorm2[targets], (r * r).sum(axis=0), self.lam
        with np.errstate(divide="ignore"):
            t = np.minimum(lam, 1.0 / np.abs(A.T @ X).max(axis=0))
        out = t * x2 - 0.5 * t * t * x2 / lam + 0.5 * r2 * (lam - t) ** 2 / lam
        out[self.taken(sel)[self.twin[targets]]] = self.floor
        return out


def f_cost(x, exemplars: Sequence[int], data: DataMatrix, lam: float,
           tol: float = DEFAULT_TOL) -> float:
    """Cost of representing the unit vector x by the indexed exemplar columns.

    Returns exactly lam/2 for an empty exemplar set (the defining
    convention); otherwise prices x with the evaluator F_cost and FFS use,
    so it is exactly the floor when x equals an exemplar column or its
    negation.  Raises ValueError for an index outside [0, N), or for a
    target or exemplar column that is not a unit vector in R^D.
    """
    _check_params(lam, tol)
    sel = _indices(exemplars, data.count)
    x = np.asarray(x, dtype=float).ravel()[:, None]
    if x.shape[0] != data.dim:
        raise ValueError(f"target must have length D={data.dim}, got {x.shape[0]}")
    _check_unit(x, "target")
    if not sel:
        return 0.5 * lam
    # x is point 0, so a NoConvergence failure names target 0
    ev = _CostEvaluator(DataMatrix(np.column_stack([x, data.points[:, sel]])), lam, tol)
    return float(ev.costs(list(range(1, len(sel) + 1)), np.array([0]))[0])


def F_cost(exemplars: Sequence[int], data: DataMatrix, lam: float,
           tol: float = DEFAULT_TOL) -> CostReport:
    """Worst-case cost over all data points; ties resolved to the lowest index.

    Every point equal up to sign to an exemplar is at the floor exactly.
    Raises ValueError for an index outside [0, N) or data off the unit
    sphere.
    """
    _check_params(lam, tol)
    sel = _indices(exemplars, data.count)
    ev = _CostEvaluator(data, lam, tol)
    per = ev.costs(sel, np.arange(data.count)) if sel else np.full(data.count, 0.5 * lam)
    arg = int(np.argmax(per))
    return CostReport(per_point=per, sup_value=float(per[arg]), argmax_index=arg)


def lambda_threshold(data: DataMatrix) -> float:
    """1 over the largest absolute inner product between distinct points.

    Any lam strictly below this value makes every non-exemplar cost collapse
    to lam/2, so the cost carries no selection signal.  Returns +inf for
    pairwise-orthogonal data; raises TooFewPoints when N < 2.
    """
    if data.count < 2:
        raise TooFewPoints("need at least two points")
    g = np.abs(data.points.T @ data.points)
    np.fill_diagonal(g, 0.0)
    mu = float(g.max())
    if mu == 0.0:
        return math.inf
    return 1.0 / mu
