"""Self-representation cost of a candidate exemplar set.

``f_cost(x, S)`` is the optimal value of the L1 + squared-residual objective
of :mod:`subspace_exemplars.lasso` when x is coded over the columns indexed
by S; ``F_cost`` is its worst case over the dataset.  Both are bounded below
by 1 - 1/(2 lam), attained exactly when the point (or its negation) belongs
to S, and above by lam/2 + lam * 1e-10; they are monotone non-increasing in S
to within lam * 1e-10.  The slack is for data off the unit sphere: the empty
set is priced at lam/2 by convention, but a zero code at 0.5 lam ||x||^2, and
the data check accepts norms up to 1e-10 off 1.  Costs are solved from zero
on every call; no solver state is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lasso
from .dataset import DataMatrix, _as_ints
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
    sel = _as_ints(exemplars, "exemplar indices").tolist()
    if any(not 0 <= i < n for i in sel):
        raise ValueError(f"exemplar indices must lie in [0, N={n})")
    return sel


class _CostEvaluator:
    """Costs of data points over a selection, shared by F_cost and FFS.

    Points equal up to sign have one cost: each such class is solved once,
    at its lowest index, and a class with a selected member is at the cost
    floor exactly.  So exact ties stay exact, whichever batch a cost comes
    from.  Holds only the classes and squared norms, no Gram and no codes.
    Every solve is certified at the solver's default tolerance.
    """

    def __init__(self, data: DataMatrix, lam: float):
        X = self.points = data.points
        _check_unit(X, "data columns")
        self.N = data.count
        # ||x||^2 rounded as a BLAS product, like G and H (a plain sum of squares
        # moves 6 of criterion 6's 50 selections); 256 columns at a time
        blocks = np.array_split(np.arange(self.N), -(-self.N // 256))
        self.xnorm2 = np.concatenate([np.diag(X[:, b].T @ X[:, b]) for b in blocks])
        self.lam = lam
        self.floor = cost_floor(lam)
        lead = X[np.argmax(X != 0.0, axis=0), np.arange(self.N)]
        canon = X * np.where(lead < 0.0, -1.0, 1.0)
        # a stable sort of the columns keeps equal ones in index order, so
        # each run of equal columns starts at its lowest index
        order = np.lexsort(canon[::-1])
        run = np.ones(self.N, dtype=bool)
        run[1:] = (canon[:, order[1:]] != canon[:, order[:-1]]).any(axis=0)
        self.twin = np.empty(self.N, dtype=np.intp)  # lowest index equal up to sign
        self.twin[order] = order[run][np.cumsum(run) - 1]

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
            out[free] = self.solve(sel, todo)[0][back]
        return out

    def solve(self, sel: list[int], classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Costs and codes of distinct free classes, in one solver call."""
        A = self.points[:, sel]
        try:
            C, *_, costs = lasso._cd_core(A.T @ A, A.T @ self.points[:, classes],
                                          self.xnorm2[classes], self.lam, DEFAULT_TOL)
        except NoConvergence as err:
            raise NoConvergence(err.gap, int(classes[err.target_index])) from None
        return costs, C


def f_cost(x, exemplars: Sequence[int], data: DataMatrix, lam: float) -> float:
    """Cost of representing the unit vector x by the indexed exemplar columns.

    Returns exactly lam/2 for an empty exemplar set (the defining
    convention); otherwise prices x with the evaluator F_cost and FFS use,
    so it is exactly the floor when x equals an exemplar column or its
    negation.  Raises ValueError for an index outside [0, N), or for a
    target or exemplar column that is not a unit vector in R^D.
    """
    _check_params(lam)
    sel = _indices(exemplars, data.count)
    x = np.asarray(x, dtype=float).ravel()[:, None]
    if x.shape[0] != data.dim:
        raise ValueError(f"target must have length D={data.dim}, got {x.shape[0]}")
    _check_unit(x, "target")
    if not sel:
        return 0.5 * lam
    # x is point 0, so a NoConvergence failure names target 0
    ev = _CostEvaluator(DataMatrix(np.column_stack([x, data.points[:, sel]])), lam)
    return float(ev.costs(list(range(1, len(sel) + 1)), np.array([0]))[0])


def F_cost(exemplars: Sequence[int], data: DataMatrix, lam: float) -> CostReport:
    """Worst-case cost over all data points; ties resolved to the lowest index.

    Every point equal up to sign to an exemplar is at the floor exactly.
    Raises ValueError for an index outside [0, N) or data off the unit
    sphere.
    """
    _check_params(lam)
    sel = _indices(exemplars, data.count)
    ev = _CostEvaluator(data, lam)
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
    X, mu = data.points, 0.0
    # 256 rows of the Gram at a time, as for _CostEvaluator.xnorm2, never N x N
    for b in np.array_split(np.arange(data.count), -(-data.count // 256)):
        g = np.abs(X[:, b].T @ X)
        g[np.arange(b.size), b] = 0.0
        mu = max(mu, float(g.max()))
    if mu == 0.0:
        return math.inf
    return 1.0 / mu
