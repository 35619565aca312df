"""Self-representation cost of a candidate exemplar set.

``f_cost(x, S)`` is the optimal value of the L1 + squared-residual objective
of :mod:`subspace_exemplars.lasso` when x is coded over the columns indexed
by S; ``F_cost`` is its worst case over the dataset.  Both are monotone
non-increasing in S, bounded between 1 - 1/(2 lam) and lam/2, and the floor
is attained exactly when the point (or its negation) belongs to S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DataMatrix
from .lasso import DEFAULT_MAX_ITER, DEFAULT_TOL, _solve_costs

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


def _indices(exemplars: Sequence[int]) -> list[int]:
    return [int(i) for i in exemplars]


def _batch_costs(data: DataMatrix, sel: list[int], targets: np.ndarray | None,
                 lam: float, tol: float, max_iter: int) -> np.ndarray:
    """Objective values of all targets (default: every point) over columns sel."""
    X = data.points if targets is None else targets
    A = data.points[:, sel]
    return _solve_costs(A.T @ A, A.T @ X, (X * X).sum(axis=0), lam, tol, max_iter)[1]


def f_cost(x, exemplars: Sequence[int], data: DataMatrix, lam: float,
           tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Cost of representing the unit vector x by the indexed exemplar columns.

    Returns exactly lam/2 for an empty exemplar set (the defining
    convention).
    """
    if not lam > 1:
        raise ValueError(f"lam must be > 1, got {lam}")
    sel = _indices(exemplars)
    if not sel:
        return 0.5 * lam
    x = np.asarray(x, dtype=float).ravel()[:, None]
    return float(_batch_costs(data, sel, x, lam, tol, max_iter)[0])


def F_cost(exemplars: Sequence[int], data: DataMatrix, lam: float,
           tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> CostReport:
    """Worst-case cost over all data points; ties resolved to the lowest index."""
    if not lam > 1:
        raise ValueError(f"lam must be > 1, got {lam}")
    sel = _indices(exemplars)
    if not sel:
        per = np.full(data.count, 0.5 * lam)
    else:
        per = _batch_costs(data, sel, None, lam, tol, max_iter)
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
