"""Evaluation metrics: matched accuracy, averaged F-score, imbalance, and the
subspace-preserving rate of a code collection.

Accuracy and F-score maximize over all matchings between true classes and
predicted groups; the maximization is done exactly by optimal assignment
(Hungarian matching), which equals brute-force enumeration of permutations.
scipy's assignment solver loads on the first such call, not at import.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ContingencyTable",
    "LengthMismatch",
    "EmptySelection",
    "contingency_table",
    "clustering_accuracy",
    "clustering_fscore",
    "imbalance",
    "subspace_preserving_rate",
]


class LengthMismatch(ValueError):
    """Label vectors have different lengths."""


class EmptySelection(ValueError):
    """No exemplars were selected at all."""


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of points shared by true classes (rows) and predicted groups
    (columns), padded to a square with empty classes."""

    counts: np.ndarray
    class_sizes: np.ndarray
    group_sizes: np.ndarray
    n_true: int

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _as_labels(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    return arr


def contingency_table(truth, pred) -> ContingencyTable:
    truth = _as_labels(truth)
    pred = _as_labels(pred)
    if truth.shape[0] != pred.shape[0]:
        raise LengthMismatch(f"lengths differ: {truth.shape[0]} vs {pred.shape[0]}")
    if not truth.shape[0]:
        raise ValueError("label vectors are empty")
    t_classes, t_idx = np.unique(truth, return_inverse=True)
    p_classes, p_idx = np.unique(pred, return_inverse=True)
    n = max(len(t_classes), len(p_classes))
    counts = np.zeros((n, n), dtype=int)
    np.add.at(counts, (t_idx, p_idx), 1)
    return ContingencyTable(
        counts=counts,
        class_sizes=counts.sum(axis=1),
        group_sizes=counts.sum(axis=0),
        n_true=len(t_classes),
    )


def clustering_accuracy(truth, pred) -> float:
    """Largest percentage of agreeing points over all label matchings."""
    from scipy.optimize import linear_sum_assignment
    table = contingency_table(truth, pred)
    rows, cols = linear_sum_assignment(-table.counts)
    return 100.0 * table.counts[rows, cols].sum() / table.total


def _f_matrix(table: ContingencyTable) -> np.ndarray:
    counts = table.counts.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = counts / table.group_sizes[None, :]
        recall = counts / table.class_sizes[:, None]
        f = 2.0 * precision * recall / (precision + recall)
    return np.where(counts > 0, f, 0.0)


def clustering_fscore(truth, pred) -> float:
    """Class-averaged F-score, maximized over matchings.

    The average divides by the number of true classes; matching runs over the
    padded square so extra predicted groups can absorb split classes.
    """
    from scipy.optimize import linear_sum_assignment
    table = contingency_table(truth, pred)
    f = _f_matrix(table)
    rows, cols = linear_sum_assignment(-f)
    return 100.0 * f[rows, cols].sum() / table.n_true


def imbalance(selected_class_counts: Sequence[float]) -> float:
    """One minus the base-n entropy of the per-class selection proportions.

    0 exactly when all classes contributed equally, 1 when a single class
    took everything.
    """
    s = np.asarray(selected_class_counts, dtype=float)
    if s.size == 0 or s.sum() <= 0:
        raise EmptySelection("selected class counts are empty")
    if np.any(s < 0):
        raise ValueError("counts must be nonnegative")
    n = s.size
    if n == 1 or np.all(s == s[0]):
        return 0.0
    p = s / s.sum()
    nz = p > 0
    entropy = float(-(p[nz] * np.log(p[nz])).sum() / math.log(n))
    return float(min(max(1.0 - entropy, 0.0), 1.0))


def subspace_preserving_rate(codes: np.ndarray, exemplar_labels, point_labels) -> float:
    """Mean fraction of each code's L1 mass on same-class exemplars.

    ``codes`` is the (M, N) coefficient matrix, one column per point.  1.0
    means every nonzero coefficient points at an exemplar from the point's
    own class.  Zero-mass codes are excluded from the mean and reported via
    a warning.
    """
    C = np.abs(np.asarray(codes, dtype=float))
    ex = np.asarray(exemplar_labels)
    pt = np.asarray(point_labels)
    if C.shape[0] != ex.shape[0]:
        raise LengthMismatch("one exemplar label per dictionary column required")
    if C.shape[1] != pt.shape[0]:
        raise LengthMismatch("one point label per code required")
    total = C.sum(axis=0)
    same = (C * (ex[:, None] == pt[None, :])).sum(axis=0)
    ok = total > 0
    if not ok.any():
        warnings.warn("all codes have zero mass; rate undefined, returning 0.0")
        return 0.0
    if not ok.all():
        warnings.warn(f"{int((~ok).sum())} zero-mass codes excluded from the rate")
    return float((same[ok] / total[ok]).mean())
