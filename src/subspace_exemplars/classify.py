"""Sparse-representation classification from labeled exemplars.

Each point is coded once over the full exemplar dictionary; the per-class
reconstruction residual is the point minus the contribution of that class's
exemplars, and the point is assigned to the class with the smallest residual
norm.  When codes are subspace-preserving the winning residual is zero and
every other class leaves the point untouched, so the assignment is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .cluster import ClusterAssignment
from .dataset import DataMatrix
from .ffs import ExemplarSet
from .lasso import DEFAULT_TOL, solve_lasso_batch

__all__ = ["LabeledExemplars", "NoExemplarsForClass", "src_classify"]


class NoExemplarsForClass(ValueError):
    def __init__(self, class_id: int):
        self.class_id = class_id
        super().__init__(f"class {class_id} has no exemplars")


@dataclass(frozen=True)
class LabeledExemplars:
    """Exemplar indices with a class id for each.

    class_of maps data index -> class id (>= 0); classes is the sorted tuple of
    distinct class ids present.
    """

    indices: tuple[int, ...]
    class_of: dict[int, int]
    classes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("exemplar indices must be distinct")
        class_of = {int(i): int(c) for i, c in self.class_of.items()}
        missing = [i for i in idx if i not in class_of]
        if missing:
            raise ValueError(f"no class given for exemplar index {missing[0]}")
        negative = [c for c in class_of.values() if c < 0]
        if negative:
            raise ValueError(f"class ids must be >= 0, got {negative[0]}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "classes", tuple(sorted({class_of[i] for i in idx})))

    @classmethod
    def from_labels(
        cls,
        indices: Sequence[int],
        labels: Mapping[int, int] | Sequence[int],
        expected_classes: Sequence[int] | None = None,
    ) -> "LabeledExemplars":
        """Build from a map index->class or a label sequence parallel to indices.

        When ``expected_classes`` is given, every expected class must own at
        least one exemplar (NoExemplarsForClass otherwise).
        """
        idx = [int(i) for i in indices]
        if isinstance(labels, Mapping):
            class_of = {int(i): int(labels[i]) for i in idx if i in labels}
        else:
            if len(labels) != len(idx):
                raise ValueError("labels must parallel indices")
            class_of = {i: int(c) for i, c in zip(idx, labels)}
        got = set(class_of.values())
        if expected_classes is not None:
            for c in expected_classes:
                if int(c) not in got:
                    raise NoExemplarsForClass(int(c))
        return cls(tuple(idx), class_of)

    @classmethod
    def from_data(
        cls,
        exemplars: ExemplarSet | Sequence[int],
        data: DataMatrix,
        expected_classes: Sequence[int] | None = None,
    ) -> "LabeledExemplars":
        """Label selected indices from the dataset's ground-truth column."""
        if data.labels is None:
            raise ValueError("dataset has no labels to read exemplar classes from")
        idx = list(getattr(exemplars, "indices", exemplars))
        return cls.from_labels(idx, [int(data.labels[i]) for i in idx], expected_classes)


def src_classify(
    data: DataMatrix,
    exemplars: LabeledExemplars,
    lam: float,
    tol: float = DEFAULT_TOL,
) -> ClusterAssignment:
    """Classify every point by its minimum per-class reconstruction residual.

    Exemplar points keep their given labels (they are the supervision); ties
    in the residual norms go to the lowest class id.
    """
    if not exemplars.indices:
        raise ValueError("need at least one labeled exemplar")
    sel = list(exemplars.indices)
    A = data.points[:, sel]
    C = solve_lasso_batch(A, data.points, lam, tol).coeffs

    classes = exemplars.classes
    ex_labels = np.array([exemplars.class_of[i] for i in sel])
    res_norms = np.empty((len(classes), data.count))
    for row, cl in enumerate(classes):
        cols = ex_labels == cl
        E = data.points - A[:, cols] @ C[cols, :]
        res_norms[row] = np.linalg.norm(E, axis=0)
    winners = np.argmin(res_norms, axis=0)  # first minimum = lowest class id
    labels = np.asarray(classes)[winners]
    for i in sel:
        labels[i] = exemplars.class_of[i]
    return ClusterAssignment(labels, int(max(classes)) + 1)
