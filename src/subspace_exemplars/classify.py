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
from .dataset import DataMatrix, _as_ints
from .ffs import ExemplarSet
from .lasso import solve_lasso_batch
from .selfrep import _indices

__all__ = ["LabeledExemplars", "src_classify"]


def _check_class_ids(classes) -> None:
    negative = [c for c in classes if c < 0]
    if negative:
        raise ValueError(f"class ids must be >= 0, got {negative[0]}")


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
        idx = tuple(_as_ints(self.indices, "exemplar indices").tolist())
        if len(set(idx)) != len(idx):
            raise ValueError("exemplar indices must be distinct")
        keys = _as_ints(list(self.class_of), "exemplar indices").tolist()
        class_of = dict(zip(keys, _as_ints(list(self.class_of.values()), "class ids").tolist()))
        missing = [i for i in idx if i not in class_of]
        if missing:
            raise ValueError(f"no class given for exemplar index {missing[0]}")
        _check_class_ids(class_of.values())
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "classes", tuple(sorted({class_of[i] for i in idx})))

    @classmethod
    def from_labels(
        cls,
        indices: Sequence[int],
        labels: Mapping[int, int] | Sequence[int],
    ) -> "LabeledExemplars":
        """Build from a map index->class or a label sequence parallel to indices.

        A map may hold other indices too; a negative class anywhere in it is
        rejected.
        """
        idx = _as_ints(indices, "exemplar indices").tolist()
        if isinstance(labels, Mapping):
            _check_class_ids(_as_ints(list(labels.values()), "class ids"))
            class_of = {i: labels[i] for i in idx if i in labels}
        else:
            if len(labels) != len(idx):
                raise ValueError("labels must parallel indices")
            class_of = dict(zip(idx, labels))
        return cls(tuple(idx), class_of)

    @classmethod
    def from_data(cls, exemplars: ExemplarSet | Sequence[int], data: DataMatrix) -> "LabeledExemplars":
        """Label selected indices from the dataset's ground-truth column.

        Raises ValueError for an index outside [0, N).
        """
        if data.labels is None:
            raise ValueError("dataset has no labels to read exemplar classes from")
        idx = _indices(getattr(exemplars, "indices", exemplars), data.count)
        return cls.from_labels(idx, [int(data.labels[i]) for i in idx])


def src_classify(data: DataMatrix, exemplars: LabeledExemplars, lam: float) -> ClusterAssignment:
    """Classify every point by its minimum per-class reconstruction residual.

    Exemplar points keep their given labels (they are the supervision); ties
    in the residual norms go to the lowest class id.  Raises ValueError for an
    exemplar index outside [0, N).
    """
    if not exemplars.indices:
        raise ValueError("need at least one labeled exemplar")
    sel = _indices(exemplars.indices, data.count)
    A = data.points[:, sel]
    C = solve_lasso_batch(A, data.points, lam).coeffs

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
