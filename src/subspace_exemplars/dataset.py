"""Data containers, normalization, PCA and synthetic union-of-subspaces data.

All downstream modules work on a ``DataMatrix``: a D x N array whose columns
are data points, assumed (and enforced by ``normalize_columns``) to have unit
Euclidean norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataMatrix",
    "SubspaceSpec",
    "ZeroColumn",
    "BadDim",
    "ParseError",
    "RaggedRows",
    "normalize_columns",
    "pca_project",
    "synth_union_of_subspaces",
    "load_csv",
    "save_csv",
]


class ZeroColumn(ValueError):
    """A column with norm below 1e-14 cannot be normalized."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"column {index} has near-zero norm and cannot be normalized")


class BadDim(ValueError):
    """Requested projection dimension is out of range."""


class ParseError(ValueError):
    """A CSV field could not be parsed."""

    def __init__(self, line: int, message: str = "unparseable value"):
        self.line = line
        super().__init__(f"line {line}: {message}")


class RaggedRows(ValueError):
    """CSV rows do not all have the same number of fields."""

    def __init__(self, line: int, expected: int, got: int):
        self.line = line
        super().__init__(f"line {line}: expected {expected} fields, got {got}")


def _as_ints(values, what: str) -> np.ndarray:
    """A new int array of the values; a value that is not integral raises ValueError."""
    a = np.asarray(values)
    if a.dtype.kind not in "biu":
        f = a.astype(float)
        bad = ~np.isfinite(f) | (f != np.trunc(f))
        if bad.any():
            raise ValueError(f"{what} must be integral, got {f[bad][0]}")
    return a.astype(int)


@dataclass(frozen=True)
class DataMatrix:
    """Column-stacked data points with optional ground-truth labels.

    points : (D, N) finite float array, one sample per column.
    labels : optional (N,) non-negative integer class ids.

    Instances are immutable (arrays are marked read-only) and safe to share
    across threads.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a D x N array with D >= 1, N >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite (no NaN or inf)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = _as_ints(self.labels, "labels")
            if lab.shape != (pts.shape[1],):
                raise ValueError(
                    f"labels must have length N={pts.shape[1]}, got shape {lab.shape}"
                )
            if lab.min() < 0:
                raise ValueError(f"labels must be >= 0, got {int(lab.min())}")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def count(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SubspaceSpec:
    """Parameters for a random union-of-subspaces dataset.

    The subspaces are independent with probability 1 when
    ``sum(subspace_dims) <= ambient_dim``; larger total dimension is allowed
    and yields overlapping subspaces.

    ``coefficients`` selects the within-subspace sampling: "sphere" draws
    coefficient vectors uniformly on the subspace's unit sphere, "nonneg"
    draws them uniformly from the unit cube (entrywise nonnegative, as
    nonnegative image-like features are), which keeps points away from
    subspace intersections.
    """

    ambient_dim: int
    subspace_dims: tuple[int, ...]
    samples_per_subspace: tuple[int, ...]
    noise_sigma: float = 0.0
    seed: int = 0
    coefficients: str = "sphere"

    def __post_init__(self):
        dims = tuple(_as_ints(self.subspace_dims, "subspace_dims").tolist())
        counts = tuple(_as_ints(self.samples_per_subspace, "samples_per_subspace").tolist())
        object.__setattr__(self, "subspace_dims", dims)
        object.__setattr__(self, "samples_per_subspace", counts)
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        if len(dims) == 0 or len(dims) != len(counts):
            raise ValueError("subspace_dims and samples_per_subspace must be equal-length and nonempty")
        if any(d < 1 for d in dims):
            raise ValueError("every subspace dimension must be >= 1")
        if any(d > self.ambient_dim for d in dims):
            raise ValueError("subspace dimensions cannot exceed ambient_dim")
        if any(c < d for c, d in zip(counts, dims)):
            raise ValueError("every subspace needs at least as many samples as its dimension")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.coefficients not in ("sphere", "nonneg"):
            raise ValueError("coefficients must be 'sphere' or 'nonneg'")

    @property
    def n_subspaces(self) -> int:
        return len(self.subspace_dims)


def normalize_columns(m: DataMatrix) -> DataMatrix:
    """Scale every column to unit Euclidean norm, preserving labels.

    Raises ZeroColumn for any column whose norm is below 1e-14.
    """
    norms = np.linalg.norm(m.points, axis=0)
    bad = np.flatnonzero(norms < 1e-14)
    if bad.size:
        raise ZeroColumn(int(bad[0]))
    return DataMatrix(m.points / norms, m.labels)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # Deterministic sign convention: largest-magnitude entry of each
    # direction is positive.  Makes repeated projections reproducible.
    peaks = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[peaks, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def pca_project(m: DataMatrix, target_dim: int) -> DataMatrix:
    """Mean-subtract columns and project onto the top principal directions.

    Directions are ordered by descending singular value; the output lives in
    R^target_dim.  Columns of the result are generally not unit norm; apply
    ``normalize_columns`` afterwards if needed.
    """
    target_dim = int(_as_ints(target_dim, "target_dim"))
    if not 1 <= target_dim <= min(m.dim, m.count):
        raise BadDim(f"target_dim={target_dim} not in [1, min(D={m.dim}, N={m.count})]")
    centered = m.points - m.points.mean(axis=1, keepdims=True)
    u, _, _ = np.linalg.svd(centered, full_matrices=False)
    u = _fix_signs(u[:, :target_dim])
    return DataMatrix(u.T @ centered, m.labels)


def synth_union_of_subspaces(spec: SubspaceSpec) -> DataMatrix:
    """Sample a dataset from a union of random subspaces.

    Per subspace: an orthonormal basis is drawn as the QR factor of an iid
    Gaussian matrix, then points are sampled with coefficients per
    ``spec.coefficients`` (uniform on the subspace's unit sphere by
    default).  Gaussian noise (std ``noise_sigma``) is added before the
    final column normalization.  Deterministic given ``spec.seed``; labels
    are subspace indices.
    """
    rng = np.random.default_rng(spec.seed)
    blocks = []
    labels = []
    for idx, (d, n) in enumerate(zip(spec.subspace_dims, spec.samples_per_subspace)):
        g = rng.standard_normal((spec.ambient_dim, d))
        basis, _ = np.linalg.qr(g)
        if spec.coefficients == "nonneg":
            coeffs = rng.uniform(0.0, 1.0, (d, n))
        else:
            coeffs = rng.standard_normal((d, n))
            coeffs /= np.linalg.norm(coeffs, axis=0)
        blocks.append(basis @ coeffs)
        labels.extend([idx] * n)
    pts = np.hstack(blocks)
    if spec.noise_sigma > 0:
        pts = pts + spec.noise_sigma * rng.standard_normal(pts.shape)
    return normalize_columns(DataMatrix(pts, np.array(labels, dtype=int)))


def save_csv(m: DataMatrix, path, with_labels: bool = False) -> None:
    """Write a DataMatrix as CSV, one sample per row, 17 significant digits.

    With ``with_labels`` an integer label column is appended (labels must be
    present on the matrix).
    """
    if with_labels and m.labels is None:
        raise ValueError("with_labels requested but the matrix has no labels")
    with open(path, "w") as fh:
        for j in range(m.count):
            fields = [f"{v:.17g}" for v in m.points[:, j]]
            if with_labels:
                fields.append(str(int(m.labels[j])))
            fh.write(",".join(fields) + "\n")


def load_csv(path, with_labels: bool = False) -> DataMatrix:
    """Read a CSV written by ``save_csv`` (rows are samples).

    Raises ParseError for unreadable fields and RaggedRows when row widths
    differ.  A round trip through save/load reproduces values exactly.
    """
    rows = []
    labels = []
    expected = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if expected is None:
                expected = len(fields)
                if with_labels and expected < 2:
                    raise ParseError(lineno, "label column requested but row has a single field")
            elif len(fields) != expected:
                raise RaggedRows(lineno, expected, len(fields))
            if with_labels:
                *vals, lab = fields
                try:
                    labels.append(int(lab))
                except ValueError:
                    raise ParseError(lineno, f"bad label {lab!r}") from None
            else:
                vals = fields
            try:
                rows.append([float(v) for v in vals])
            except ValueError:
                raise ParseError(lineno, "bad numeric field") from None
    if not rows:
        raise ParseError(0, "empty file")
    pts = np.array(rows, dtype=float).T
    return DataMatrix(pts, np.array(labels, dtype=int) if with_labels else None)
