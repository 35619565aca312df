"""Exemplar-based subspace clustering.

Pipeline: select exemplars, code every point over them, normalize the
coefficient vectors, connect each point to its t nearest neighbors among the
normalized codes (positive inner product only), symmetrize, and spectrally
cluster the resulting graph.  A graph with more components than clusters is
grouped by subspace fit instead, and the final partition is refined by the
spans of its groups.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .dataset import DataMatrix
from .ffs import select
from .lasso import DEFAULT_TOL, solve_lasso_batch

__all__ = [
    "AffinityGraph",
    "ClusterAssignment",
    "ZeroCode",
    "EmptyGraph",
    "build_knn_graph",
    "threshold_codes",
    "spectral_cluster",
    "esc_pipeline",
]

_ZERO_NORM = 1e-12

# relative floor for code coefficients entering the affinity graph
_REL_COEFF_FLOOR = 1e-2

# relative tolerance of numerical spans: singular values below this fraction
# of the largest are dropped, and a point lies in a span when its residual is
# below this fraction of its norm
_SPAN_RTOL = 1e-6

# k-means: restarts (lowest inertia wins), Lloyd iterations per restart, and
# the relative inertia decrease below which Lloyd stops
_KMEANS_RESTARTS = 10
_LLOYD_MAX_ITER = 300
_LLOYD_RTOL = 1e-9


class ZeroCode(ValueError):
    """A coefficient vector has (numerically) zero norm.

    Signals that the exemplar set cannot represent the point at this lambda.
    """

    def __init__(self, j: int):
        self.j = j
        super().__init__(f"code {j} has zero norm; the exemplars cannot represent it")


class EmptyGraph(ValueError):
    """The affinity matrix has no edges."""


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetrized t-NN graph A = W + W^T over normalized codes.

    matrix    : (N, N) array with entries in {0, 1, 2} and zero diagonal.
    neighbors : per-row neighbor indices of the directed graph W.
    """

    matrix: np.ndarray
    neighbors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ClusterAssignment:
    """Length-N labels in [0, n_clusters)."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        lab = np.array(self.labels, dtype=int)
        if lab.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if lab.size and (lab.min() < 0 or lab.max() >= self.n_clusters):
            raise ValueError("labels must lie in [0, n_clusters)")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)


def threshold_codes(codes: np.ndarray, rel_floor: float = _REL_COEFF_FLOOR) -> np.ndarray:
    """Zero every coefficient of the (M, N) codes far below its column's peak.

    At finite lam an otherwise subspace-preserving code can carry tiny
    off-support activations; dropped before graph construction they cannot
    inject junk edges.  Returns an (M, N) array.
    """
    c = np.asarray(codes, dtype=float)
    return np.where(np.abs(c) < rel_floor * np.abs(c).max(axis=0), 0.0, c)


def build_knn_graph(codes: np.ndarray, t: int) -> AffinityGraph:
    """Connect each code (column of the (M, N) codes) to the t others with
    the largest positive inner product.

    Codes are L2-normalized first; a zero-norm code raises ZeroCode.  Fewer
    than t neighbors are attached when fewer inner products are positive.
    Ties are broken toward the lower index, so construction is
    order-independent.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    C = np.asarray(codes, dtype=float)
    if C.ndim != 2:
        raise ValueError("codes must form an (M, N) matrix")
    norms = np.linalg.norm(C, axis=0)
    bad = np.flatnonzero(norms < _ZERO_NORM)
    if bad.size:
        raise ZeroCode(int(bad[0]))
    Ct = C / norms
    sims = Ct.T @ Ct
    n = sims.shape[0]
    np.fill_diagonal(sims, -np.inf)  # self excluded
    # descending similarity, ascending index on ties
    top = np.argsort(-sims, axis=1, kind="stable")[:, :t]
    rows = np.arange(n)[:, None]
    W = np.zeros((n, n), dtype=float)
    W[rows, top] = sims[rows, top] > 0.0
    return AffinityGraph(W + W.T, tuple(np.flatnonzero(w) for w in W))


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[c] = X[pick]
        d2 = np.minimum(d2, ((X - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray):
    n, k = X.shape[0], centers.shape[0]
    prev_inertia = np.inf
    labels = np.zeros(n, dtype=int)
    for _ in range(_LLOYD_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = X[mask].mean(axis=0)
            else:
                # repopulate an empty cluster with the worst-fit point
                far = int(np.argmax(d2[np.arange(n), labels]))
                centers[c] = X[far]
        if prev_inertia - inertia <= _LLOYD_RTOL * max(abs(prev_inertia), 1e-300):
            break
        prev_inertia = inertia
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator):
    best_labels, best_inertia = None, np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _kmeans_pp_init(X, k, rng)
        labels, inertia = _lloyd(X, centers.copy())
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def spectral_cluster(graph: AffinityGraph, n_clusters: int, seed: int = 0) -> ClusterAssignment:
    """Normalized spectral clustering of the affinity graph.

    Uses the symmetric normalized Laplacian, the eigenvectors of its
    n_clusters smallest eigenvalues, row normalization of the embedding, and
    seeded k-means (k-means++ init, 10 restarts, lowest inertia wins).
    Isolated vertices are given unit degree so the normalization stays
    finite; they are reported via a warning.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    A = np.asarray(graph.matrix, dtype=float)
    if not A.any():
        raise EmptyGraph("affinity matrix has no nonzero entries")
    n = A.shape[0]
    if n_clusters > n:
        raise ValueError("n_clusters cannot exceed the number of points")
    deg = A.sum(axis=1)
    isolated = deg <= 0
    if isolated.any():
        warnings.warn(f"{int(isolated.sum())} isolated vertices in affinity graph")
        deg = np.where(isolated, 1.0, deg)
    dmh = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - dmh[:, None] * A * dmh[None, :]
    lap = 0.5 * (lap + lap.T)
    _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, :n_clusters]
    rn = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(rn > _ZERO_NORM, rn, 1.0)[:, None]
    rng = np.random.default_rng(seed)
    labels = _kmeans(emb, n_clusters, rng)
    return ClusterAssignment(labels, n_clusters)


def _connected_components(adj: np.ndarray) -> np.ndarray:
    """Component id of every vertex, numbered in order of the lowest vertex."""
    return connected_components(adj, directed=False)[1]


def _span_basis(points: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical column span of ``points``."""
    if not points.shape[1]:
        return points[:, :0]
    u, s, _ = np.linalg.svd(points, full_matrices=False)
    return u[:, : int((s > _SPAN_RTOL * s[0]).sum())]


def _span_residuals(points: np.ndarray, groups: np.ndarray):
    """Relative residual of every point against every group's span.

    Returns (ids, ranks, res): the sorted group ids, the numerical rank of
    each group's span, and a (len(ids), N) array of ||x - P x|| / ||x||.
    """
    ids = np.unique(groups)
    norms = np.linalg.norm(points, axis=0)
    norms = np.where(norms > _ZERO_NORM, norms, 1.0)
    bases = [_span_basis(points[:, groups == g]) for g in ids]
    ranks = np.array([b.shape[1] for b in bases])
    res = np.vstack([np.linalg.norm(points - b @ (b.T @ points), axis=0) / norms
                     for b in bases])
    return ids, ranks, res


def _refine_by_span(points: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Move points into the lowest-dimensional group span that holds them.

    A group that mixes subspaces spans more dimensions than a group drawn
    from one subspace.  So, all at once, every point that lies in the span
    of a group of strictly lower rank than its own moves to the lowest-rank
    such group (smallest residual, then lowest id, on ties); spans are then
    recomputed until no point moves.  A move leaves its target's span as it
    was and never raises its source's rank, so the summed rank over points
    falls each round and the loop ends.  A group empties only when all its
    points lie in lower-dimensional spans.  Where every group spans the
    whole space, or no point lies in another group's span (noisy data),
    nothing moves.
    """
    groups = np.array(groups, dtype=int)
    for _ in range(groups.size * points.shape[0] + 1):
        ids, ranks, res = _span_residuals(points, groups)
        own = np.searchsorted(ids, groups)
        movable = (res <= _SPAN_RTOL) & (ranks[:, None] < ranks[own][None, :])
        if not movable.any():
            break
        # rank dominates: residuals that count as a fit are far below 1
        target = np.argmin(np.where(movable, ranks[:, None] + res, np.inf), axis=0)
        moving = movable.any(axis=0)
        groups[moving] = ids[target[moving]]
    return groups


def _merge_components(
    points: np.ndarray, codes: np.ndarray, comp: np.ndarray, n_clusters: int
) -> np.ndarray:
    """Group whole graph components into n_clusters by subspace fit.

    A graph with more components than clusters makes the spectral relaxation
    degenerate (the null space of the Laplacian no longer determines a
    grouping), so components are merged agglomeratively instead.  The codes
    cannot decide the merge: on dependent subspaces they are not
    subspace-preserving, and points of different classes share exemplars.
    The geometry of the points can: components drawn from one subspace fit
    into each other's spans.  First, points of a component that mixes
    subspaces move into lower-dimensional components that hold them
    (``_refine_by_span``).  Then the two groups with the best fit merge,
    until n_clusters remain.  The fit of a pair is the largest relative
    residual of one group's points against the numerical span of the other,
    in whichever direction is smaller.  Fits within the span tolerance count
    as exact; ties go to the strongest absolute inner product between the
    groups' normalized codes (columns of ``codes``), then to the lower ids.
    Ties are common: a group that spans the whole space, as any large one
    does on noisy data, holds every point exactly.
    """
    unit = codes / np.linalg.norm(codes, axis=0)
    code_sims = np.abs(unit.T @ unit)
    groups = _refine_by_span(points, comp)
    while True:
        ids, _, res = _span_residuals(points, groups)
        if ids.size <= n_clusters:
            break
        members = [groups == g for g in ids]
        best = None
        for a in range(1, ids.size):
            for b in range(a):
                fit = min(res[b, members[a]].max(), res[a, members[b]].max())
                link = float(code_sims[np.ix_(members[a], members[b])].max())
                key = (fit if fit > _SPAN_RTOL else 0.0, -link)
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        groups[members[a]] = ids[b]
    return np.unique(groups, return_inverse=True)[1]


def esc_pipeline(
    data: DataMatrix,
    lam: float,
    k: int,
    t: int,
    n_clusters: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    selection: str = "ffs",
    first_index: int | None = None,
    return_details: bool = False,
):
    """Full exemplar-based clustering.

    Returns the ClusterAssignment, or with ``return_details`` the triple
    (assignment, exemplars, codes), codes being the SparseCodes of every
    point.  ``selection`` is a method of ``ffs.select``: "ffs" (lazy
    search), "ffs-naive", or "random".

    Graph stage: the t-NN graph of the floor-cleaned codes is split into
    connected components.  With at most n_clusters components it is
    clustered spectrally; with more, whole components are grouped by
    subspace fit (``_merge_components``).  Either way the partition is then
    refined by the spans of its groups: a point that lies in the span of a
    lower-dimensional group than its own moves there
    (``_refine_by_span``).  On dependent subspaces the codes are not
    subspace-preserving, so a few edges of the graph join classes; a group
    that mixes classes spans more dimensions than a pure one, and the
    refinement hands its points back to the pure groups that hold them.

    Points whose code is zero (unrepresentable at this lambda) are excluded
    from the graph, attached afterwards to the cluster of the exemplar with
    the largest absolute inner product, and reported via a warning.
    """
    rng = np.random.default_rng(seed)
    seed_sel = int(rng.integers(2**63))
    seed_spec = int(rng.integers(2**63))
    exemplars = select(data, selection, lam, k, seed_sel, tol, first_index)

    sel = list(exemplars.indices)
    A = data.points[:, sel]
    codes = solve_lasso_batch(A, data.points, lam, tol)

    norms = np.linalg.norm(codes.coeffs, axis=0)
    zero = norms < _ZERO_NORM
    labels = np.empty(data.count, dtype=int)
    keep = np.flatnonzero(~zero)
    if not keep.size:
        raise ZeroCode(int(np.flatnonzero(zero)[0]))
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} points have zero codes at lam={lam}; "
            "attaching each to its most correlated exemplar's cluster"
        )
    C = threshold_codes(codes.coeffs[:, keep])
    graph = build_knn_graph(C, t)
    comp = _connected_components(graph.matrix > 0)
    Xk = data.points[:, keep]
    if comp.max() + 1 > n_clusters:
        kept_labels = _merge_components(Xk, C, comp, n_clusters)
    else:
        kept_labels = spectral_cluster(graph, n_clusters, seed_spec).labels
    kept_labels = _refine_by_span(Xk, kept_labels)
    labels[keep] = kept_labels
    if zero.any():
        # nearest exemplar by |<x_j, x_e>|; exemplar codes are never zero
        sims = np.abs(A.T @ data.points[:, zero])
        nearest = np.asarray(sel)[np.argmax(sims, axis=0)]
        labels[zero] = kept_labels[np.searchsorted(keep, nearest)]
    assignment = ClusterAssignment(labels, n_clusters)
    if return_details:
        return assignment, exemplars, codes
    return assignment
