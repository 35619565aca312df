"""Exemplar-based subspace clustering.

Pipeline: select exemplars, code every point over them, and connect each
point to its t nearest neighbors among the normalized codes (positive inner
product only).  The components of that graph, bisected by normalized cut
only when too few have two or more points, are refined by span and merged
by subspace fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, _as_ints
from .ffs import select
from .lasso import solve_lasso_batch

__all__ = [
    "AffinityGraph",
    "ClusterAssignment",
    "ZeroCode",
    "build_knn_graph",
    "threshold_codes",
    "esc_pipeline",
]

_ZERO_NORM = 1e-12

# relative floor for code coefficients entering the affinity graph
_REL_COEFF_FLOOR = 1e-2

# relative tolerance of numerical spans: singular values below this fraction
# of the largest are dropped, and a point lies in a span when its residual is
# below this fraction of its norm
_SPAN_RTOL = 1e-6


class ZeroCode(ValueError):
    """A coefficient vector has (numerically) zero norm.

    Signals that the exemplar set cannot represent the point at this lambda.
    """

    def __init__(self, j: int):
        self.j = j
        super().__init__(f"code {j} has zero norm; the exemplars cannot represent it")


@dataclass(frozen=True)
class AffinityGraph:
    """Symmetrized t-NN graph A = W + W^T over normalized codes, W being
    the directed graph from each code to its neighbors.

    matrix : (N, N) array with entries in {0, 1, 2} and zero diagonal.
    """

    matrix: np.ndarray


@dataclass(frozen=True)
class ClusterAssignment:
    """Length-N labels in [0, n_clusters)."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        object.__setattr__(self, "n_clusters", int(_as_ints(self.n_clusters, "n_clusters")))
        lab = _as_ints(self.labels, "labels")
        if lab.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if lab.size and (lab.min() < 0 or lab.max() >= self.n_clusters):
            raise ValueError("labels must lie in [0, n_clusters)")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)


def threshold_codes(codes: np.ndarray) -> np.ndarray:
    """Zero every coefficient of the (M, N) codes far below its column's peak.

    At finite lam an otherwise subspace-preserving code can carry tiny
    off-support activations; dropped before graph construction they cannot
    inject junk edges.  Returns an (M, N) array.
    """
    c = np.asarray(codes, dtype=float)
    return np.where(np.abs(c) < _REL_COEFF_FLOOR * np.abs(c).max(axis=0), 0.0, c)


def build_knn_graph(codes: np.ndarray, t: int) -> AffinityGraph:
    """Connect each code (column of the (M, N) codes) to the t others with
    the largest positive inner product.

    Codes are L2-normalized first; a zero-norm code raises ZeroCode.  Fewer
    than t neighbors are attached when fewer inner products are positive.
    Ties are broken toward the lower index, so construction is
    order-independent.
    """
    t = int(_as_ints(t, "t"))
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
    return AffinityGraph(W + W.T)


def _bisect(adj: np.ndarray) -> np.ndarray:
    """Normalized-cut bisection of a connected weighted graph.

    Takes the sign of the second eigenvector of the normalized Laplacian
    I - D^-1/2 A D^-1/2 (a zero degree counts as 1) and returns the mask of
    the side that does not hold vertex 0, so the result does not depend on
    the sign the eigensolver picks.  On a connected graph with two or more
    vertices that eigenvector is orthogonal to the positive D^1/2 1, so it
    has entries of both signs and both sides are nonempty: every cut of
    ``esc_pipeline``'s split loop is proper, so the loop ends.
    """
    deg = adj.sum(axis=1)
    dmh = 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0))
    lap = np.eye(adj.shape[0]) - dmh[:, None] * adj * dmh[None, :]
    side = np.linalg.eigh(lap)[1][:, 1] > 0
    return side != side[0]


def _connected_components(adj: np.ndarray) -> np.ndarray:
    """Component id of every vertex, numbered in order of the lowest vertex.

    An edge in either triangle of ``adj`` joins its two ends.  Hook and
    shortcut (Shiloach & Vishkin, 1982): every vertex points to a parent no
    higher than itself, and a root points to itself.  Each round, every
    edge hooks the higher of its two roots onto the lower (the lowest, where
    several edges hook one root), and pointer jumping then flattens every
    tree to a star.  Pointers only
    fall, so no cycle forms, and a round that changes no root leaves every
    edge inside one tree: each tree is then a component, rooted at its
    lowest vertex.  A root that neither hooks nor is hooked onto in a round
    saw all its neighbouring trees hook onto lower roots, so it hooks in
    the next round.  The trees of a component therefore at least halve
    every two rounds, and the loop ends after O(log N) rounds.
    """
    src, dst = np.nonzero(adj)
    root = np.arange(adj.shape[0])
    while True:
        a, b = root[src], root[dst]
        hooked = root.copy()
        np.minimum.at(hooked, np.maximum(a, b), np.minimum(a, b))
        if np.array_equal(hooked, root):
            return np.unique(root, return_inverse=True)[1]
        root = hooked
        while not np.array_equal(root, jumped := root[root]):
            root = jumped


def _span_residuals(points: np.ndarray, groups: np.ndarray):
    """Relative residual of every point against every group's span.

    Returns (ids, ranks, res): the sorted group ids, the numerical rank of
    each group's span, and a (len(ids), N) array of ||x - P x|| / ||x||.
    """
    ids = np.unique(groups)
    norms = np.linalg.norm(points, axis=0)
    norms = np.where(norms > _ZERO_NORM, norms, 1.0)
    svds = [np.linalg.svd(points[:, groups == g], full_matrices=False)[:2] for g in ids]
    ranks = np.array([int((s > _SPAN_RTOL * s[0]).sum()) for _, s in svds])
    res = np.vstack([np.linalg.norm(points - u[:, :r] @ (u[:, :r].T @ points), axis=0) / norms
                     for (u, _), r in zip(svds, ranks)])
    return ids, ranks, res


def _merge_components(
    points: np.ndarray, codes: np.ndarray, comp: np.ndarray, n_clusters: int
) -> np.ndarray:
    """Refine the groups ``comp`` by span and merge them into n_clusters.

    Each round takes every group's span once.  A group that mixes subspaces
    spans more dimensions than a pure one, so if some point lies in the span
    of a group of strictly lower rank than its own, all such points move at
    once to the lowest-rank such group (smallest residual, then lowest id,
    on ties).  Else, while more than n_clusters groups remain, the pair that
    fits best merges: its fit is the largest relative residual of one
    group's points against the other's span, in the smaller direction, exact
    within the span tolerance.  Ties (a group spanning R^D holds every point)
    go to the strongest |<u_i, u_j>| between the groups' normalized codes
    (columns of ``codes``), then to the lower ids.  Else the loop ends.

    A move keeps its target's span and never raises its source's rank, so
    it lowers the summed rank over points (at most N * D) and adds no group;
    a merge lowers the group count.  So (group count, summed rank) falls
    lexicographically each round and N * (N * D + 1) rounds bound the loop;
    at that cap the groups are returned as they are.  Labels follow the
    order of the surviving ids of ``comp``.
    """
    unit = codes / np.linalg.norm(codes, axis=0)
    groups = np.array(comp, dtype=int)
    for _ in range(groups.size * (groups.size * points.shape[0] + 1)):
        ids, ranks, res = _span_residuals(points, groups)
        own = np.searchsorted(ids, groups)
        movable = (res <= _SPAN_RTOL) & (ranks[:, None] < ranks[own][None, :])
        if movable.any():
            # rank dominates: residuals that count as a fit are far below 1
            target = np.argmin(np.where(movable, ranks[:, None] + res, np.inf), axis=0)
            moving = movable.any(axis=0)
            groups[moving] = ids[target[moving]]
        elif ids.size > n_clusters:
            members = [groups == g for g in ids]
            best = None
            for a in range(1, ids.size):
                for b in range(a):
                    fit = min(res[b, members[a]].max(), res[a, members[b]].max())
                    link = float(np.abs(unit[:, members[a]].T @ unit[:, members[b]]).max())
                    key = (fit if fit > _SPAN_RTOL else 0.0, -link)
                    if best is None or key < best[0]:
                        best = (key, a, b)
            _, a, b = best
            groups[members[a]] = ids[b]
        else:
            break
    return np.unique(groups, return_inverse=True)[1]


def esc_pipeline(
    data: DataMatrix,
    lam: float,
    k: int,
    t: int,
    n_clusters: int,
    seed: int = 0,
    selection: str = "ffs",
    return_details: bool = False,
):
    """Full exemplar-based clustering.

    Returns the ClusterAssignment, or with ``return_details`` the triple
    (assignment, exemplars, codes), codes being the SparseCodes of every
    point.  ``selection`` is a method of ``ffs.select``: "ffs" (lazy
    search) or "random"; ``seed`` seeds only the selection.

    Graph stage: the connected components of the t-NN graph of the
    floor-cleaned codes are the starting groups.  While fewer than
    n_clusters groups have two or more points (a one-point group cannot
    stand alone as a cluster), the largest group is bisected by normalized
    cut (``_bisect``) and the groups are taken again as connected
    components, so every group stays connected and every cut is proper.
    ``_merge_components`` then refines by span and merges by subspace fit,
    in one loop, down to n_clusters: on dependent subspaces a group joined
    across classes by a few edges spans more dimensions than a pure one and
    hands its points back.  Cluster ids follow the groups' lowest vertex.

    Points whose code is zero (unrepresentable at this lambda) are excluded
    from the graph, attached afterwards to the cluster of the exemplar with
    the largest absolute inner product, and reported via a warning.
    """
    k, t = int(_as_ints(k, "k")), int(_as_ints(t, "t"))
    n_clusters = int(_as_ints(n_clusters, "n_clusters"))
    if not 1 <= n_clusters <= data.count:
        raise ValueError(f"n_clusters={n_clusters} must be in [1, N={data.count}]")
    if not 1 <= k <= data.count:
        raise ValueError(f"k={k} must be in [1, N={data.count}]")
    if t < 1:
        raise ValueError(f"t={t} must be >= 1")
    rng = np.random.default_rng(seed)
    seed_sel = int(rng.integers(2**63))
    exemplars = select(data, selection, lam, k, seed_sel)

    sel = list(exemplars.indices)
    A = data.points[:, sel]
    codes = solve_lasso_batch(A, data.points, lam)

    norms = np.linalg.norm(codes.coeffs, axis=0)
    zero = norms < _ZERO_NORM
    labels = np.empty(data.count, dtype=int)
    keep = np.flatnonzero(~zero)
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} points have zero codes at lam={lam}; "
            "attaching each to its most correlated exemplar's cluster"
        )
    C = threshold_codes(codes.coeffs[:, keep])
    graph = build_knn_graph(C, t)
    adj = graph.matrix > 0
    groups = _connected_components(adj)
    sizes = np.bincount(groups)
    # a one-point group can never stand alone as a cluster
    while (sizes > 1).sum() < n_clusters and sizes.max() > 1:
        members = np.flatnonzero(groups == np.argmax(sizes))
        groups[members[_bisect(graph.matrix[np.ix_(members, members)])]] = sizes.size
        groups = _connected_components(adj & (groups[:, None] == groups[None, :]))
        sizes = np.bincount(groups)
    kept_labels = _merge_components(data.points[:, keep], C, groups, n_clusters)
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
