from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_exemplars import (
    DataMatrix,
    SubspaceSpec,
    ZeroCode,
    build_knn_graph,
    clustering_accuracy,
    esc_pipeline,
    normalize_columns,
    select_random,
    solve_lasso_batch,
    synth_union_of_subspaces,
    threshold_codes,
)
from subspace_exemplars.cluster import (
    _SPAN_RTOL,
    _bisect,
    _connected_components,
    _merge_components,
    _span_residuals,
)
from subspace_exemplars.ffs import METHODS, ffs_lazy


def test_orthogonal_code_groups_stay_separate():
    codes = np.array([
        [1.0, 0.8, 0.0, 0.0],
        [0.2, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.7],
        [0.0, 0.0, 0.3, 0.6],
    ])
    g = build_knn_graph(codes, 2)
    assert np.all(g.matrix[:2, 2:] == 0)
    assert np.all(g.matrix[2:, :2] == 0)


def test_saturated_graph():
    rng = np.random.default_rng(0)
    codes = np.abs(rng.standard_normal((3, 5))) + 0.5  # all-positive inners
    g = build_knn_graph(codes, 4)
    off = ~np.eye(5, dtype=bool)
    assert np.all(g.matrix[off] == 2)
    assert np.all(np.diag(g.matrix) == 0)


def test_graph_invariants_and_zero_code():
    rng = np.random.default_rng(1)
    codes = rng.standard_normal((6, 20))
    g = build_knn_graph(codes, 3)
    assert np.array_equal(g.matrix, g.matrix.T)
    assert set(np.unique(g.matrix)).issubset({0.0, 1.0, 2.0})
    assert g.matrix.sum() <= 2 * 3 * 20  # W has at most t = 3 edges per row
    bad = codes.copy()
    bad[:, 4] = 0.0
    with pytest.raises(ZeroCode) as err:
        build_knn_graph(bad, 3)
    assert err.value.j == 4


def test_graph_order_independent():
    rng = np.random.default_rng(2)
    codes = rng.standard_normal((5, 15))
    g = build_knn_graph(codes, 3)
    perm = rng.permutation(15)
    gp = build_knn_graph(codes[:, perm], 3)
    restored = np.empty_like(gp.matrix)
    restored[np.ix_(perm, perm)] = gp.matrix
    assert np.array_equal(restored, g.matrix)


def _knn_reference(codes, t):
    # one sort per row: descending similarity, ascending index on ties, self
    # excluded
    C = np.asarray(codes, dtype=float)
    Ct = C / np.linalg.norm(C, axis=0)
    sims = Ct.T @ Ct
    n = sims.shape[0]
    W = np.zeros((n, n))
    idx = np.arange(n)
    for i in range(n):
        row = sims[i]
        order = np.lexsort((idx, -row))
        order = order[order != i]
        keep = order[row[order] > 0.0][:t]
        W[i, keep] = 1.0
    A = W + W.T
    np.fill_diagonal(A, 0.0)
    return A


def _bfs_components(adj):
    # components numbered in order of their lowest vertex
    comp = np.full(adj.shape[0], -1)
    cur = 0
    for start in range(adj.shape[0]):
        if comp[start] >= 0:
            continue
        comp[start] = cur
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in np.flatnonzero(adj[v]):
                if comp[w] < 0:
                    comp[w] = cur
                    queue.append(w)
        cur += 1
    return comp


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    base=st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(st.integers(-2, 2), min_size=m, max_size=m).filter(any),
        min_size=1, max_size=8)),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=14),
    t=st.integers(1, 15),
)
def test_graph_and_components_match_references_with_exact_ties(base, picks, t):
    # small integer codes tie exactly, and repeated picks duplicate columns
    codes = np.array([base[p % len(base)] for p in picks], dtype=float).T
    graph = build_knn_graph(codes, t)
    assert np.array_equal(graph.matrix, _knn_reference(codes, t))
    adj = graph.matrix > 0
    assert np.array_equal(_connected_components(adj), _bfs_components(adj))


def test_no_wrong_connections_on_independent_subspaces():
    # the affinity built from search-selected, floor-cleaned codes (the
    # pipeline's graph) never links different classes
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(2, 4, size=2))
        counts = tuple(int(c) for c in rng.integers(8, 20, size=2))
        spec = SubspaceSpec(int(sum(dims) + rng.integers(2, 6)), dims, counts, 0.0, seed)
        data = synth_union_of_subspaces(spec)
        ex = ffs_lazy(data, 1e4, sum(dims), seed=seed)
        codes = solve_lasso_batch(data.points[:, list(ex.indices)], data.points, 1e4)
        g = build_knn_graph(threshold_codes(codes.coeffs), 3)
        same = data.labels[:, None] == data.labels[None, :]
        violations += int((g.matrix[~same] > 0).sum())
    assert violations == 0


def test_spectral_two_blocks():
    a = np.zeros((6, 6))
    a[:3, :3] = 1.0
    a[3:, 3:] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    np.fill_diagonal(a, 0.0)
    assert _bisect(a).tolist() == [False] * 3 + [True] * 3


def test_spectral_permutation_equivariant():
    rng = np.random.default_rng(3)
    blocks = np.zeros((12, 12))
    blocks[:6, :6] = rng.uniform(0.5, 1.0, (6, 6))
    blocks[6:, 6:] = rng.uniform(0.5, 1.0, (6, 6))
    blocks[5, 6] = 0.1  # one weak edge keeps the graph connected
    blocks = (blocks + blocks.T) / 2
    np.fill_diagonal(blocks, 0.0)
    base = _bisect(blocks)
    perm = rng.permutation(12)
    out = _bisect(blocks[np.ix_(perm, perm)])
    assert clustering_accuracy(base[perm].astype(int), out.astype(int)) == 100.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    order_seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 2)),
                   max_size=30),
)
def test_bisect_splits_any_connected_graph_properly(n, order_seed, extra):
    # a random spanning path keeps the graph connected; extra edges vary it
    order = np.random.default_rng(order_seed).permutation(n)
    adj = np.zeros((n, n))
    adj[order[:-1], order[1:]] = 1.0
    for i, j, w in extra:
        if i < n and j < n and i != j:
            adj[i, j] = w
    adj = np.maximum(adj, adj.T)
    side = _bisect(adj)
    assert side.shape == (n,) and side.dtype == bool
    assert not side[0] and side.any()


def test_a_graph_without_edges_gives_one_point_clusters():
    part = esc_pipeline(normalize_columns(DataMatrix(np.eye(3))), 5.0, 3, 1, 3)
    assert sorted(part.labels.tolist()) == [0, 1, 2]


def test_pipeline_perfect_on_independent_subspaces():
    spec = SubspaceSpec(10, (3, 3), (40, 60), 0.0, 5)
    data = synth_union_of_subspaces(spec)
    part = esc_pipeline(data, 1e4, 10, 3, 2, seed=0)
    assert clustering_accuracy(data.labels, part.labels) == 100.0


def test_pipeline_balanced_split_high_accuracy():
    spec = SubspaceSpec(10, (3, 3), (50, 50), 0.0, 8)
    data = synth_union_of_subspaces(spec)
    part = esc_pipeline(data, 1e4, 10, 3, 2, seed=1)
    assert clustering_accuracy(data.labels, part.labels) >= 99.0


def test_pipeline_keeps_a_graph_without_cross_class_edges():
    # criterion 6's x=50, seed 1 dataset: two 3-dim subspaces of R^5 share a
    # line, so the codes are not subspace-preserving, yet the code t-NN
    # graph joins no two classes; grouping its components must keep that
    spec = SubspaceSpec(5, (3, 3), (50, 50), 0.0, 1, coefficients="nonneg")
    data = synth_union_of_subspaces(spec)
    part, _, codes = esc_pipeline(data, 30.0, 10, 3, 2, seed=1, return_details=True)
    cleaned = threshold_codes(codes.coeffs)
    graph = build_knn_graph(cleaned, 3)
    same = data.labels[:, None] == data.labels[None, :]
    assert not np.any(graph.matrix[~same] > 0)
    comp = _connected_components(graph.matrix > 0)
    assert comp.max() + 1 > 2
    merged = _merge_components(data.points, cleaned, comp, 2)
    assert clustering_accuracy(data.labels, merged) == 100.0
    assert clustering_accuracy(data.labels, part.labels) == 100.0


def test_just_enough_components_are_the_partition_without_an_eigensolve(monkeypatch):
    # criterion 6's x=20, seed 2 dataset: the graph has two components and
    # no isolated vertex, so nothing is split
    from subspace_exemplars import cluster

    spec = SubspaceSpec(5, (3, 3), (20, 80), 0.0, 2, coefficients="nonneg")
    data = synth_union_of_subspaces(spec)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("_bisect ran")

    monkeypatch.setattr(cluster, "_bisect", no_eigensolve)
    part, _, codes = esc_pipeline(data, 30.0, 10, 3, 2, seed=2, return_details=True)
    graph = build_knn_graph(threshold_codes(codes.coeffs), 3)
    sizes = np.bincount(_connected_components(graph.matrix > 0))
    assert sizes.size == 2 and sizes.min() > 1
    assert clustering_accuracy(data.labels, part.labels) == 100.0


def test_an_isolated_vertex_among_just_enough_components_is_split_spectrally(monkeypatch):
    # the README's sphere data at pipeline seed 0: two components, one of
    # them an isolated vertex; taking the components as the partition would
    # leave a one-point cluster
    from subspace_exemplars import cluster

    data = synth_union_of_subspaces(SubspaceSpec(5, (3, 3), (10, 90), 0.0, 7))
    calls = []

    def counted(adj):
        calls.append(adj)
        return _bisect(adj)

    monkeypatch.setattr(cluster, "_bisect", counted)
    part, _, codes = esc_pipeline(data, 30.0, 10, 3, 2, seed=0, return_details=True)
    graph = build_knn_graph(threshold_codes(codes.coeffs), 3)
    sizes = np.bincount(_connected_components(graph.matrix > 0))
    assert sizes.size == 2 and sizes.min() == 1
    assert len(calls) == 1
    assert np.bincount(part.labels, minlength=2).min() > 1
    assert clustering_accuracy(data.labels, part.labels) == 100.0


def test_readme_sphere_data_clusters_well_at_every_seed():
    # the README's `synth --D 5 --dims 3,3 --counts 10,90 --seed 7` data:
    # two 3-dim subspaces of R^5 that share a line
    data = synth_union_of_subspaces(SubspaceSpec(5, (3, 3), (10, 90), 0.0, 7))
    floors = (100.0, 91.0, 100.0, 100.0, 100.0)
    for seed, floor in enumerate(floors):
        part = esc_pipeline(data, 30.0, 10, 3, 2, seed=seed)
        assert clustering_accuracy(data.labels, part.labels) >= floor, seed


def test_span_refinement_returns_points_to_the_pure_group():
    rng = np.random.default_rng(4)
    basis_a, basis_b = rng.standard_normal((2, 6, 2))
    a = basis_a @ rng.standard_normal((2, 8))
    b = basis_b @ rng.standard_normal((2, 8))
    points = np.hstack([a, b])
    # group 0 holds all of subspace a and half of b, group 1 the rest of b
    groups = np.array([0] * 12 + [1] * 4)
    # two groups and two clusters: nothing merges, so only points move
    refined = _merge_components(points, points, groups, 2)
    assert np.array_equal(refined, [0] * 8 + [1] * 8)
    # groups that both span the whole space carry no evidence: nothing moves
    noisy = points + 0.01 * rng.standard_normal(points.shape)
    mixed = np.array([0, 1] * 8)
    assert np.array_equal(_merge_components(noisy, noisy, mixed, 2), mixed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 8),
    dims=st.lists(st.integers(1, 7), min_size=1, max_size=4),
    n_groups=st.integers(1, 8),
    n_clusters=st.integers(1, 4),
)
def test_merging_ends_at_a_fixpoint_with_at_most_n_clusters_groups(
    seed, d, dims, n_groups, n_clusters
):
    # random unions of subspaces, often dependent, from random start groups
    rng = np.random.default_rng(seed)
    points = np.hstack([
        rng.standard_normal((d, min(r, d))) @ rng.standard_normal((min(r, d), rng.integers(1, 9)))
        for r in dims
    ])
    points /= np.linalg.norm(points, axis=0)
    labels = _merge_components(points, points, rng.integers(0, n_groups, points.shape[1]),
                               n_clusters)
    assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))
    assert labels.max() < n_clusters
    ids, ranks, res = _span_residuals(points, labels)
    movable = (res <= _SPAN_RTOL) & (ranks[:, None] < ranks[labels][None, :])
    assert not movable.any()


def test_random_exemplars_do_not_beat_search_on_imbalanced_data():
    accs = {"ffs": [], "random": []}
    for seed in range(10):
        spec = SubspaceSpec(10, (3, 3), (10, 90), 0.0, seed)
        data = synth_union_of_subspaces(spec)
        for method in accs:
            part = esc_pipeline(data, 100.0, 10, 3, 2, seed=seed, selection=method)
            accs[method].append(clustering_accuracy(data.labels, part.labels))
    assert np.mean(accs["random"]) <= np.mean(accs["ffs"]) + 1e-9


def test_pipeline_t_stability_on_benign_regime():
    spec = SubspaceSpec(20, (3, 3, 3), (20, 30, 40), 0.0, 4)
    data = synth_union_of_subspaces(spec)
    accs = []
    for t in (3, 4, 5, 6):
        part = esc_pipeline(data, 1e4, 12, t, 3, seed=2)
        accs.append(clustering_accuracy(data.labels, part.labels))
    assert max(accs) - min(accs) < 15.0


def test_pipeline_zero_code_fallback():
    # an isolated direction no exemplar can represent gets a zero code and
    # is attached to its most correlated exemplar's cluster
    pts = np.array(
        [
            [1.0, 0.99, 0.0, 0.0, 0.0],
            [0.0, 0.02, 1.0, 0.98, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    pts[2, 3] = 0.05  # orphan leans slightly toward the second group
    data = normalize_columns(DataMatrix(pts))
    with pytest.warns(UserWarning):
        part = esc_pipeline(data, 5.0, 2, 1, 2, seed=0, selection="random")
    assert part.labels.shape == (5,)
    assert part.labels[4] == part.labels[3]


def test_pipeline_deterministic():
    spec = SubspaceSpec(8, (2, 2), (15, 25), 0.0, 6)
    data = synth_union_of_subspaces(spec)
    a = esc_pipeline(data, 100.0, 6, 3, 2, seed=7)
    b = esc_pipeline(data, 100.0, 6, 3, 2, seed=7)
    assert np.array_equal(a.labels, b.labels)


def test_pipeline_rejects_unknown_selection():
    spec = SubspaceSpec(6, (2,), (8,), 0.0, 0)
    data = synth_union_of_subspaces(spec)
    with pytest.raises(ValueError):
        esc_pipeline(data, 10.0, 2, 3, 1, selection="kmedoids")


@pytest.mark.parametrize("n_clusters", [0, -1, 9])
def test_pipeline_rejects_a_bad_cluster_count_before_selection(monkeypatch, n_clusters):
    from subspace_exemplars import cluster

    data = synth_union_of_subspaces(SubspaceSpec(6, (2,), (8,), 0.0, 0))

    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran")

    monkeypatch.setattr(cluster, "select", no_selection)
    with pytest.raises(ValueError, match="n_clusters"):
        esc_pipeline(data, 10.0, 2, 3, n_clusters)


@pytest.mark.parametrize("t", [0, -1])
def test_pipeline_rejects_a_bad_neighbour_count_before_selection(monkeypatch, t):
    from subspace_exemplars import cluster

    data = synth_union_of_subspaces(SubspaceSpec(6, (2,), (8,), 0.0, 0))

    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran")

    monkeypatch.setattr(cluster, "select", no_selection)
    with pytest.raises(ValueError, match="t="):
        esc_pipeline(data, 10.0, 2, t, 1)


@pytest.mark.parametrize("selection", METHODS)
def test_pipeline_rejects_a_zero_exemplar_count_before_selection(monkeypatch, selection):
    # k is checked with the other arguments, before any selection runs
    from subspace_exemplars import cluster

    data = synth_union_of_subspaces(SubspaceSpec(6, (2,), (8,), 0.0, 0))

    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran")

    monkeypatch.setattr(cluster, "select", no_selection)
    with pytest.raises(ValueError, match="k=0"):
        esc_pipeline(data, 10.0, 0, 3, 1, selection=selection)
