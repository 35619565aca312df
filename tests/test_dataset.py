import math

import numpy as np
import pytest

from subspace_exemplars import (
    BadDim,
    ClusterAssignment,
    DataMatrix,
    ExemplarSet,
    F_cost,
    LabeledExemplars,
    ParseError,
    RaggedRows,
    SubspaceSpec,
    ZeroColumn,
    esc_pipeline,
    f_cost,
    ffs_lazy,
    ffs_naive,
    load_csv,
    normalize_columns,
    pca_project,
    save_csv,
    synth_union_of_subspaces,
)
from subspace_exemplars.cluster import build_knn_graph
from subspace_exemplars.ffs import select, select_random


def test_normalize_three_four_five():
    m = DataMatrix(np.array([[3.0], [4.0]]))
    out = normalize_columns(m)
    assert np.allclose(out.points[:, 0], [0.6, 0.8])


def test_normalize_unit_column_unchanged():
    col = np.array([[1.0], [0.0], [0.0]])
    out = normalize_columns(DataMatrix(col))
    assert np.max(np.abs(out.points - col)) <= 1e-16


def test_normalize_zero_column_raises():
    m = DataMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ZeroColumn) as err:
        normalize_columns(m)
    assert err.value.index == 1


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    m = DataMatrix(rng.standard_normal((4, 9)))
    once = normalize_columns(m)
    twice = normalize_columns(once)
    assert np.allclose(once.points, twice.points, atol=1e-15)


def test_normalize_preserves_labels():
    m = DataMatrix(np.array([[3.0, 1.0], [4.0, 1.0]]), labels=[5, 7])
    out = normalize_columns(m)
    assert list(out.labels) == [5, 7]


def test_data_matrix_validation():
    with pytest.raises(ValueError):
        DataMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        DataMatrix(np.ones((2, 3)), labels=[1, 2])


def test_data_matrix_rejects_a_negative_label():
    with pytest.raises(ValueError, match="got -1"):
        DataMatrix(np.ones((2, 3)), labels=[0, -1, 2])


def test_data_matrix_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.ones((2, 3))
        pts[1, 2] = bad
        with pytest.raises(ValueError):
            DataMatrix(pts)


def test_data_matrix_read_only():
    m = DataMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.points[0, 0] = 5.0


def test_pca_exact_low_rank():
    rng = np.random.default_rng(1)
    basis, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    pts = basis @ rng.standard_normal((2, 40))
    m = DataMatrix(pts)
    proj = pca_project(m, 2)
    centered = pts - pts.mean(axis=1, keepdims=True)
    # the projection is onto a subspace, so zero reconstruction error is
    # equivalent to preserving the total energy
    assert abs(np.sum(proj.points**2) - np.sum(centered**2)) <= 1e-10


def test_pca_full_dim_preserves_inner_products():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((4, 30))
    pts -= pts.mean(axis=1, keepdims=True)
    proj = pca_project(DataMatrix(pts), 4)
    assert np.allclose(proj.points.T @ proj.points, pts.T @ pts, atol=1e-10)


def test_pca_captured_variance_matches_svd_oracle():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((5, 100))
    proj = pca_project(DataMatrix(pts), 3)
    captured = np.sum(proj.points**2)
    centered = pts - pts.mean(axis=1, keepdims=True)
    svals = np.linalg.svd(centered, compute_uv=False)
    assert abs(captured - np.sum(svals[:3] ** 2)) <= 1e-8


def test_pca_idempotent():
    rng = np.random.default_rng(4)
    m = DataMatrix(rng.standard_normal((6, 50)))
    once = pca_project(m, 3)
    twice = pca_project(once, 3)
    assert np.allclose(once.points, twice.points, atol=1e-10)


def test_pca_bad_dim():
    m = DataMatrix(np.ones((3, 5)))
    with pytest.raises(BadDim):
        pca_project(m, 0)
    with pytest.raises(BadDim):
        pca_project(m, 4)


def _class_block(data, label):
    return data.points[:, data.labels == label]


def test_synth_fig2_shape_and_ranks():
    spec = SubspaceSpec(5, (3, 3), (10, 90), 0.0, 7)
    data = synth_union_of_subspaces(spec)
    assert data.points.shape == (5, 100)
    assert np.allclose(np.linalg.norm(data.points, axis=0), 1.0, atol=1e-12)
    for c in (0, 1):
        svals = np.linalg.svd(_class_block(data, c), compute_uv=False)
        assert svals[2] > 1e-10 and (svals.size <= 3 or svals[3] < 1e-10)


def test_synth_full_space():
    spec = SubspaceSpec(4, (4,), (12,), 0.0, 3)
    data = synth_union_of_subspaces(spec)
    assert np.linalg.matrix_rank(data.points, tol=1e-10) == 4


def test_synth_deterministic():
    spec = SubspaceSpec(6, (2, 3), (8, 9), 0.1, 11)
    a = synth_union_of_subspaces(spec)
    b = synth_union_of_subspaces(spec)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_synth_noiseless_points_in_span():
    spec = SubspaceSpec(8, (2, 3), (10, 10), 0.0, 5)
    data = synth_union_of_subspaces(spec)
    for c in (0, 1):
        block = _class_block(data, c)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        d = (2, 3)[c]
        basis = u[:, :d]
        resid = block - basis @ (basis.T @ block)
        assert np.max(np.abs(resid)) <= 1e-10


def test_synth_nonneg_coefficients():
    spec = SubspaceSpec(5, (3, 3), (10, 10), 0.0, 1, coefficients="nonneg")
    data = synth_union_of_subspaces(spec)
    # nonnegative combinations of a shared basis always correlate positively
    for c in (0, 1):
        block = _class_block(data, c)
        assert np.min(block.T @ block) >= -1e-12


def test_synth_validation():
    with pytest.raises(ValueError):
        SubspaceSpec(5, (3,), (2,))  # fewer samples than dimension
    with pytest.raises(ValueError):
        SubspaceSpec(5, (0,), (3,))
    with pytest.raises(ValueError):
        SubspaceSpec(5, (3, 3), (4,))
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            SubspaceSpec(5, (3,), (4,), noise_sigma=sigma)
    with pytest.raises(ValueError):
        SubspaceSpec(5, (3,), (4,), coefficients="bogus")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    m = DataMatrix(rng.standard_normal((3, 2)))
    path = tmp_path / "m.csv"
    save_csv(m, path)
    back = load_csv(path)
    assert np.array_equal(back.points, m.points)


def test_csv_labels_round_trip(tmp_path):
    m = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), labels=[1, 0])
    path = tmp_path / "m.csv"
    save_csv(m, path, with_labels=True)
    back = load_csv(path, with_labels=True)
    assert list(back.labels) == [1, 0]
    assert np.array_equal(back.points, m.points)


def test_csv_bytes_are_17_significant_digits_and_integer_labels(tmp_path):
    m = DataMatrix(np.array([[-0.0, 0.1, 1e-300], [2.0 / 3.0, -1.0, 123456789.125]]),
                   labels=[3, 0, 2**62 + 1])
    path = tmp_path / "m.csv.gz"  # plain text whatever the name; a label beyond 2**53 stays exact
    save_csv(m, path, with_labels=True)
    assert path.read_bytes() == (b"-0,0.66666666666666663,3\n"
                                 b"0.10000000000000001,-1,0\n"
                                 b"1e-300,123456789.125,4611686018427387905\n")
    assert load_csv(path, with_labels=True).labels.tolist() == [3, 0, 2**62 + 1]
    save_csv(m, path)
    assert path.read_bytes() == (b"-0,0.66666666666666663\n0.10000000000000001,-1\n"
                                 b"1e-300,123456789.125\n")
    back = load_csv(path)
    assert np.array_equal(back.points, m.points) and np.signbit(back.points[0, 0])


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(RaggedRows):
        load_csv(path)


def test_csv_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,fish\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,2.0\nnan,3.0\n")
    with pytest.raises(ValueError):
        load_csv(path)


def test_csv_save_labels_requires_labels(tmp_path):
    with pytest.raises(ValueError):
        save_csv(DataMatrix(np.ones((2, 2))), tmp_path / "x.csv", with_labels=True)


_UNIT = normalize_columns(DataMatrix(np.random.default_rng(0).standard_normal((3, 6))))


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: DataMatrix(np.eye(3), [0.5, 1.9, 2.2]), "0.5"),
        (lambda: ClusterAssignment([0.7, 1.2], 2), "0.7"),
        (lambda: LabeledExemplars.from_labels([0.5, 3.2], [0, 1]), "0.5"),
        (lambda: ExemplarSet((0.5, 2.7), 2, 0), "0.5"),
        (lambda: ExemplarSet.from_json('{"indices": [1.5, 2], "k": 2, "seed": 0}'), "1.5"),
        (lambda: F_cost([1.9], _UNIT, 10.0), "1.9"),
        (lambda: f_cost(_UNIT.points[:, 0], [0.5], _UNIT, 10.0), "0.5"),
        (lambda: ffs_naive(_UNIT, 10.0, 2, first_index=1.5), "1.5"),
        (lambda: SubspaceSpec(5, (2.5, 2), (10, 10)), "2.5"),
        (lambda: SubspaceSpec(5, (2, 2), (10.9, 10)), "10.9"),
        (lambda: SubspaceSpec(2.5, (1,), (3,)), "2.5"),
        (lambda: SubspaceSpec(math.nan, (1,), (3,)), "nan"),
        (lambda: pca_project(_UNIT, 2.7), "2.7"),
    ],
    ids=["DataMatrix", "ClusterAssignment", "LabeledExemplars", "ExemplarSet",
         "ExemplarSet.from_json", "F_cost", "f_cost", "ffs_naive", "SubspaceSpec.dims",
         "SubspaceSpec.counts", "SubspaceSpec.ambient_dim", "SubspaceSpec.ambient_dim.nan",
         "pca_project"],
)
def test_a_fractional_id_is_rejected_not_truncated(build, value):
    with pytest.raises(ValueError, match=f"integral, got {value}$"):
        build()


def test_integral_floats_and_numpy_integers_pass_as_ids():
    assert DataMatrix(np.eye(3), [0.0, np.int64(1), 2]).labels.tolist() == [0, 1, 2]
    assert ExemplarSet((np.int32(1), 2.0), 2, 0).indices == (1, 2)
    assert SubspaceSpec(5, (2.0, 2), (np.int64(10), 10)).subspace_dims == (2, 2)
    assert pca_project(_UNIT, 2.0).dim == 2


_DATA = synth_union_of_subspaces(SubspaceSpec(6, (2, 2), (5, 5), 0.0, 0))


@pytest.mark.parametrize(
    "build, what, value",
    [
        (lambda: ffs_lazy(_DATA, 10.0, 2.5), "k", "2.5"),
        (lambda: ffs_naive(_DATA, 10.0, 2.5), "k", "2.5"),
        (lambda: select(_DATA, "ffs", 10.0, 2.5), "k", "2.5"),
        (lambda: select_random(_DATA, 2.5), "k", "2.5"),
        (lambda: esc_pipeline(_DATA, 10.0, 4.5, 3, 2), "k", "4.5"),
        (lambda: esc_pipeline(_DATA, 10.0, 4, 2.5, 2), "t", "2.5"),
        (lambda: esc_pipeline(_DATA, 10.0, 4, 3, 2.5), "n_clusters", "2.5"),
        (lambda: build_knn_graph(np.eye(4), 2.5), "t", "2.5"),
        (lambda: ClusterAssignment([0, 1], 2.5), "n_clusters", "2.5"),
        (lambda: ExemplarSet((1, 2), 2.7, 0), "k", "2.7"),
        (lambda: ExemplarSet((1, 2), 2, 0.5), "seed", "0.5"),
        (lambda: ExemplarSet.from_json('{"indices": [1, 2], "k": 2.7, "seed": 0}'), "k", "2.7"),
        (lambda: ExemplarSet.from_json('{"indices": [1, 2], "k": 2, "seed": 0.5}'), "seed", "0.5"),
        (lambda: SubspaceSpec(5, (3,), (4,), seed=1.5), "seed", "1.5"),
    ],
    ids=["ffs_lazy", "ffs_naive", "select", "select_random", "esc_pipeline.k", "esc_pipeline.t",
         "esc_pipeline.n_clusters", "build_knn_graph", "ClusterAssignment", "ExemplarSet.k",
         "ExemplarSet.seed", "ExemplarSet.from_json.k", "ExemplarSet.from_json.seed",
         "SubspaceSpec.seed"],
)
def test_a_fractional_count_or_seed_is_rejected_at_the_boundary(build, what, value):
    # not a TypeError from deep inside, and not a silently kept or truncated value
    with pytest.raises(ValueError, match=f"^{what} must be integral, got {value}$"):
        build()


def test_integral_float_counts_pass_and_seeds_stay_exact():
    assert ffs_lazy(_DATA, 10.0, 2.0).k == 2
    assert select_random(_DATA, np.int64(3)).indices == select_random(_DATA, 3).indices
    assert esc_pipeline(_DATA, 10.0, 4.0, 3.0, 2.0).n_clusters == 2
    # k and seed are kept as Python ints, so a seed above int64 keeps its value
    out = ExemplarSet((1, 2), 2.0, np.uint64(2**64 - 1))
    assert (out.k, out.seed) == (2, 2**64 - 1)
    assert type(out.k) is int and type(out.seed) is int
    assert ExemplarSet((1, 2), 2, 2**70).seed == 2**70
    spec = SubspaceSpec(5.0, (3,), (4,), seed=np.uint64(2**64 - 1))
    assert (spec.ambient_dim, spec.seed) == (5, 2**64 - 1)
    assert type(spec.ambient_dim) is int and type(spec.seed) is int
    assert synth_union_of_subspaces(SubspaceSpec(5, (3,), (4,), seed=2**70)).count == 4


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SubspaceSpec(0, (1,), (3,)), "ambient_dim must be >= 1, got 0"),
        (lambda: SubspaceSpec(-2.0, (1,), (3,)), "ambient_dim must be >= 1, got -2"),
        (lambda: SubspaceSpec(5, (3,), (4,), seed=-1), "seed must be >= 0, got -1"),
        (lambda: ExemplarSet((-1, 2), 2, 0), "exemplar indices must be >= 0, got -1"),
        (lambda: ExemplarSet.from_json('{"indices": [3, -2], "k": 2, "seed": 0}'),
         "exemplar indices must be >= 0, got -2"),
        (lambda: ExemplarSet((1, 2), 3, 0), "k must equal the number of indices, 2, got 3"),
        (lambda: ExemplarSet.from_json('{"indices": [1, 2], "k": 5, "seed": 0}'),
         "k must equal the number of indices, 2, got 5"),
        (lambda: ExemplarSet((), 1, 0), "k must equal the number of indices, 0, got 1"),
        (lambda: ffs_lazy(_DATA, 10.0, 2**70), f"k must fit in int64, got {2**70}"),
        (lambda: pca_project(_DATA, 2**70), f"target_dim must fit in int64, got {2**70}"),
        (lambda: ffs_lazy(_DATA, 10.0, np.uint64(2**64 - 1)),
         f"k must fit in int64, got {2**64 - 1}"),
        (lambda: esc_pipeline(_DATA, 10.0, 4, 1e30, 2), r"t must fit in int64, got 1e\+30"),
        (lambda: ExemplarSet((1, 2), 2, -1), "seed must be >= 0, got -1"),
        (lambda: ExemplarSet.from_json('{"indices": [1, 2], "k": 2, "seed": -3}'),
         "seed must be >= 0, got -3"),
        (lambda: ffs_lazy(_DATA, 10.0, 2, seed=-1), "seed must be >= 0, got -1"),
        (lambda: ffs_naive(_DATA, 10.0, 2, seed=-1), "seed must be >= 0, got -1"),
        (lambda: ffs_naive(_DATA, 10.0, 2, seed=-1, first_index=0), "seed must be >= 0, got -1"),
        (lambda: select(_DATA, "ffs", 10.0, 2, seed=-1), "seed must be >= 0, got -1"),
        (lambda: select_random(_DATA, 2, seed=-1), "seed must be >= 0, got -1"),
        (lambda: esc_pipeline(_DATA, 10.0, 4, 3, 2, seed=-1), "seed must be >= 0, got -1"),
    ],
    ids=["SubspaceSpec.ambient_dim.zero", "SubspaceSpec.ambient_dim.negative",
         "SubspaceSpec.seed.negative", "ExemplarSet.negative_index",
         "ExemplarSet.from_json.negative_index", "ExemplarSet.k", "ExemplarSet.from_json.k",
         "ExemplarSet.empty", "ffs_lazy.k.beyond_int64", "pca_project.beyond_int64",
         "ffs_lazy.k.uint64_beyond_int64", "esc_pipeline.t.float_beyond_int64",
         "ExemplarSet.seed.negative", "ExemplarSet.from_json.seed.negative",
         "ffs_lazy.seed.negative", "ffs_naive.seed.negative",
         "ffs_naive.first_index.seed.negative", "select.seed.negative",
         "select_random.seed.negative", "esc_pipeline.seed.negative"],
)
def test_an_out_of_range_count_seed_or_index_is_rejected_at_the_boundary(build, message):
    # an index of -1 would alias point N-1 under points[:, indices]
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
