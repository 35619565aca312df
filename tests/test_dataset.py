import math

import numpy as np
import pytest

from subspace_exemplars import (
    BadDim,
    DataMatrix,
    ParseError,
    RaggedRows,
    SubspaceSpec,
    ZeroColumn,
    load_csv,
    normalize_columns,
    pca_project,
    save_csv,
    synth_union_of_subspaces,
)


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
