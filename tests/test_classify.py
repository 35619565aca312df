import numpy as np
import pytest

from subspace_exemplars import (
    DataMatrix,
    LabeledExemplars,
    SubspaceSpec,
    ffs_lazy,
    normalize_columns,
    src_classify,
    synth_union_of_subspaces,
)


def _instance(seed=0, dims=(3, 3), counts=(30, 12), ambient=10):
    spec = SubspaceSpec(ambient, dims, counts, 0.0, seed)
    data = synth_union_of_subspaces(spec)
    ex = ffs_lazy(data, 1e4, sum(dims), seed=seed)
    lab = LabeledExemplars.from_data(ex, data)
    return data, ex, lab


def test_all_points_classified_correctly():
    data, ex, lab = _instance()
    out = src_classify(data, lab, 1e4)
    assert np.array_equal(out.labels, data.labels)


def test_residuals_zero_vs_one_in_preserving_regime():
    data, ex, lab = _instance(seed=3)
    sel = list(lab.indices)
    a = data.points[:, sel]
    from subspace_exemplars import solve_lasso_batch

    codes = solve_lasso_batch(a, data.points, 1e6)
    ex_labels = np.array([lab.class_of[i] for i in sel])
    j = next(i for i in range(data.count) if i not in sel)
    c = codes[j].coeffs
    x = data.points[:, j]
    own = int(data.labels[j])
    for cl in (0, 1):
        mask = ex_labels == cl
        resid = np.linalg.norm(x - a[:, mask] @ c[mask])
        if cl == own:
            assert resid <= 1e-4
        else:
            assert abs(resid - 1.0) <= 1e-4


def test_full_residual_bounded_by_winner():
    data, ex, lab = _instance(seed=5)
    sel = list(lab.indices)
    a = data.points[:, sel]
    from subspace_exemplars import solve_lasso_batch

    codes = solve_lasso_batch(a, data.points, 1e4)
    ex_labels = np.array([lab.class_of[i] for i in sel])
    for j in range(0, data.count, 7):
        c = codes[j].coeffs
        x = data.points[:, j]
        full = np.linalg.norm(x - a @ c)
        per_class = [
            np.linalg.norm(x - a[:, ex_labels == cl] @ c[ex_labels == cl])
            for cl in (0, 1)
        ]
        assert full <= min(per_class) + 1e-9


def test_zero_code_ties_to_lowest_class():
    # a target orthogonal to every exemplar keeps a zero code, all class
    # residuals equal one, and the tie goes to the lowest class id
    pts = np.eye(3)
    data = normalize_columns(DataMatrix(pts, labels=[0, 1, 1]))
    lab = LabeledExemplars.from_labels([0, 1], [0, 1])
    out = src_classify(data, lab, 5.0)
    assert out.labels[2] == 0


def test_exemplars_keep_their_labels():
    data, ex, lab = _instance(seed=7)
    flipped = dict(lab.class_of)
    some = list(flipped)[0]
    flipped[some] = 1 - flipped[some]  # deliberately wrong supervision
    lab2 = LabeledExemplars.from_labels(list(lab.indices), flipped)
    out = src_classify(data, lab2, 1e4)
    assert out.labels[some] == flipped[some]


def test_class_permutation_equivariance():
    data, ex, lab = _instance(seed=9)
    out = src_classify(data, lab, 1e4)
    swapped = {i: 1 - c for i, c in lab.class_of.items()}
    lab2 = LabeledExemplars.from_labels(list(lab.indices), swapped)
    out2 = src_classify(data, lab2, 1e4)
    assert np.array_equal(out2.labels, 1 - out.labels)


def test_exemplar_order_invariance():
    data, ex, lab = _instance(seed=11)
    out = src_classify(data, lab, 1e4)
    order = list(lab.indices)[::-1]
    lab2 = LabeledExemplars.from_labels(order, {i: lab.class_of[i] for i in order})
    out2 = src_classify(data, lab2, 1e4)
    assert np.array_equal(out.labels, out2.labels)


def test_a_map_without_an_exemplar_is_rejected():
    with pytest.raises(ValueError, match="no class given for exemplar index 2"):
        LabeledExemplars.from_labels([0, 2], {0: 1, 1: 0})


def test_a_negative_class_is_rejected():
    with pytest.raises(ValueError, match="got -1"):
        LabeledExemplars.from_labels([0, 2], [1, -1])
    with pytest.raises(ValueError, match="got -3"):
        LabeledExemplars((0,), {0: -3})
    # a negative class on an index that is not selected is rejected too
    with pytest.raises(ValueError, match="got -1"):
        LabeledExemplars.from_labels([0, 2], {0: 1, 2: 0, 5: -1})


def test_labeled_exemplars_validation():
    with pytest.raises(ValueError):
        LabeledExemplars.from_labels([0, 0], [1, 1])
    with pytest.raises(ValueError):
        LabeledExemplars.from_labels([0, 1], [1])
    with pytest.raises(ValueError):
        LabeledExemplars.from_data([0, 1], DataMatrix(np.eye(2)))


@pytest.mark.parametrize("bad", [-1, 20])
def test_an_exemplar_index_outside_the_data_is_rejected(bad):
    # -1 would alias point N-1, and N would index past the data
    data = synth_union_of_subspaces(SubspaceSpec(6, (2, 2), (10, 10), 0.0, 0))
    with pytest.raises(ValueError, match=r"\[0, N=20\)"):
        src_classify(data, LabeledExemplars((bad, 0), {bad: 1, 0: 0}), 1e4)
    with pytest.raises(ValueError, match=r"\[0, N=20\)"):
        LabeledExemplars.from_data([bad, 0], data)
