import itertools
import math

import numpy as np
import pytest

from subspace_exemplars import (
    EmptySelection,
    LengthMismatch,
    clustering_accuracy,
    clustering_fscore,
    contingency_table,
    imbalance,
    subspace_preserving_rate,
)


def brute_accuracy(truth, pred):
    table = contingency_table(truth, pred)
    n = table.counts.shape[0]
    best = max(
        sum(table.counts[i, pi] for i, pi in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )
    return 100.0 * best / table.total


def brute_fscore(truth, pred):
    table = contingency_table(truth, pred)
    counts = table.counts.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / table.group_sizes[None, :]
        r = counts / table.class_sizes[:, None]
        f = np.where(counts > 0, 2 * p * r / (p + r), 0.0)
    n = counts.shape[0]
    best = max(
        sum(f[i, pi] for i, pi in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )
    return 100.0 * best / table.n_true


def test_accuracy_identity_and_relabeling():
    truth = [0, 0, 1, 1, 2]
    assert clustering_accuracy(truth, truth) == 100.0
    assert clustering_accuracy(truth, [2, 2, 0, 0, 1]) == 100.0


def test_accuracy_worked_example():
    truth = [0, 0, 1, 1]
    pred = [0, 1, 1, 1]
    assert clustering_accuracy(truth, pred) == 75.0
    assert brute_accuracy(truth, pred) == 75.0


def test_accuracy_length_mismatch():
    with pytest.raises(LengthMismatch):
        clustering_accuracy([0, 1], [0, 1, 1])


@pytest.mark.parametrize("score", [contingency_table, clustering_accuracy, clustering_fscore])
def test_empty_label_vectors_are_rejected(score):
    with pytest.raises(ValueError, match="empty"):
        score([], [])


def test_fscore_identity():
    truth = [0, 1, 1, 2]
    assert clustering_fscore(truth, truth) == 100.0


def test_fscore_split_class_example():
    # one class split evenly into two groups, the other matched exactly
    truth = [0, 0, 1, 1]
    pred = [0, 2, 1, 1]
    got = clustering_fscore(truth, pred)
    expected = (100.0 / 2) * (2 * (0.5 * 1.0) / (0.5 + 1.0) + 1.0)
    assert abs(got - expected) <= 1e-12
    assert abs(got - brute_fscore(truth, pred)) <= 1e-12


def test_constant_prediction_on_imbalanced_truth():
    truth = [0] * 99 + [1]
    pred = [0] * 100
    assert clustering_accuracy(truth, pred) == 99.0
    f = clustering_fscore(truth, pred)
    assert f <= 50.0
    assert abs(f - brute_fscore(truth, pred)) <= 1e-12


def test_matching_equals_brute_force_on_random_tables():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        size = int(rng.integers(8, 40))
        truth = rng.integers(0, n, size)
        pred = rng.integers(0, n, size)
        assert abs(clustering_accuracy(truth, pred) - brute_accuracy(truth, pred)) <= 1e-10
        assert abs(clustering_fscore(truth, pred) - brute_fscore(truth, pred)) <= 1e-10


def test_metric_invariance_to_relabeling():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 4, 30)
    pred = rng.integers(0, 4, 30)
    remap = {0: 3, 1: 0, 2: 2, 3: 1}
    pred2 = np.array([remap[v] for v in pred])
    assert clustering_accuracy(truth, pred) == clustering_accuracy(truth, pred2)
    assert abs(clustering_fscore(truth, pred) - clustering_fscore(truth, pred2)) <= 1e-12


def test_imbalance_equal_counts():
    assert imbalance([4, 4, 4, 4]) == 0.0


def test_imbalance_single_class_concentration():
    counts = [0] * 9 + [37]
    assert imbalance(counts) == 1.0


def test_imbalance_direct_formula():
    counts = (2, 2, 4)
    p = np.array(counts) / 8.0
    expected = 1.0 + sum(pi * math.log(pi) for pi in p) / math.log(3)
    assert abs(imbalance(counts) - expected) <= 1e-12


def test_imbalance_monotone_under_skew_transfer():
    base = [5.0, 5.0, 6.0]
    more_skew = [3.0, 7.0, 6.0]
    assert imbalance(more_skew) > imbalance(base)


def test_imbalance_errors_and_edge():
    with pytest.raises(EmptySelection):
        imbalance([])
    with pytest.raises(EmptySelection):
        imbalance([0, 0])
    with pytest.raises(ValueError):
        imbalance([2, -1])
    assert imbalance([7]) == 0.0


def test_sp_rate_one_hot_and_split():
    codes = np.array([[1.0, 0.5], [0.0, 0.5]])
    ex_labels = [0, 1]
    assert subspace_preserving_rate(codes[:, :1], ex_labels, [0]) == 1.0
    assert subspace_preserving_rate(codes[:, 1:], ex_labels, [0]) == 0.5


def test_sp_rate_zero_codes_excluded():
    codes = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.warns(UserWarning):
        rate = subspace_preserving_rate(codes, [0, 1], [0, 0])
    assert rate == 1.0


def test_sp_rate_shape_checks():
    with pytest.raises(LengthMismatch):
        subspace_preserving_rate(np.ones((2, 2)), [0], [0, 0])
    with pytest.raises(LengthMismatch):
        subspace_preserving_rate(np.ones((2, 2)), [0, 1], [0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metrics_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        imbalance([bad, 1.0])
    codes = np.array([[1.0, 0.5], [0.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        subspace_preserving_rate(codes, [0, 1], [0, 0])
