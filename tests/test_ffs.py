import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_exemplars import (
    DataMatrix,
    ExemplarSet,
    SubspaceSpec,
    cost_floor,
    f_cost,
    ffs_lazy,
    ffs_naive,
    normalize_columns,
    select_random,
    synth_union_of_subspaces,
)


def _random_data(seed, d, n):
    rng = np.random.default_rng(seed)
    return normalize_columns(DataMatrix(rng.standard_normal((d, n))))


def test_k1_is_seeded_random_draw():
    data = _random_data(0, 4, 20)
    out = ffs_naive(data, 10.0, 1, seed=123)
    rng = np.random.default_rng(123)
    assert out.indices == (int(rng.integers(20)),)
    assert len(out.trace) == 1
    assert out.trace[0].evals == 0


def test_worked_example_second_pick_is_orthogonal_point():
    # {e1, e2, (e1+e2)/sqrt 2}: starting from e1, the worst-represented
    # point is e2; cross-checked by evaluating every candidate cost
    pts = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    data = normalize_columns(DataMatrix(pts))
    lam = 1e4
    out = ffs_naive(data, lam, 2, seed=0, first_index=0)
    costs = [f_cost(data.points[:, j], [0], data, lam) for j in range(3)]
    assert int(np.argmax(costs)) == 1
    assert out.indices == (0, 1)
    assert abs(out.trace[1].f_value - costs[1]) <= 1e-7


def test_selection_covers_each_subspace():
    spec = SubspaceSpec(10, (3, 3), (30, 12), 0.0, 3)
    data = synth_union_of_subspaces(spec)
    out = ffs_lazy(data, 1e4, 6, seed=5)
    for c in (0, 1):
        block = data.points[:, [i for i in out.indices if data.labels[i] == c]]
        assert np.linalg.matrix_rank(block, tol=1e-8) == 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_equals_naive(seed):
    rng = np.random.default_rng(seed)
    data = _random_data(seed + 100, int(rng.integers(4, 9)), int(rng.integers(30, 80)))
    lam = float(rng.choice([10.0, 100.0]))
    k = int(rng.integers(2, 9))
    naive = ffs_naive(data, lam, k, seed=seed)
    lazy = ffs_lazy(data, lam, k, seed=seed)
    assert naive.indices == lazy.indices
    assert lazy.total_evals < k * data.count
    assert naive.total_evals == (k - 1) * data.count


def test_lazy_k1_initialization_only():
    data = _random_data(9, 5, 25)
    out = ffs_lazy(data, 50.0, 1, seed=4)
    assert out.total_evals == 25
    assert len(out.indices) == 1


def test_trace_costs_non_increasing():
    data = _random_data(10, 6, 60)
    out = ffs_lazy(data, 100.0, 8, seed=2)
    values = [s.f_value for s in out.trace]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-6


def test_selected_costs_above_floor():
    data = _random_data(11, 6, 40)
    lam = 100.0
    out = ffs_lazy(data, lam, 6, seed=1)
    for step in out.trace[1:]:
        assert step.f_value > cost_floor(lam)


def test_first_index_override_and_validation():
    data = _random_data(12, 4, 10)
    out = ffs_naive(data, 10.0, 2, seed=0, first_index=7)
    assert out.indices[0] == 7
    with pytest.raises(ValueError):
        ffs_naive(data, 10.0, 2, seed=0, first_index=10)
    with pytest.raises(ValueError):
        ffs_naive(data, 10.0, 0, seed=0)
    with pytest.raises(ValueError):
        ffs_naive(data, 1.0, 2, seed=0)


def test_json_round_trip():
    data = _random_data(13, 4, 15)
    out = ffs_lazy(data, 20.0, 3, seed=9)
    doc = json.loads(out.to_json())
    assert set(doc) == {"indices", "k", "lambda", "seed", "trace"}
    assert set(doc["trace"][0]) == {"selected", "f_value", "evals"}
    back = ExemplarSet.from_json(out.to_json())
    assert back == out


def test_select_random_full_is_permutation():
    data = _random_data(14, 3, 12)
    out = select_random(data, 12, seed=3)
    assert sorted(out.indices) == list(range(12))


def test_select_random_deterministic_and_empty():
    data = _random_data(15, 3, 12)
    assert select_random(data, 5, seed=8).indices == select_random(data, 5, seed=8).indices
    assert select_random(data, 0, seed=1).indices == ()


def test_duplicate_points_still_select_distinct_indices():
    pts = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    data = normalize_columns(DataMatrix(pts))
    out = ffs_naive(data, 10.0, 4, seed=0, first_index=0)
    assert sorted(out.indices) == [0, 1, 2, 3]
    lazy = ffs_lazy(data, 10.0, 4, seed=0, first_index=0)
    assert lazy.indices == out.indices


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    n_base=st.integers(1, 8),
    copies=st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1.0, -1.0])), max_size=6),
    lam=st.sampled_from([2.0, 10.0, 100.0, 1e4]),
    draw=st.data(),
)
def test_lazy_equals_naive_with_exact_ties(seed, d, n_base, copies, lam, draw):
    # duplicated and antipodal points tie exactly, and so do all points
    # equal up to sign to an exemplar (at the cost floor); k runs up to N
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((d, n_base))
    pts = np.column_stack([base] + [sign * base[:, j % n_base] for j, sign in copies])
    data = normalize_columns(DataMatrix(pts[:, rng.permutation(pts.shape[1])]))
    k = draw.draw(st.integers(1, data.count), label="k")
    naive = ffs_naive(data, lam, k, seed=seed)
    lazy = ffs_lazy(data, lam, k, seed=seed)
    assert lazy.indices == naive.indices


def test_lazy_makes_one_solver_call_per_step(monkeypatch):
    # patched on the lasso module, as the benchmark hooks it: the count
    # also pins that FFS looks the solver up there at call time
    from subspace_exemplars import lasso

    calls = []
    cd_core = lasso._cd_core

    def counted(*args):
        calls.append(1)
        return cd_core(*args)

    monkeypatch.setattr(lasso, "_cd_core", counted)
    ffs_lazy(_random_data(16, 6, 70), 100.0, 9, seed=3)
    assert len(calls) == 9  # the initial evaluation and one call per step
