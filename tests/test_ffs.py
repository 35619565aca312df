import json
from pathlib import Path

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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_equals_naive_on_noisy_data_and_prunes_once_the_selection_spans(seed):
    # sigma = 0.05 noise: once the selection spans R^D the zero code's bound
    # prunes almost nothing, the carried dual points most of the candidates
    data = synth_union_of_subspaces(SubspaceSpec(10, (3, 3, 3), (40, 40, 40), 0.05, 3))
    lazy = ffs_lazy(data, 100.0, 15, seed=seed)
    assert lazy.indices == ffs_naive(data, 100.0, 15, first_index=lazy.indices[0]).indices
    spanned = [step.evals for step in lazy.trace[data.dim:]]
    assert sum(spanned) < 0.5 * len(spanned) * data.count


def test_lazy_descent_bounds_cut_the_later_solves_on_the_classify_workload():
    # the src-classify benchmark's data (seeds 0-2): at lam = 1e4 the lower
    # bounds are already close to the winner, so the solves after step 1
    # come from stale upper bounds; carried with one coordinate step per
    # pick they number 81 + 89 + 71, against 169 + 182 + 158 = 509 for costs
    # kept from the last solve alone
    later = 0
    for seed in range(3):
        data = synth_union_of_subspaces(SubspaceSpec(12, (4, 4, 4), (20, 20, 20), 0.0, seed))
        lazy = ffs_lazy(data, 1e4, 12, seed=seed)
        assert lazy.indices == ffs_naive(data, 1e4, 12, first_index=lazy.indices[0]).indices
        later += sum(step.evals for step in lazy.trace[2:])
    assert later < 0.75 * 509


def test_lazy_step_1_prunes_by_the_carried_lower_bound():
    # the first draw's coordinate step lowers every upper bound, so step 1
    # already prunes by the zero code's dual bound: on the README tour data
    # it solved all 199 free points when step 1 took no bound
    data = synth_union_of_subspaces(SubspaceSpec(10, (3, 3), (60, 140), seed=1))
    lazy = ffs_lazy(data, 100.0, 8, seed=7)
    assert lazy.indices == ffs_naive(data, 100.0, 8, seed=7).indices
    assert lazy.trace[1].evals <= 20


def test_lazy_makes_no_solver_call_without_targets(monkeypatch):
    # three points, each twice more up to sign: once all three classes are
    # selected every candidate is at the floor, and there is nothing to solve
    from subspace_exemplars import lasso

    targets = []
    cd_core = lasso._cd_core

    def counted(G, H, *args):
        targets.append(H.shape[1])
        return cd_core(G, H, *args)

    monkeypatch.setattr(lasso, "_cd_core", counted)
    b = _random_data(0, 4, 3).points
    data = DataMatrix(np.column_stack([b, -b, b]))
    lazy = ffs_lazy(data, 10.0, 6, seed=0)
    assert targets and min(targets) >= 1
    assert lazy.indices == ffs_naive(data, 10.0, 6, first_index=lazy.indices[0]).indices


def test_lazy_k1_initialization_only(monkeypatch):
    # the zero code's cost bounds every point: k = 1 solves nothing
    from subspace_exemplars import lasso

    def no_solve(*args):
        raise AssertionError("k = 1 made a solver call")

    monkeypatch.setattr(lasso, "_cd_core", no_solve)
    data = _random_data(9, 5, 25)
    out = ffs_lazy(data, 50.0, 1, seed=4)
    assert out.total_evals == 0
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
    # ffs_lazy always starts from its seeded draw
    with pytest.raises(TypeError):
        ffs_lazy(data, 10.0, 2, seed=0, first_index=7)


def test_json_round_trip():
    data = _random_data(13, 4, 15)
    out = ffs_lazy(data, 20.0, 3, seed=9)
    doc = json.loads(out.to_json())
    assert set(doc) == {"indices", "k", "lambda", "seed", "trace"}
    assert set(doc["trace"][0]) == {"selected", "f_value", "evals"}
    back = ExemplarSet.from_json(out.to_json())
    assert back == out


@pytest.mark.parametrize("field, value", [("selected", 1.5), ("evals", 2.7), ("selected", "x")])
def test_from_json_rejects_a_fractional_trace_entry(field, value):
    doc = json.loads(ffs_lazy(_random_data(13, 4, 15), 20.0, 3, seed=9).to_json())
    doc["trace"][1][field] = value
    with pytest.raises(ValueError):
        ExemplarSet.from_json(json.dumps(doc))


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
    lazy = ffs_lazy(data, 10.0, 4, seed=1)  # draws point 1, a duplicate
    assert lazy.indices == ffs_naive(data, 10.0, 4, first_index=lazy.indices[0]).indices
    assert sorted(lazy.indices) == [0, 1, 2, 3]


@pytest.mark.parametrize("lam", [1e2, 1e4])
def test_lazy_equals_naive_off_unit_norm(lam):
    # two orthogonal 3-dim blocks in R^6, columns 5e-11 off the unit sphere
    # (the data check allows 1e-10): after the first draw every point of the
    # other block costs the zero code's 0.5 lam ||x||^2, above lam / 2, and
    # so does its dual lower bound, so a start at lam / 2 would prune them all
    rng = np.random.default_rng(18)
    pts = np.zeros((6, 24))
    pts[:3, :12] = rng.standard_normal((3, 12))
    pts[3:, 12:] = rng.standard_normal((3, 12))
    pts *= (1.0 + 5e-11) / np.linalg.norm(pts, axis=0)
    data = DataMatrix(pts[:, rng.permutation(24)])
    for seed in range(4):
        lazy = ffs_lazy(data, lam, 8, seed=seed)
        assert lazy.indices == ffs_naive(data, lam, 8, first_index=lazy.indices[0]).indices


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
    assert len(calls) == 8  # one call per step after the first draw


def test_the_committed_ffs_ladder_shows_one_selection_per_sigma():
    # BENCH_ffs.json (scalebench/ffs_ladder.py) times the selectors of the
    # versions it compares; a speed-up that changed the picks would not be
    # one, and a side whose runs priced different numbers of targets would
    # not be deterministic
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCH_ffs.json").read_text())
    picks = {}
    for side, cells in doc["sides"].items():
        for cell in cells:
            picks.setdefault(cell["sigma"], set()).update(run["picks"] for run in cell["runs"])
            assert len({run["evals"] for run in cell["runs"]}) == 1, (side, cell["sigma"])
    assert picks and all(len(digests) == 1 for digests in picks.values()), picks
