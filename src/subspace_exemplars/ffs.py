"""Farthest-first search exemplar selection.

Both selectors grow an exemplar set one point at a time, always adding the
currently worst-represented point (largest self-representation cost).
``ffs_naive`` reevaluates every point at every iteration; ``ffs_lazy``
exploits the monotonicity of the cost in the exemplar set (lazy greedy,
Minoux 1978), keeping the last known cost of each point as an upper bound.
Each step bounds every candidate's cost from below by a feasible point of
the lasso dual (gap-safe screening, Fercoq, Gramfort & Salmon 2015) and
solves, in one solver call, only the points whose upper bound reaches the
best lower bound.  The two produce identical selections; the lazy variant
simply performs far fewer cost evaluations.  Every evaluation goes through
the stateless evaluator of :mod:`subspace_exemplars.selfrep` and solves from
zero, so a cost depends only on the point and the current selection.

The first exemplar is a seeded uniform draw (overridable for reproducible
worked examples); all later choices break ties toward the lowest point
index.  ``select`` picks a selector, or the random baseline, by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .lasso import DEFAULT_TOL, _check_params
from .selfrep import _CostEvaluator

__all__ = ["METHODS", "SelectionStep", "ExemplarSet", "ffs_naive", "ffs_lazy", "select_random",
           "select"]

# the selector names ``select`` dispatches on
METHODS = ("ffs", "ffs-naive", "random")


@dataclass(frozen=True)
class SelectionStep:
    """One selection: chosen index, its cost then, evaluations spent."""

    selected: int
    f_value: float
    evals: int


@dataclass(frozen=True)
class ExemplarSet:
    """Ordered selection result with its per-iteration trace."""

    indices: tuple[int, ...]
    k: int
    seed: int
    trace: tuple[SelectionStep, ...] = ()
    lam: float | None = None

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("exemplar indices must be distinct")
        object.__setattr__(self, "indices", idx)

    @property
    def total_evals(self) -> int:
        return sum(step.evals for step in self.trace)

    def to_json(self) -> str:
        doc = {
            "indices": list(self.indices),
            "k": self.k,
            "lambda": self.lam,
            "seed": self.seed,
            "trace": [
                {"selected": s.selected, "f_value": s.f_value, "evals": s.evals}
                for s in self.trace
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExemplarSet":
        doc = json.loads(text)
        trace = tuple(
            SelectionStep(int(s["selected"]), float(s["f_value"]), int(s["evals"]))
            for s in doc.get("trace", [])
        )
        lam = doc.get("lambda")
        return cls(
            indices=tuple(int(i) for i in doc["indices"]),
            k=int(doc["k"]),
            seed=int(doc["seed"]),
            trace=trace,
            lam=None if lam is None else float(lam),
        )


def _first_index(data: DataMatrix, lam: float, k: int, seed: int, tol: float,
                 first_index: int | None) -> int:
    """Check the arguments; return the first exemplar (a seeded draw by default)."""
    if not 1 <= k <= data.count:
        raise ValueError(f"k={k} must be in [1, N={data.count}]")
    _check_params(lam, tol)
    if first_index is None:
        return int(np.random.default_rng(seed).integers(data.count))
    if not 0 <= first_index < data.count:
        raise ValueError("first_index out of range")
    return int(first_index)


def ffs_naive(
    data: DataMatrix,
    lam: float,
    k: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    first_index: int | None = None,
) -> ExemplarSet:
    """Reference selector: evaluate the cost of every point each iteration.

    Iteration i computes f(x_j, current set) for all N points and appends the
    maximizer (lowest index on ties).  Deterministic given the seed.
    """
    j0 = _first_index(data, lam, k, seed, tol, first_index)
    ev = _CostEvaluator(data, lam, tol)
    selected = [j0]
    trace = [SelectionStep(j0, 0.5 * lam, 0)]
    for _ in range(k - 1):
        costs = ev.costs(selected, np.arange(ev.N))
        masked = costs.copy()
        masked[selected] = -np.inf
        j = int(np.argmax(masked))
        trace.append(SelectionStep(j, float(costs[j]), ev.N))
        selected.append(j)
    return ExemplarSet(tuple(selected), k, seed, tuple(trace), lam)


def ffs_lazy(
    data: DataMatrix,
    lam: float,
    k: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    first_index: int | None = None,
) -> ExemplarSet:
    """Bound-pruned selector; selects exactly the same indices as ffs_naive.

    Stale costs are valid upper bounds because the cost is non-increasing as
    the selection grows, and a feasible point of the lasso dual gives each
    candidate a lower bound without a solve.  The winner costs at least the
    largest lower bound, so a step solves, in one call, only the candidates
    whose stale bound reaches it less a margin of twice ``tol`` (the
    certified gap plus rounding); every other point costs less than the
    winner.  It picks the largest solved cost, lowest index on ties.  The
    solved costs are kept as tighter bounds and counted in ``evals``.
    """
    j0 = _first_index(data, lam, k, seed, tol, first_index)
    ev = _CostEvaluator(data, lam, tol)
    selected = [j0]
    in_set = np.zeros(ev.N, dtype=bool)
    in_set[j0] = True
    bounds = ev.costs(selected, np.arange(ev.N))  # N initialization evaluations
    trace = [SelectionStep(j0, 0.5 * lam, ev.N)]
    # a point above its class's lowest index loses the tie to it until the floor
    lowest = ev.twin == np.arange(ev.N)
    for _ in range(k - 1):
        scan = np.flatnonzero((lowest | ev.taken(selected)[ev.twin]) & ~in_set)
        top = ev.lower_bounds(selected, scan).max()
        todo = scan[bounds[scan] >= top - 2.0 * tol]
        costs = ev.costs(selected, todo)
        bounds[todo] = costs
        pick = int(todo[np.argmax(costs)])  # todo ascends: lowest index on ties
        trace.append(SelectionStep(pick, float(costs.max()), todo.size))
        selected.append(pick)
        in_set[pick] = True
        bounds[ev.twin == ev.twin[pick]] = ev.floor
    return ExemplarSet(tuple(selected), k, seed, tuple(trace), lam)


def select_random(data: DataMatrix, k: int, seed: int = 0) -> ExemplarSet:
    """k distinct indices drawn uniformly at random (baseline selector)."""
    if not 0 <= k <= data.count:
        raise ValueError(f"k={k} must be in [0, N={data.count}]")
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.count, size=k, replace=False)
    return ExemplarSet(tuple(int(i) for i in idx), k, seed, ())


def select(
    data: DataMatrix,
    method: str,
    lam: float,
    k: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    first_index: int | None = None,
) -> ExemplarSet:
    """k exemplars by one of METHODS: "ffs" (ffs_lazy), "ffs-naive" or "random".

    Every method needs k in [1, N].  The random baseline ignores lam, tol
    and first_index.
    """
    if not 1 <= k <= data.count:
        raise ValueError(f"k={k} must be in [1, N={data.count}]")
    if method == "ffs":
        return ffs_lazy(data, lam, k, seed, tol, first_index)
    if method == "ffs-naive":
        return ffs_naive(data, lam, k, seed, tol, first_index)
    if method == "random":
        return select_random(data, k, seed)
    raise ValueError(f"unknown selection method {method!r}")
