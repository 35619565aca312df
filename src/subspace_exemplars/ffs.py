"""Farthest-first search exemplar selection.

Both selectors grow an exemplar set one point at a time, always adding the
currently worst-represented point (largest self-representation cost).
``ffs_naive`` reevaluates every point at every iteration; ``ffs_lazy``
exploits the monotonicity of the cost in the exemplar set (lazy greedy,
Minoux 1978), keeping the last known cost of each point as an upper bound;
the first are the zero code's costs 0.5 lam ||x||^2, so no pass computes them.
Each later step bounds every candidate's cost from below by a feasible point
of the lasso dual (gap-safe screening, Fercoq, Gramfort & Salmon 2015), its
last solve's nu = lam (x - A c) times t = min(1, 1 / max_i |a_i^T nu|) plus
lam (1 - t) times x's part off the selection's span, which every a_i is
orthogonal to, and solves, in one solver call, only the points whose upper
bound reaches the best lower bound.  The two select identically; the lazy
variant simply performs far fewer cost evaluations.  Every evaluation goes
through the stateless evaluator of :mod:`subspace_exemplars.selfrep` and
solves from zero, so a cost depends only on the point and the selection.

The first exemplar is a seeded uniform draw (``ffs_naive`` also takes it as
``first_index``, to replay an ``ffs_lazy`` run); all later choices break ties
toward the lowest point index.  ``select`` picks a selector, or the random
baseline, by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, _as_ints
from .lasso import DEFAULT_TOL, _check_params
from .selfrep import _CostEvaluator

__all__ = ["METHODS", "SelectionStep", "ExemplarSet", "ffs_naive", "ffs_lazy", "select_random",
           "select"]

# the selector names ``select`` dispatches on
METHODS = ("ffs", "random")


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
        idx = tuple(_as_ints(self.indices, "exemplar indices").tolist())
        if len(set(idx)) != len(idx):
            raise ValueError("exemplar indices must be distinct")
        object.__setattr__(self, "indices", idx)
        # kept as Python ints, since a seed may exceed int64
        for name in ("k", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                _as_ints(value, name)
            object.__setattr__(self, name, int(value))

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
            SelectionStep(int(_as_ints(s["selected"], "trace selected")), float(s["f_value"]),
                          int(_as_ints(s["evals"], "trace evals")))
            for s in doc.get("trace", [])
        )
        lam = doc.get("lambda")
        return cls(
            indices=tuple(doc["indices"]),
            k=doc["k"],
            seed=doc["seed"],
            trace=trace,
            lam=None if lam is None else float(lam),
        )


def _first_index(
    data: DataMatrix, lam: float, k: int, seed: int, first_index: int | None
) -> tuple[int, int]:
    """Check the arguments; return k and the first exemplar (a seeded draw by default)."""
    k = int(_as_ints(k, "k"))
    if not 1 <= k <= data.count:
        raise ValueError(f"k={k} must be in [1, N={data.count}]")
    _check_params(lam)
    if first_index is None:
        return k, int(np.random.default_rng(seed).integers(data.count))
    first_index = int(_as_ints(first_index, "first_index"))
    if not 0 <= first_index < data.count:
        raise ValueError("first_index out of range")
    return k, first_index


def ffs_naive(
    data: DataMatrix,
    lam: float,
    k: int,
    seed: int = 0,
    first_index: int | None = None,
) -> ExemplarSet:
    """Reference selector: evaluate the cost of every point each iteration.

    Iteration i computes f(x_j, current set) for all N points and appends the
    maximizer (lowest index on ties).  Deterministic given the seed.
    """
    k, j0 = _first_index(data, lam, k, seed, first_index)
    ev = _CostEvaluator(data, lam)
    selected = [j0]
    trace = [SelectionStep(j0, 0.5 * lam, 0)]
    for _ in range(k - 1):
        costs = ev.costs(selected, np.arange(ev.N))
        costs[selected] = -np.inf
        j = int(np.argmax(costs))
        trace.append(SelectionStep(j, float(costs[j]), ev.N))
        selected.append(j)
    return ExemplarSet(tuple(selected), k, seed, tuple(trace), lam)


def ffs_lazy(data: DataMatrix, lam: float, k: int, seed: int = 0) -> ExemplarSet:
    """Bound-pruned selector; selects exactly the same indices as ffs_naive.

    Stale costs are valid upper bounds because the cost is non-increasing as
    the selection grows; the first are the zero code's costs, bit for bit as
    the solver prices them, so k = 1 makes no solver call, and step 1 solves
    every candidate (a lower bound would prune next to nothing).  Each class
    then carries the dual point nu = lam (x - A c) of its last solve, as
    p = nu^T x, q = ||nu||^2 / (2 lam) and m, the running maximum of
    |a_i^T nu| over the selection: t nu + lam (1 - t) (x - Q Q^T x) with
    t = min(1, 1 / m) is dual-feasible, so t p - t^2 q + lam (1 - t)^2
    ||x - Q Q^T x||^2 / 2 bounds the cost from below.  The winner costs at
    least the largest one, so a step solves, in one call, only the
    candidates whose stale bound reaches it less twice ``DEFAULT_TOL`` (the
    certified gap plus rounding); every other point costs less than the
    winner.  It picks the largest solved cost, lowest index on ties.  The
    solved costs are kept as tighter bounds and counted in ``evals``.
    """
    k, j0 = _first_index(data, lam, k, seed, None)
    ev = _CostEvaluator(data, lam)
    selected = [j0]
    in_set = np.zeros(ev.N, dtype=bool)
    in_set[j0] = True
    bounds = 0.5 * lam * ev.xnorm2  # what lasso._cd_core charges for c = 0
    bounds[ev.twin == ev.twin[j0]] = ev.floor
    # step 1 solves every free class; until then nu = 0, a feasible point of value 0
    nu, (p, q, m) = np.zeros(data.points.shape), np.zeros((3, ev.N))
    trace = [SelectionStep(j0, 0.5 * lam, 0)]
    # a point above its class's lowest index loses the tie to it until the floor
    lowest = ev.twin == np.arange(ev.N)
    for step in range(k - 1):
        taken = ev.taken(selected)[ev.twin]
        todo = np.flatnonzero((lowest | taken) & ~in_set)
        if step:
            top = ev.lower_bounds(selected, todo, p[todo], q[todo], m[todo]).max()
            todo = todo[bounds[todo] >= top - 2.0 * DEFAULT_TOL]
        free = todo[~taken[todo]]  # one lowest index per class; the rest are at the floor
        bounds[free], nu[:, free], p[free], q[free], m[free] = ev.solve(selected, free)
        pick = int(todo[np.argmax(bounds[todo])])  # todo ascends: lowest index on ties
        trace.append(SelectionStep(pick, float(bounds[pick]), todo.size))
        selected.append(pick)
        in_set[pick] = True
        bounds[ev.twin == ev.twin[pick]] = ev.floor
        np.maximum(m, np.abs(data.points[:, pick] @ nu), out=m)
    return ExemplarSet(tuple(selected), k, seed, tuple(trace), lam)


def select_random(data: DataMatrix, k: int, seed: int = 0) -> ExemplarSet:
    """k distinct indices drawn uniformly at random (baseline selector)."""
    k = int(_as_ints(k, "k"))
    if not 0 <= k <= data.count:
        raise ValueError(f"k={k} must be in [0, N={data.count}]")
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.count, size=k, replace=False)
    return ExemplarSet(tuple(int(i) for i in idx), k, seed, ())


def select(data: DataMatrix, method: str, lam: float, k: int, seed: int = 0) -> ExemplarSet:
    """k exemplars by one of METHODS: "ffs" (ffs_lazy) or "random".

    Every method needs k in [1, N] and a valid lam, which the random baseline
    then ignores.
    """
    k = int(_as_ints(k, "k"))
    if not 1 <= k <= data.count:
        raise ValueError(f"k={k} must be in [1, N={data.count}]")
    _check_params(lam)
    if method == "ffs":
        return ffs_lazy(data, lam, k, seed)
    if method == "random":
        return select_random(data, k, seed)
    raise ValueError(f"unknown selection method {method!r}")
