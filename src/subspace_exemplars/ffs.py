"""Farthest-first search exemplar selection.

Both selectors grow an exemplar set one point at a time, always adding the
currently worst-represented point (largest self-representation cost).
``ffs_naive`` reevaluates every point at every iteration; ``ffs_lazy``
exploits the monotonicity of the cost in the exemplar set (lazy greedy,
Minoux 1978), keeping the last known cost of each point as an upper bound
and rescanning points in decreasing bound order, in blocks of growing size
per solver call, until the bound of the next point cannot beat the best
exact value seen.  The two produce identical selections; the lazy variant
simply performs far fewer cost evaluations.

The first exemplar is a seeded uniform draw (overridable for reproducible
worked examples); all later choices break ties toward the lowest point
index.  ``select`` picks a selector, or the random baseline, by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .lasso import DEFAULT_TOL, NoConvergence, _check_params, _solve_costs
from .selfrep import cost_floor

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


class _CostEvaluator:
    """Shared solver state: data Gram matrix plus per-point warm starts.

    Points equal up to sign have one cost: each such class is solved once,
    at its lowest index, and a class with a selected member is at the cost
    floor exactly.  So exact ties stay exact, whichever batch or warm start
    a cost comes from.
    """

    def __init__(self, data: DataMatrix, lam: float, tol: float):
        X = data.points
        self.N = data.count
        self.gram = X.T @ X
        self.xnorm2 = np.ascontiguousarray(np.diag(self.gram)).copy()
        self.lam, self.tol = lam, tol
        self.floor = cost_floor(lam)
        lead = X[np.argmax(X != 0.0, axis=0), np.arange(self.N)]
        canon = (X * np.where(lead < 0.0, -1.0, 1.0)).T + 0.0  # + 0.0 turns -0.0 into 0.0
        _, first, inverse = np.unique(canon, axis=0, return_index=True, return_inverse=True)
        self.twin = first[inverse.ravel()]  # lowest index equal up to sign
        # the selection only ever grows, appending columns at the end, so a
        # warm start is the point's last code padded with zero rows
        self.warm = np.zeros((0, self.N))

    def costs(self, sel: list[int], targets: np.ndarray) -> np.ndarray:
        """Costs of the target points over the selection, in one solver call."""
        cls = self.twin[targets]
        out = np.full(targets.size, self.floor)
        free = ~np.isin(cls, self.twin[sel])
        todo, back = np.unique(cls[free], return_inverse=True)
        if todo.size:
            if len(self.warm) < len(sel):
                self.warm = np.vstack([self.warm, np.zeros((len(sel) - len(self.warm), self.N))])
            G = self.gram[np.ix_(sel, sel)]
            H = self.gram[np.ix_(sel, todo)]
            try:
                C, costs = _solve_costs(G, H, self.xnorm2[todo], self.lam, self.tol,
                                        warm=self.warm[:, todo])
            except NoConvergence as err:
                raise NoConvergence(err.gap, int(todo[err.target_index])) from None
            self.warm[:, todo] = C
            out[free] = costs[back]
        return out


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
    the selection grows.  A step scans points in decreasing bound order
    (lower index first on ties) and stops once the best refreshed cost, with
    the lower index winning ties, beats the next point's stale bound.  It
    solves blocks of 1, 2, 4, ... points per call, each checked in order
    against the bounds from before it, so it stops and picks exactly as a
    one-point scan would.  The block overshoot past the stop point keeps its
    refreshed costs as tighter bounds and counts in the step's ``evals``.
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
        order = np.lexsort((np.arange(ev.N), -bounds))
        scan = order[((lowest | np.isin(ev.twin, ev.twin[selected])) & ~in_set)[order]]
        stale = bounds[scan]
        best, pick, evals = -np.inf, -1, 0
        start, size, stop = 0, 1, False
        while not stop:
            block = scan[start:start + size]
            costs = ev.costs(selected, block)
            bounds[block] = costs
            evals += block.size
            for nxt, j, cost in zip(range(start + 1, scan.size + 1), block, costs):
                if (cost, -j) > (best, -pick):
                    best, pick = cost, int(j)
                if nxt == scan.size or (best, -pick) >= (stale[nxt], -scan[nxt]):
                    stop = True
                    break
            start, size = start + size, 2 * size
        trace.append(SelectionStep(pick, float(best), evals))
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

    The random baseline ignores lam, tol and first_index.
    """
    if method == "ffs":
        return ffs_lazy(data, lam, k, seed, tol, first_index)
    if method == "ffs-naive":
        return ffs_naive(data, lam, k, seed, tol, first_index)
    if method == "random":
        return select_random(data, k, seed)
    raise ValueError(f"unknown selection method {method!r}")
