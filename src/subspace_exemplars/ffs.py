"""Farthest-first search exemplar selection.

Both selectors grow an exemplar set one point at a time, always adding the
currently worst-represented point (largest self-representation cost).
``ffs_naive`` reevaluates every point at every iteration; ``ffs_lazy``
exploits the monotonicity of the cost in the exemplar set (lazy greedy,
Minoux 1978).  Every point carries an upper bound on its cost, the cost of a
known code, which one exact coordinate step on each new exemplar lowers, or
the cost of its least-squares code over the selection where that is lower,
and a lower bound from feasible points of the lasso dual (gap-safe screening,
Fercoq, Gramfort & Salmon 2015); a step solves, in at most one solver call,
only the points whose upper bound reaches the best lower bound, and a step
whose bounds leave one point picks it without a call.  The two select
identically; the lazy variant simply performs far fewer cost evaluations.
Every evaluation goes through the stateless evaluator of
:mod:`subspace_exemplars.selfrep` and solves from zero.  A solved cost still
depends, to rounding, on the other targets of its solver call, so lazy ==
naive is checked, by the tests and the pinned benchmark digests, not
assumed.

The first exemplar is a seeded uniform draw (``ffs_naive`` also takes it as
``first_index``, to replay an ``ffs_lazy`` run); all later choices break ties
toward the lowest point index.  ``select`` picks a selector, or the random
baseline, by name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import DataMatrix, _as_int, _as_ints, _as_seed
from .lasso import DEFAULT_TOL, _check_params
from .selfrep import _CostEvaluator

__all__ = ["METHODS", "SelectionStep", "ExemplarSet", "ffs_naive", "ffs_lazy", "select_random",
           "select"]

# the selector names ``select`` dispatches on
METHODS = ("ffs", "random")

# a pick whose part off the selection's span is at most this long is taken
# to lie in the span: its Gram-Schmidt direction would be rounding noise
_SPAN_TOL = 1e-12


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
        if idx and min(idx) < 0:
            raise ValueError(f"exemplar indices must be >= 0, got {min(idx)}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "k", _as_int(self.k, "k"))
        object.__setattr__(self, "seed", _as_seed(self.seed))
        if self.k != len(idx):
            raise ValueError(f"k must equal the number of indices, {len(idx)}, got {self.k}")

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
    seed = _as_seed(seed)
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


class _Carried:
    """Bounds on every point's cost that ``ffs_lazy`` carries across steps.

    They hold for the selection ``sel`` of at most k points, which
    :meth:`add` grows.  ``upper`` is the cost of a known code c of each point
    over the selection, and ``e = x - A c`` its residual; both restart at a
    point's solve.  After each pick a, new to every code, one exact
    coordinate step on it lowers the bound: with g = a^T e the step
    b = sign(g) (|g| - 1/lam)_+ / ||a||^2 grows ||c||_1 by |b| and takes
    lam (|g| - 1/lam)_+^2 / (2 ||a||^2) off the cost, and e becomes e - b a.
    Then, where the point's least-squares code b over the selection costs
    less, ||b||_1 + lam ||x - A b||^2 / 2 with the residual formed from the
    data, b becomes c.  A point equal up to sign to a selected one
    (``at_floor``) stays at the floor exactly.  :meth:`lower` reads one dual
    point nu per point, the zero code's lam x until the point's first solve
    and lam e of its last solve after, through p = nu^T x,
    q = ||nu||^2 / (2 lam) and m, the running maximum of |a^T nu| over the
    picks.  ``off`` is each point's part off the selection's span, kept by
    one Gram-Schmidt direction per pick, ``r2`` its squared norm, and ``B``
    (k x N) the coefficients of its projection on the span, in the
    selection's column order.  A pick a with w = off[:, a] and
    ||w|| > ``_SPAN_TOL`` adds the row beta / ||w||, beta = w^T off / ||w||,
    to B and takes B[:, a] beta^T / ||w|| off the rows before it; a pick
    with a shorter w leaves off and B as they are.
    """

    def __init__(self, ev: _CostEvaluator, k: int):
        X, lam, N = ev.points, ev.lam, ev.N
        self.ev, self.sel = ev, []
        self.upper = 0.5 * lam * ev.xnorm2  # what lasso._cd_core charges for c = 0
        self.at_floor = np.zeros(N, dtype=bool)
        self.vecs = np.stack([lam * X, X])  # nu, then e: one product with a pick reads both
        self.p, self.q, self.m = lam * ev.xnorm2, 0.5 * lam * ev.xnorm2, np.zeros(N)
        self.off, self.r2 = X.copy(), ev.xnorm2.copy()
        self.B = np.zeros((k, N))

    def lower(self, targets: np.ndarray) -> np.ndarray:
        """Lower bounds on the target costs from their carried dual points.

        The dual of the cost is max nu^T x - ||nu||^2 / (2 lam) subject to
        |a_i^T nu| <= 1 for every selected column.  With r the point's part
        off the selection's span, A^T r = 0, so with t = min(1, 1 / m) the
        point t nu + lam (1 - t) r is feasible, and as nu^T r = lam ||r||^2
        its value

            t p - t^2 q + lam (1 - t)^2 ||r||^2 / 2

        bounds the cost from below (gap-safe screening, Fercoq, Gramfort &
        Salmon 2015).  A point at the floor gets the floor exactly.
        """
        t = 1.0 / np.maximum(self.m[targets], 1.0)
        out = (t * self.p[targets] - t * t * self.q[targets]
               + 0.5 * self.ev.lam * (1.0 - t) ** 2 * self.r2[targets])
        out[self.at_floor[targets]] = self.ev.floor
        return out

    def solve(self, free: np.ndarray, lone: Sequence[int] = ()) -> np.ndarray:
        """Solve the distinct free classes: their costs and dual points restart.

        The same solver call prices each earlier pick sel[i], i in ``lone``,
        over the selection it had, sel[:i]; returns those costs.
        """
        ev = self.ev
        A, X = ev.points[:, self.sel], ev.points[:, free]
        costs, C = ev.solve(self.sel, free, lone)
        self.upper[free], C = costs[:free.size], C[:, :free.size]
        nu = ev.lam * (X - A @ C)
        self.vecs[0][:, free], self.vecs[1][:, free] = nu, nu / ev.lam
        self.p[free] = np.einsum("ij,ij->j", nu, X)
        self.q[free] = np.einsum("ij,ij->j", nu, nu) / (2.0 * ev.lam)
        self.m[free] = np.abs(A.T @ nu).max(axis=0)
        return costs[free.size:]

    def add(self, pick: int) -> None:
        """Carry every bound over to the selection grown by ``pick``."""
        ev = self.ev
        self.sel.append(pick)
        a, a2, lam = ev.points[:, pick], ev.xnorm2[pick], ev.lam
        dual, g = a @ self.vecs
        np.maximum(self.m, np.abs(dual), out=self.m)
        floored = ev.twin == ev.twin[pick]
        self.at_floor |= floored
        over = np.abs(g) - 1.0 / lam
        over[self.at_floor] = 0.0
        np.maximum(over, 0.0, out=over)
        self.upper -= (0.5 * lam / a2) * (over * over)
        self.upper[floored] = ev.floor
        self.vecs[1] -= a[:, None] * (np.copysign(over, g) / a2)
        # the pick's own residual is the next Gram-Schmidt direction, unless
        # it is at rounding level
        norm = math.sqrt(self.off[:, pick] @ self.off[:, pick])
        if norm > _SPAN_TOL:
            i = len(self.sel) - 1
            v = self.off[:, pick] / norm
            beta = v @ self.off
            self.off -= v[:, None] * beta
            self.r2 = np.einsum("ij,ij->j", self.off, self.off)
            # the new direction is (a - A B[:, pick]) / norm over the old A
            self.B[:i] -= np.outer(self.B[:i, pick] / norm, beta)
            self.B[i] = beta / norm
            B = self.B[:i + 1]
            e = ev.points - ev.points[:, self.sel] @ B  # from the data, not the recurrence
            cost = np.abs(B).sum(axis=0) + 0.5 * lam * np.einsum("ij,ij->j", e, e)
            better = (cost < self.upper) & ~self.at_floor
            self.upper[better] = cost[better]
            self.vecs[1][:, better] = e[:, better]


def ffs_lazy(data: DataMatrix, lam: float, k: int, seed: int = 0) -> ExemplarSet:
    """Bound-pruned selector; selects exactly the same indices as ffs_naive.

    Every point carries an upper and a lower bound on its cost (``_Carried``).
    The first upper bounds are the zero code's costs, bit for bit as the
    solver prices them, so k = 1 makes no solver call.  After a solve a
    point's upper bound is its cost, and each later pick, the first draw
    included, lowers it by one exact coordinate step on the new exemplar.  A
    pick that grows the selection's span also prices every point's
    least-squares code over the selection, whose coefficients the same
    Gram-Schmidt step keeps; where that code costs less, it becomes the
    upper bound and the code that later coordinate steps lower.  The lower
    bound comes from one dual-feasible point, built from the dual point of
    the point's last solve (the zero code's before that) and its part off the
    selection's span, which Gram-Schmidt keeps, so no step factors the
    selection.  The winner costs at least the largest lower bound, so each
    step solves, in at most one call, only the candidates whose upper bound
    reaches it less twice ``DEFAULT_TOL`` (the certified gap plus rounding);
    every other point costs less than the winner.  It picks the largest
    solved cost, lowest index on ties.  A lone candidate off the floor is the
    pick without a solve: its cost, which only the trace reads, is priced
    over the selection it had in the next solver call, or in one call after
    the last step.  The candidates kept are counted in ``evals``.
    """
    k, j0 = _first_index(data, lam, k, seed, None)
    ev = _CostEvaluator(data, lam)
    carried = _Carried(ev, k)
    carried.add(j0)
    in_set = np.zeros(ev.N, dtype=bool)
    in_set[j0] = True
    # step i picks sel[i], at cost costs[i] over sel[:i], from evals[i] candidates
    costs, evals = np.full(k, 0.5 * lam), np.zeros(k, dtype=int)
    lone = []  # the steps whose lone pick is not priced yet
    # a point above its class's lowest index loses the tie to it until the floor
    lowest = ev.twin == np.arange(ev.N)
    for step in range(1, k):
        at_floor, upper = carried.at_floor, carried.upper
        todo = np.flatnonzero((lowest | at_floor) & ~in_set)
        todo = todo[upper[todo] >= carried.lower(todo).max() - 2.0 * DEFAULT_TOL]
        # one lowest index per class; the rest are at the floor
        free = todo[~at_floor[todo]]
        if todo.size == 1 and free.size:
            lone.append(step)
        elif free.size:
            costs[lone] = carried.solve(free, lone)
            lone = []
        pick = int(todo[np.argmax(upper[todo])])  # todo ascends: lowest index on ties
        costs[step], evals[step] = upper[pick], todo.size
        in_set[pick] = True
        carried.add(pick)
    if lone:
        costs[lone] = carried.solve(np.empty(0, dtype=np.intp), lone)
    trace = tuple(map(SelectionStep, carried.sel, costs.tolist(), evals.tolist()))
    return ExemplarSet(tuple(carried.sel), k, seed, trace, lam)


def select_random(data: DataMatrix, k: int, seed: int = 0) -> ExemplarSet:
    """k distinct indices drawn uniformly at random (baseline selector)."""
    k = int(_as_ints(k, "k"))
    if not 0 <= k <= data.count:
        raise ValueError(f"k={k} must be in [0, N={data.count}]")
    rng = np.random.default_rng(_as_seed(seed))
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
