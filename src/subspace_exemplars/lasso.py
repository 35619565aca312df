"""L1-regularized self-representation solver.

Solves, for a unit-norm target x and a dictionary A of unit-norm columns,

    min_c  ||c||_1 + (lam / 2) * ||x - A c||_2^2,       lam > 1,

for many targets at once.  Every target follows the lasso homotopy from
c = 0 down to the level 1/lam: the targets still on their paths step in
lock-step rounds of one batched solve on compact copies of their state, and
a path's last round also solves for its exact code on that round's support,
so nothing runs after the path.  The solver keeps no state between calls.
The path has a bounded number of rounds and there is no iteration limit: a
code that still misses the tolerance raises :class:`NoConvergence` at once.
Convergence is certified: the returned coefficients satisfy the subgradient
optimality conditions within the requested tolerance and the duality gap at
return is below it as well.  Both can be recomputed from the returned code
via :func:`kkt_violation` and :func:`duality_gap`.  :func:`solve_lasso_batch`
is the one public entry point; it rejects with ``ValueError`` a dictionary
that is not 2-D, targets that are not (D,) or (D, T) with the dictionary's
D, a target or dictionary column that is non-finite or off the unit sphere,
a lam that is not finite and > 1 and a tol that is not finite and > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseCode",
    "SparseCodes",
    "NoConvergence",
    "solve_lasso_batch",
    "duality_gap",
    "kkt_violation",
]

DEFAULT_TOL = 1e-8

_UNIT_TOL = 1e-10

# the homotopy lets no column join whose correlation moves with the level
# to within this rate (|1 -+ a_j| below it)
_JOIN_EPS = 1e-10


class NoConvergence(RuntimeError):
    """The solver's code misses the tolerance; carries its duality gap."""

    def __init__(self, gap: float, target_index: int):
        self.gap = gap
        self.target_index = target_index
        super().__init__(f"no certified code (target {target_index}): duality gap {gap:.3e}")


def _check_params(lam: float, tol: float = DEFAULT_TOL) -> None:
    """Reject a lam that is not finite and > 1 or a tol that is not finite and > 0."""
    if not (math.isfinite(lam) and lam > 1):
        raise ValueError(f"lam must be finite and > 1, got {lam}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _check_unit(X: np.ndarray, what: str) -> None:
    """Reject any column of the (D, n) X whose norm is off 1 by more than _UNIT_TOL."""
    # written so that NaN fails the check
    if X.shape[1] and not np.max(np.abs(np.linalg.norm(X, axis=0) - 1.0)) <= _UNIT_TOL:
        raise ValueError(f"{what} must have unit norm")


@dataclass(frozen=True)
class SparseCode:
    """Solver output: coefficients, residual x - A c, and objective value."""

    coeffs: np.ndarray
    residual: np.ndarray
    objective: float


@dataclass(frozen=True)
class SparseCodes:
    """Batch solver output, one column per target.

    coeffs (M, T), residuals (D, T) = X - A C, objectives (T,).  ``len``,
    iteration and ``codes[j]`` give the per-target :class:`SparseCode`.
    """

    coeffs: np.ndarray
    residuals: np.ndarray
    objectives: np.ndarray

    def __len__(self) -> int:
        return self.objectives.shape[0]

    def __getitem__(self, j) -> SparseCode:
        return SparseCode(self.coeffs[:, j], self.residuals[:, j], float(self.objectives[j]))

    def __iter__(self):
        return (self[j] for j in range(len(self)))


def _certificates(corr, c, e2, lam):
    """Per-target KKT violation and duality gap from Gram-tracked quantities.

    corr = A^T e, c the coefficients, e2 = ||e||^2, all for the objective
    ||c||_1 + (lam/2)||e||^2.
    """
    alpha = 1.0 / lam
    nz = c != 0.0
    viol = np.where(
        nz, np.abs(corr - alpha * np.sign(c)), np.maximum(np.abs(corr) - alpha, 0.0)
    )
    kkt = viol.max(axis=0)

    l1 = np.abs(c).sum(axis=0)
    # e^T x = ||e||^2 + (A^T e)^T c
    ex = e2 + (corr * c).sum(axis=0)
    inf_norm = np.abs(corr).max(axis=0)
    scale = alpha / np.maximum(inf_norm, alpha)  # 1 when A^T e is dual feasible
    gap_std = 0.5 * e2 + alpha * l1 - scale * ex + 0.5 * scale**2 * e2
    gap = np.maximum(lam * gap_std, 0.0)
    return kkt, gap


def _exact_solve(G, H, alpha):
    """Lasso homotopy from c = 0 for every unconverged target of a batch.

    H : (M, T); returns the (M, T) coefficients.  Each target follows its
    piecewise-linear solution path as the level mu falls from max |h| to
    alpha (Osborne, Presnell & Turlach, 2000; Efron et al., 2004).  The first
    join is seeded: the column attaining max |h| joins with the sign of h_j,
    + before - on equal size, then the lowest index.  Then on the active set
    S with signs s, c_S moves along d = G_SS^-1 s_S and each inactive
    correlation h_j - (G c)_j at rate -a_j, a = G d, up to the nearest join
    (it reaches +-mu), drop (an active c_i reaches zero) or alpha: the first
    minimum of one (R, 3, M) array of join+, join- and drop steps, inf where
    none.  A column joins with sign +-1 only while 1 -+ a_j > _JOIN_EPS: a
    column that moves with the level (a copy of an active one) would make its
    block singular, and one just dropped with sign s_j has 1 - s_j a_j =
    -(Schur complement) * s_j d_j < 0, so it cannot rejoin with that sign.
    The R live targets step in lock-step rounds of one stacked solve of their
    identity-padded Gram blocks, on compact copies of their c and mu and of
    the right-hand sides [s, h], one (R, M, 2) array; it gives d and
    u = G_SS^-1 h_S.  A target that reaches alpha in a round, and every
    target left in the last of the 8 M + 64 rounds, leaves the live rows with
    that round's code c_S = G_SS^-1 (h_S - alpha s_S) = u - alpha d, so
    nothing runs after the loop.  A stacked LAPACK call treats each block on
    its own and the compact rows keep their order, so neither changes a bit
    of a code.  The caller certifies the result.
    """
    M, T = H.shape
    c = np.zeros((T, M))
    mu = np.abs(H).max(axis=0, initial=0.0)
    rows = np.flatnonzero(mu > alpha)
    # row i is target rows[i]; b[i] is the right-hand side [s, h], s the
    # signs of the active set (0 off it), updated in place through sl
    b = np.stack([np.zeros((rows.size, M)), H.T[rows]], axis=2)
    sl, hl, cl, ml = b[:, :, 0], b[:, :, 1], np.zeros((rows.size, M)), mu[rows]
    first = np.concatenate([hl, -hl], axis=1).argmax(axis=1)
    sl[np.arange(rows.size), first % M] = np.array([1.0, -1.0])[first // M]
    eye, pm, sign = np.eye(M), np.array([[1.0], [-1.0]]), np.repeat([1.0, -1.0, 0.0], M)

    # the seeded join is the first of at most 8 M + 64 rounds; the last one
    # ends every row still on its path
    for rounds_left in range(8 * M + 62, -1, -1):
        if not rows.size:
            break
        on = sl != 0.0
        du = np.linalg.solve(np.where(on[:, :, None] & on[:, None, :], G, eye), b)
        d = du[:, :, 0].copy()
        a, r = d @ G, hl - cl @ G
        left = ml - alpha
        events = np.full((rows.size, 3, M), np.inf)
        rate = 1.0 - pm * a[:, None]  # join+ and join-: rate 1 -+ a_j, distance mu -+ r_j
        np.divide(np.maximum(ml[:, None, None] - pm * r[:, None], 0.0), rate,
                  out=events[:, :2], where=~on[:, None] & (rate > _JOIN_EPS))
        np.divide(-cl, d, out=events[:, 2], where=sl * d < 0.0)
        events = events.reshape(rows.size, 3 * M)
        k = events.argmin(axis=1)
        step = np.minimum(events.min(axis=1), left)
        go = (step != left) & (rounds_left > 0)
        cl += step[:, None] * d
        ml -= step
        if not go.all():
            # a finished row ends on this round's support and signs, where
            # c_S = G_SS^-1 (h_S - alpha s_S) = u - alpha d
            end = ~go
            c[rows[end]] = np.where(on[end], du[end, :, 1] - alpha * d[end], 0.0)
            rows, b, cl, ml, k = rows[go], b[go], cl[go], ml[go], k[go]
            sl, hl = b[:, :, 0], b[:, :, 1]
        # a joining column's c is +0.0 already, a dropping one's becomes it
        i, j = np.arange(rows.size), k % M
        cl[i, j], sl[i, j] = 0.0, sign[k]
    return c.T


def _cd_core(G, H, xnorm2, lam, tol):
    """Certified codes and objectives for targets sharing one dictionary.

    G : (M, M) dictionary Gram, M >= 1; H : (M, T) dictionary-target inner
    products; xnorm2 : (T,) squared target norms; all finite, as the public
    entry points ensure.  The one cost path of the package: one
    :func:`_exact_solve` call from zero, certified once.  A target passes
    when its duality gap is below 3/4 and its KKT violation below 1/2 of the
    tolerance (margin for the exact recomputation done by callers); the
    first that does not raises NoConvergence with its position.  Returns
    (C, gap, kkt, 1, objectives ||c||_1 + (lam/2)||e||^2), ||e||^2 from the
    same Gram products as the certificates.

    The name, the leading arguments and the 5-tuple with an int at position
    3 stay because ``perfbench/layers.py`` hooks them: it counts the calls
    and adds position 3 to its sweep counter.  The hook replaces the module
    attribute, so other modules call ``lasso._cd_core`` looked up at call
    time; a ``from .lasso import _cd_core`` binding would hide their calls.
    """
    C = _exact_solve(G, H, 1.0 / lam)
    GC = G @ C
    e2 = np.maximum(xnorm2 - 2.0 * (C * H).sum(axis=0) + (C * GC).sum(axis=0), 0.0)
    kkt, gap = _certificates(H - GC, C, e2, lam)
    # float noise on the gap grows with lam
    done = (gap <= 0.75 * tol) & (kkt <= 0.5 * tol)
    if not done.all():
        bad = int(np.flatnonzero(~done)[0])
        raise NoConvergence(float(gap[bad]), target_index=bad)
    return C, gap, kkt, 1, np.abs(C).sum(axis=0) + 0.5 * lam * e2


def solve_lasso_batch(dictionary, targets, lam: float, tol: float = DEFAULT_TOL) -> SparseCodes:
    """Solve one problem per target over a shared dictionary.

    dictionary : (D, M) array of unit-norm columns (M may be 0); targets : a
    (D,) unit vector or (D, T) unit columns.  Keeps the target order.  Each
    code is certified on its own, but the batch shares matrix products, so
    a code can differ in the last digits from the one the same target gets
    in another batch.  An empty dictionary gives every target the
    conventional value lam/2.  A NoConvergence failure carries the index of
    the first target whose code misses the tolerance.  Accepts plain arrays
    or objects with a ``points`` attribute (DataMatrix).
    """
    A = _as_points(dictionary)
    X = _as_points(targets)
    _check_params(lam, tol)
    if A.ndim != 2:
        raise ValueError(f"dictionary must be a (D, M) array, got shape {A.shape}")
    if X.ndim not in (1, 2) or X.shape[0] != A.shape[0]:
        raise ValueError(f"targets must be (D,) or (D, T) with D={A.shape[0]}, got shape {X.shape}")
    if X.ndim == 1:
        X = X[:, None]
    _check_unit(X, "targets")
    if A.shape[1] == 0:
        return SparseCodes(np.zeros((0, X.shape[1])), X.copy(), np.full(X.shape[1], 0.5 * lam))
    _check_unit(A, "dictionary columns")
    C = _cd_core(A.T @ A, A.T @ X, (X * X).sum(axis=0), lam, tol)[0]
    # residuals and objectives recomputed exactly from the certified code
    E = X - A @ C
    obj = np.abs(C).sum(axis=0) + 0.5 * lam * (E * E).sum(axis=0)
    return SparseCodes(C, E, obj)


def _as_points(m) -> np.ndarray:
    pts = getattr(m, "points", m)
    return np.asarray(pts, dtype=float)


def _code_certificates(dictionary, target, lam, code) -> tuple[float, float]:
    """(KKT violation, duality gap) of one code, from e = x - A c recomputed once."""
    A = _as_points(dictionary)
    if A.shape[1] == 0:
        return 0.0, 0.0
    e = _as_points(target).ravel() - A @ code.coeffs
    corr = (A.T @ e)[:, None]
    kkt, gap = _certificates(corr, code.coeffs[:, None], np.array([float(e @ e)]), lam)
    return float(kkt[0]), float(gap[0])


def kkt_violation(dictionary, target, lam: float, code: SparseCode) -> float:
    """Largest violation of the subgradient optimality conditions.

    For e = x - A c, computed from the target and the code's coefficients
    (not from ``code.residual``), the conditions are |a_i . e| <= 1/lam
    where c_i = 0 and a_i . e = sign(c_i)/lam where c_i != 0.
    """
    return _code_certificates(dictionary, target, lam, code)[0]


def duality_gap(dictionary, target, lam: float, code: SparseCode) -> float:
    """Duality gap of the code for its problem (nonnegative, 0 at optimum).

    Like :func:`kkt_violation`, reads e = x - A c from the target and the
    code's coefficients.
    """
    return _code_certificates(dictionary, target, lam, code)[1]
