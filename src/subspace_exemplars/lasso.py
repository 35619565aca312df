"""L1-regularized self-representation solver.

Solves, for a unit-norm target x and a dictionary A of unit-norm columns,

    min_c  ||c||_1 + (lam / 2) * ||x - A c||_2^2,       lam > 1,

for many targets at once.  Every target follows the lasso homotopy from
c = 0 down to the level 1/lam: the targets still on their paths step in
lock-step rounds of one stacked solve of their bordered Gram blocks; it
gives each path's next event level and, in its last round, its exact code
on that round's support.  The solver keeps no state between calls.
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
    + before - on equal size, then the lowest index.  On a support S with
    signs s, c_S = u - mu d and an inactive correlation is mu xd_j - xu_j:
    one solve of the bordered block K (G in the columns of S, -I in the
    others) against [h, s], s = 0 off S, gives u = G_SS^-1 h_S and
    d = G_SS^-1 s_S on S, xu_j = G_jS u_S - h_j and xd_j = G_jS d_S = a_j off
    it.  With S first, K = [[G_SS, 0], [G_OS, -I]] is block triangular, so it
    is nonsingular exactly when G_SS is.  The next level is the largest valid
    xu / den, den = xd - (1, -1, 0) (join+ at xu_j / (xd_j - 1), join- at
    xu_j / (xd_j + 1), drop at u_i / d_i), clamped to mu; ties go to join+,
    join-, drop, then the lowest index.  With Z = [|s| - 1, 1 - |s|, -s],
    Z * den > (eps, eps, 0) is the whole validity test: a column joins with
    sign +-1 only while 1 -+ a_j > eps = _JOIN_EPS, since a copy of an active
    column would make G_SS singular and one just dropped with sign s_j has
    1 - s_j a_j = -(Schur complement) * s_j d_j < 0; c_i drops only where
    s_i d_i < 0.  So the R live targets carry only s, mu and Z, and step in
    lock-step rounds of one stacked solve.  A row whose level falls to alpha,
    and every row left in the last of the 8 M + 64 rounds, leaves with the
    code of that round's support at alpha, c_S = G_SS^-1 (h_S - alpha s_S) =
    u - alpha d from the round's own solve, so no code is carried.  LAPACK
    solves each block of the stack on its own and the rows keep their order,
    so a code does not depend on its batch.  The caller certifies the result.
    """
    M, T = H.shape
    c = np.zeros((T, M))
    mu = np.abs(H).max(axis=0, initial=0.0)
    rows = np.flatnonzero(mu > alpha)
    # row i is target rows[i]: st[i] = [h, s, Z], [h, s] its right-hand sides
    st = np.zeros((rows.size, 5, M))
    st[:, 0], st[:, 2], st[:, 3], ml = H.T[rows], -1.0, 1.0, mu[rows]
    # per event kind (join+, join-, drop): the [s, Z] it sets at its column,
    # den = xd - shift and the floor of Z * den
    sets = np.array([[1.0, 0.0, 0.0, -1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]])
    shift, floor = np.array([[1.0], [-1.0], [0.0]]), np.array([[_JOIN_EPS], [_JOIN_EPS], [0.0]])
    first = np.concatenate([st[:, 0], -st[:, 0]], axis=1).argmax(axis=1)
    st[np.arange(rows.size), 1:, first % M] = sets[first // M]
    neg_eye = -np.eye(M)

    # the seeded join is the first of at most 8 M + 64 rounds; the last one
    # ends every row still on its path
    for rounds_left in range(8 * M + 62, -1, -1):
        if not rows.size:
            break
        on = st[:, 1] != 0.0
        x = np.linalg.solve(np.where(on[:, None, :], G, neg_eye), st[:, :2].transpose(0, 2, 1))
        den = x[:, None, :, 1] - shift
        level = np.full((rows.size, 3, M), -np.inf)
        np.divide(x[:, None, :, 0], den, out=level, where=st[:, 2:] * den > floor)
        level = np.minimum(level, ml[:, None, None], out=level).reshape(rows.size, 3 * M)
        i, k = np.arange(rows.size), level.argmax(axis=1)
        ml, (kind, j) = level[i, k], np.divmod(k, M)
        # every row takes its event; the rows that end here leave below
        st[i, 1:, j] = sets[kind]
        go = ml > (alpha if rounds_left else np.inf)
        if not go.all():
            # a finished row's code: u - alpha d on this round's support
            end = ~go
            xe = x[end]
            c[rows[end]] = np.where(on[end], xe[:, :, 0] - alpha * xe[:, :, 1], 0.0)
            rows, st, ml = rows[go], st[go], ml[go]
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
