"""L1-regularized self-representation solver.

Solves, for a unit-norm target x and a dictionary A of unit-norm columns,

    min_c  ||c||_1 + (lam / 2) * ||x - A c||_2^2,       lam > 1,

by cyclic coordinate descent with soft thresholding, for many targets at
once.  Periodically an active-set finisher solves the stationarity system
exactly on the supports found so far, for all unconverged targets in one
batched call.  Convergence is certified: the returned coefficients satisfy
the subgradient optimality conditions within the requested tolerance and
the duality gap at return is below it as well.  Both quantities can be
recomputed independently from the returned code via :func:`kkt_violation`
and :func:`duality_gap`.  Non-finite input is rejected or stops the solver
at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LassoProblem",
    "SparseCode",
    "SparseCodes",
    "NoConvergence",
    "solve_lasso",
    "solve_lasso_batch",
    "duality_gap",
    "kkt_violation",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000

# coefficients below this magnitude are snapped to zero after convergence so
# sparsity patterns are stable
SNAP_EPS = 1e-12

_UNIT_TOL = 1e-10


class NoConvergence(RuntimeError):
    """Coordinate descent exhausted max_iter sweeps above tolerance."""

    def __init__(self, iterations: int, gap: float, target_index: int | None = None):
        self.iterations = iterations
        self.gap = gap
        self.target_index = target_index
        where = "" if target_index is None else f" (target {target_index})"
        super().__init__(
            f"no convergence after {iterations} sweeps{where}: duality gap {gap:.3e}"
        )


@dataclass(frozen=True)
class LassoProblem:
    """One self-representation subproblem.

    dictionary : (D, M) array of unit-norm columns (M may be 0).
    target     : (D,) unit-norm vector.
    lam        : regularization weight, must exceed 1.
    """

    dictionary: np.ndarray
    target: np.ndarray
    lam: float

    def __post_init__(self):
        a = np.asarray(self.dictionary, dtype=float)
        x = np.asarray(self.target, dtype=float).ravel()
        if a.ndim != 2 or a.shape[0] != x.shape[0]:
            raise ValueError("dictionary must be (D, M) with D matching the target")
        if not self.lam > 1:
            raise ValueError(f"lam must be > 1, got {self.lam}")
        # written so that NaN fails the checks
        if a.shape[1] and not np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) <= _UNIT_TOL:
            raise ValueError("dictionary columns must have unit norm")
        if not abs(np.linalg.norm(x) - 1.0) <= _UNIT_TOL:
            raise ValueError("target must have unit norm")
        object.__setattr__(self, "dictionary", a)
        object.__setattr__(self, "target", x)


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
    kkt = viol.max(axis=0) if viol.shape[0] else np.zeros(viol.shape[1])

    l1 = np.abs(c).sum(axis=0)
    # e^T x = ||e||^2 + (A^T e)^T c
    ex = e2 + (corr * c).sum(axis=0)
    inf_norm = np.abs(corr).max(axis=0) if corr.shape[0] else np.zeros(corr.shape[1])
    scale = alpha / np.maximum(inf_norm, alpha)  # 1 when A^T e is dual feasible
    gap_std = 0.5 * e2 + alpha * l1 - scale * ex + 0.5 * scale**2 * e2
    gap = np.maximum(lam * gap_std, 0.0)
    return kkt, gap


def _exact_solve(G, H, alpha, C0):
    """Active-set finisher for every unconverged target of one CD checkpoint.

    H, C0 : (M, T); returns the (M, T) coefficients.  Each target takes
    feature-sign steps from its CD support: an exact solve of the
    sign-restricted stationarity system, then a slide along the null
    direction of an infeasible pattern (support above the rank of its Gram
    block; the fit stays unchanged until a coefficient hits zero), the best
    of the sign crossings and the full step of a feasible one, or, at the
    pattern's optimum (a full step that kept the signs it was solved for),
    activation of the worst inactive coordinate or the finish.  Targets step
    together in rounds of one stacked solve, each support packed into the
    leading slots of the widest and padded by the identity.  Every step
    reaches stationarity or shrinks the support, and the caller certifies
    the result, so an early exit here is harmless.
    """
    M, T = H.shape
    h = H.T
    c = np.array(C0.T, dtype=float)  # (T, M): one target per row
    sup = c != 0.0  # may hold a just-activated zero coefficient
    th = np.sign(c)
    stationary = np.zeros(T, dtype=bool)
    live = np.ones(T, dtype=bool)
    eps = np.finfo(float).eps
    thresh = alpha * (1.0 + 1e-12) + 1e-15

    def apply(mats, vecs):
        return (mats @ vecs[:, :, None])[:, :, 0]

    for _ in range(8 * M + 64):
        # a target at its pattern's optimum (the last solve of this pattern
        # was feasible and its full step kept the signs) needs no new solve
        solve = live & sup.any(axis=1) & ~stationary
        rows, ra = np.flatnonzero(solve), np.flatnonzero(live & ~solve)
        m = sup[rows]
        idx = np.argsort(~m, axis=1, kind="stable")[:, : m.sum(axis=1).max(initial=1)]
        r = np.arange(rows.size)[:, None]
        on = m[r, idx]
        gm = np.where(on[:, :, None] & on[:, None, :], G[idx[:, :, None], idx[:, None, :]],
                      np.eye(idx.shape[1]))
        rhs = np.where(on, h[rows[:, None], idx] - alpha * th[rows[:, None], idx], 0.0)
        # pseudo-inverse with the cutoff lstsq uses on the unpadded block
        w, V = np.linalg.eigh(gm)
        cutoff = eps * on.sum(axis=1, keepdims=True) * np.abs(w).max(axis=1, keepdims=True)
        inv = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > cutoff)
        pinv = (V * inv[:, None, :]) @ V.transpose(0, 2, 1)
        sol = np.where(on, apply(pinv, rhs), 0.0)
        res = np.where(on, apply(gm, sol) - rhs, 0.0)
        # iterative refinement: the restricted Gram can be ill-conditioned
        # and a single solve leaves a stationarity error of order cond * eps
        for _ in range(4):
            bad = np.abs(res).max(axis=1) >= 1e-15
            if not bad.any():
                break
            sol[bad] -= np.where(on[bad], apply(pinv[bad], res[bad]), 0.0)
            res = np.where(on, apply(gm, sol) - rhs, 0.0)
        infeasible = np.abs(res).max(axis=1) > 1e-11
        solution, resid = np.zeros((rows.size, M)), np.zeros((rows.size, M))
        solution[r, idx], resid[r, idx] = sol, res

        rs, d = rows[infeasible], -resid[infeasible]
        if rs.size:
            # -resid spans the inconsistent null component; moving along it
            # leaves the fit unchanged, lowers the linearized objective, and
            # must drive some coefficient to zero
            cs = c[rs]
            with np.errstate(divide="ignore", invalid="ignore"):
                tc = np.where(cs * d < 0, -cs / np.where(d != 0.0, d, 1.0), np.inf)
            tmin = tc.min(axis=1)
            ok = np.isfinite(tmin)
            live[rs[~ok]] = False
            new = cs[ok] + tmin[ok, None] * d[ok]
            new[np.isclose(tc[ok], tmin[ok, None])] = 0.0
            new[np.abs(new) < 1e-15] = 0.0
            c[rs[ok]] = new

        rf, s = rows[~infeasible], solution[~infeasible]
        if rf.size:
            cs = c[rf]
            delta = s - cs
            with np.errstate(divide="ignore", invalid="ignore"):
                tc = np.where(cs * s < 0, -cs / np.where(delta != 0.0, delta, 1.0), np.inf)
            # crossings in (0, 1) in increasing order, then the full step;
            # unused slots repeat the full step, so the first minimum wins
            valid = (tc > 0.0) & (tc < 1.0)
            t = np.sort(np.where(valid, tc, np.inf), axis=1)[:, : valid.sum(axis=1).max()]
            t = np.minimum(np.concatenate([t, np.ones((rf.size, 1))], axis=1), 1.0)
            cand = cs[:, None, :] + t[:, :, None] * delta[:, None, :]
            cand[np.abs(cand) < 1e-15] = 0.0
            f = ((0.5 * (cand @ G) - h[rf, None, :]) * cand).sum(axis=2)
            pick = np.argmin(f + alpha * np.abs(cand).sum(axis=2), axis=1)
            c[rf] = cand[np.arange(rf.size), pick]
            full = t[np.arange(rf.size), pick] == 1.0
            stationary[rf] = full & (np.sign(c[rf]) == th[rf]).all(axis=1)
        sup[rows] = c[rows] != 0.0
        th[rows] = np.sign(c[rows])

        # empty support or at the pattern's optimum: activate the worst
        # inactive coordinate or finish
        corr = h[ra] - c[ra] @ G
        viol = np.abs(corr) * ~sup[ra]
        top = np.arange(ra.size), viol.argmax(axis=1)
        fin = viol[top] <= thresh
        live[ra[fin]] = False
        grow, i = ra[~fin], top[1][~fin]
        sup[grow, i] = True
        th[grow, i] = np.sign(corr[top][~fin])
        stationary[grow] = False
        if not live.any():
            break
    return c.T


def _cd_core(G, H, xnorm2, lam, tol, max_iter, warm=None):
    """Coordinate descent over possibly many targets sharing one dictionary.

    G : (M, M) dictionary Gram; H : (M, T) dictionary-target inner products;
    xnorm2 : (T,) squared target norms; warm : optional (M, T) start.

    Cyclic soft-thresholding sweeps identify the supports.  After the first
    sweep and every third one after it, one :func:`_exact_solve` call
    finishes all unconverged targets, and a finished target is kept when its
    optimality certificates pass; this removes the slow tail of plain
    descent.  Targets are frozen individually once their duality gap and KKT
    violation drop below half the tolerance (margin for the exact
    recomputation done by callers).  The sweeps stop at the first non-finite
    gap, so non-finite input fails at once, not after max_iter sweeps.
    Returns (C, gap, kkt, sweeps, converged_mask).
    """
    M, T = H.shape
    alpha = 1.0 / lam
    kkt_tol = 0.5 * tol
    gap_tol = 0.75 * tol  # float noise on the gap grows with lam
    if warm is None:
        C = np.zeros((M, T))
        GC = np.zeros((M, T))
    else:
        C = np.array(warm, dtype=float)
        if C.shape != (M, T):
            raise ValueError("warm start has wrong shape")
        GC = G @ C
    diag = np.ascontiguousarray(np.diag(G))
    active = np.ones(T, dtype=bool)
    gap = np.zeros(T)
    kkt = np.zeros(T)
    sweeps = 0

    def certify(cols):
        corr = H[:, cols] - GC[:, cols]
        e2 = np.maximum(
            xnorm2[cols]
            - 2.0 * (C[:, cols] * H[:, cols]).sum(axis=0)
            + (C[:, cols] * GC[:, cols]).sum(axis=0),
            0.0,
        )
        return _certificates(corr, C[:, cols], e2, lam)

    for sweeps in range(max_iter + 1):
        cols = np.flatnonzero(active)
        k_act, g_act = certify(cols)
        done_now = (g_act <= gap_tol) & (k_act <= kkt_tol)
        if sweeps >= 1 and (sweeps - 1) % 3 == 0 and not done_now.all():
            # finish unconverged targets on their current supports
            pos = np.flatnonzero(~done_now)
            t = cols[pos]
            old = C[:, t]
            C[:, t] = _exact_solve(G, H[:, t], alpha, old)
            GC[:, t] = G @ C[:, t]
            k_new, g_new = certify(t)
            ok = (g_new <= gap_tol) & (k_new <= kkt_tol)
            k_act[pos[ok]], g_act[pos[ok]] = k_new[ok], g_new[ok]
            done_now[pos[ok]] = True
            C[:, t[~ok]] = old[:, ~ok]
            GC[:, t[~ok]] = G @ old[:, ~ok]
        kkt[cols] = k_act
        gap[cols] = g_act
        active[cols[done_now]] = False
        if not active.any() or sweeps == max_iter or not np.isfinite(g_act).all():
            break
        for i in range(M):
            rho = H[i] - GC[i] + diag[i] * C[i]
            cnew = np.sign(rho) * np.maximum(np.abs(rho) - alpha, 0.0) / diag[i]  # soft threshold
            delta = np.where(active, cnew - C[i], 0.0)
            if np.any(delta):
                C[i] += delta
                GC += np.outer(G[:, i], delta)
    return C, gap, kkt, sweeps, ~active


def _solve_costs(G, H, xnorm2, lam, tol, max_iter=DEFAULT_MAX_ITER, warm=None):
    """Certified codes (M, T) and objectives (T,) from the Gram quantities.

    The one cost path of the package; a NoConvergence failure carries the
    position of the first unconverged target.
    """
    C, gap, _, sweeps, done = _cd_core(G, H, xnorm2, lam, tol, max_iter, warm)
    if not done.all():
        bad = int(np.flatnonzero(~done)[0])
        raise NoConvergence(sweeps, float(gap[bad]), target_index=bad)
    e2 = np.maximum(xnorm2 - 2.0 * (C * H).sum(axis=0) + (C * (G @ C)).sum(axis=0), 0.0)
    return C, np.abs(C).sum(axis=0) + 0.5 * lam * e2


def solve_lasso(
    problem: LassoProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: np.ndarray | None = None,
) -> SparseCode:
    """Solve one problem to certified optimality.

    Raises NoConvergence if max_iter coordinate sweeps do not reach the
    tolerance.  An empty dictionary returns the conventional value lam/2 with
    an empty coefficient vector.
    """
    warm = None if warm_start is None else np.asarray(warm_start, dtype=float)[:, None]
    try:
        return solve_lasso_batch(
            problem.dictionary, problem.target, problem.lam, tol, max_iter, warm
        )[0]
    except NoConvergence as err:
        raise NoConvergence(err.iterations, err.gap) from None


def solve_lasso_batch(
    dictionary,
    targets,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: np.ndarray | None = None,
) -> SparseCodes:
    """Solve one problem per target column over a shared dictionary.

    Keeps the target order.  Each code is certified on its own, but the
    batch shares matrix products, so a code can differ from the one a
    per-target :func:`solve_lasso` call returns in the last digits.  A
    NoConvergence failure carries the index of the offending target.
    Accepts plain arrays or objects with a ``points`` attribute (DataMatrix).
    """
    A = _as_points(dictionary)
    X = _as_points(targets)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not lam > 1:
        raise ValueError(f"lam must be > 1, got {lam}")
    if X.ndim == 1:
        X = X[:, None]
    if A.shape[1] == 0:
        return SparseCodes(np.zeros((0, X.shape[1])), X.copy(), np.full(X.shape[1], 0.5 * lam))
    # written so that NaN fails the checks
    if not np.max(np.abs(np.linalg.norm(A, axis=0) - 1.0)) <= _UNIT_TOL:
        raise ValueError("dictionary columns must have unit norm")
    if not np.max(np.abs(np.linalg.norm(X, axis=0) - 1.0)) <= _UNIT_TOL:
        raise ValueError("targets must have unit norm")
    C, _ = _solve_costs(A.T @ A, A.T @ X, (X * X).sum(axis=0), lam, tol, max_iter, warm_start)
    # snap tiny coefficients, recompute residuals and objectives exactly
    C = np.where(np.abs(C) < SNAP_EPS, 0.0, C)
    E = X - A @ C
    obj = np.abs(C).sum(axis=0) + 0.5 * lam * (E * E).sum(axis=0)
    return SparseCodes(C, E, obj)


def _as_points(m) -> np.ndarray:
    pts = getattr(m, "points", m)
    return np.asarray(pts, dtype=float)


def kkt_violation(dictionary, target, lam: float, code: SparseCode) -> float:
    """Largest violation of the subgradient optimality conditions.

    For e = x - A c the conditions are |a_i . e| <= 1/lam where c_i = 0 and
    a_i . e = sign(c_i)/lam where c_i != 0.
    """
    A = _as_points(dictionary)
    if A.shape[1] == 0:
        return 0.0
    corr = (A.T @ code.residual)[:, None]
    kkt, _ = _certificates(corr, code.coeffs[:, None], np.zeros(1), lam)
    return float(kkt[0])


def duality_gap(dictionary, target, lam: float, code: SparseCode) -> float:
    """Duality gap of the code for its problem (nonnegative, 0 at optimum)."""
    A = _as_points(dictionary)
    if A.shape[1] == 0:
        return 0.0
    e = code.residual
    corr = (A.T @ e)[:, None]
    _, gap = _certificates(corr, code.coeffs[:, None], np.array([float(e @ e)]), lam)
    return float(gap[0])
