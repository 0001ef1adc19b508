"""Sparse Cholesky factor estimation by cyclic coordinate descent.

For a fixed ordering, the penalized score decouples over the rows of L:
row i minimizes

    h(x) = x^t A x - 2 log x_k + sum_{j<k} rho(|x_j|)

where A is the leading i x i submatrix of the permuted sample
covariance, x_k the (positive) diagonal entry, and rho the MCP.  Both
coordinate updates have closed forms: the diagonal is the positive root
of a quadratic, and each off-diagonal is a soft-threshold step with an
MCP curvature correction, switching to the unpenalized least-squares
value in the flat region of the penalty.

Rows are independent, so the full-factor driver interleaves all rows
through shared column sweeps; the arithmetic per row is the cyclic
order of the single-row solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from birkdag.scoring import McpParams, _permuted_cov, mcp
from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance


class ConvexityGuardError(ValueError):
    """gamma is too small for the coordinate subproblems to be strictly convex.

    The off-diagonal update divides by 2 A_jj - 1/gamma; strict convexity
    in each coordinate requires gamma > max(1/(2 A_jj), 1).  Raise gamma
    (or rescale the data) and retry.
    """


@dataclass(frozen=True)
class SolverSettings:
    """Convergence tolerance and sweep cap for the row solver.

    The cap is a safeguard, not a stopping rule: some rows at p = 200
    need more than 700 sweeps to meet eps.
    """

    eps: float = 1e-8
    k_max: int = 20000

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


@dataclass(frozen=True)
class RowSubproblem:
    """One row subproblem: leading k x k covariance block plus MCP params."""

    a: np.ndarray
    params: McpParams

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got shape {a.shape}")
        if np.abs(a - a.T).max(initial=0.0) > 1e-12:
            raise ValueError("a must be symmetric within 1e-12")
        if not (np.diag(a) > 0).all():
            raise ValueError("a must have a strictly positive diagonal")
        object.__setattr__(self, "a", a)

    @property
    def k(self) -> int:
        return self.a.shape[0]

    def check_guard(self):
        bound = max(float(1.0 / (2.0 * np.diag(self.a).min())), 1.0)
        if self.params.gamma <= bound:
            raise ConvexityGuardError(
                f"gamma={self.params.gamma} must exceed max(1/(2 min A_ii), 1) = {bound}"
            )

    def objective(self, x: np.ndarray) -> float:
        """h(x) = x^t A x - 2 log x_k + sum_{j<k} rho(|x_j|)."""
        x = np.asarray(x, dtype=float)
        val = float(x @ self.a @ x) - 2.0 * np.log(x[-1])
        if self.k > 1:
            val += float(np.sum(mcp(x[:-1], self.params)))
        return val


def _soft(z: float, lam: float) -> float:
    return float(np.sign(z) * max(abs(z) - lam, 0.0))


def update_offdiagonal(sub: RowSubproblem, x: np.ndarray, j: int) -> float:
    """Closed-form MCP minimizer of h in coordinate j < k.

    With z = -2 sum_{l != j} A_lj x_l: in the flat-penalty region
    (|z|/(2 A_jj) >= gamma lambda) the minimizer is the unpenalized value
    z / (2 A_jj); otherwise it is S_lambda(z) / (2 A_jj - 1/gamma).
    """
    if not 0 <= j < sub.k - 1:
        raise ValueError(f"j must index an off-diagonal coordinate, got {j}")
    lam, gamma = sub.params.lam, sub.params.gamma
    a_jj = sub.a[j, j]
    denom = 2.0 * a_jj - 1.0 / gamma
    if denom <= 0:
        raise ConvexityGuardError(
            f"2 A_jj - 1/gamma = {denom} <= 0 at j={j}; raise gamma above 1/(2 A_jj)"
        )
    z = -2.0 * (float(sub.a[:, j] @ x) - a_jj * x[j])
    if abs(z) / (2.0 * a_jj) >= gamma * lam:
        return z / (2.0 * a_jj)
    return _soft(z, lam) / denom


def update_diagonal(sub: RowSubproblem, x: np.ndarray) -> float:
    """Positive root of A_kk t^2 + (sum_{l != k} A_lk x_l) t - 1 = 0."""
    k = sub.k - 1
    a_kk = sub.a[k, k]
    ssum = float(sub.a[:, k] @ x) - a_kk * x[k]
    return (-ssum + np.sqrt(ssum * ssum + 4.0 * a_kk)) / (2.0 * a_kk)


def default_row_start(sub: RowSubproblem) -> np.ndarray:
    """Zero off-diagonals, unpenalized closed-form diagonal 1/sqrt(A_kk)."""
    x0 = np.zeros(sub.k)
    x0[-1] = 1.0 / np.sqrt(sub.a[-1, -1])
    return x0


def minimize_row(
    sub: RowSubproblem,
    x0: np.ndarray | None = None,
    settings: SolverSettings = SolverSettings(),
) -> tuple[np.ndarray, bool, int]:
    """Cyclic coordinate descent on one row subproblem.

    Sweeps the off-diagonals in ascending order then the diagonal, until
    the full coordinate vector moves less than settings.eps in Euclidean
    norm.  Returns (x, converged, sweeps).
    """
    sub.check_guard()
    if x0 is None:
        x = default_row_start(sub)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (sub.k,):
            raise ValueError(f"x0 must have shape ({sub.k},)")
        if x[-1] <= 0:
            raise ValueError("x0 must have a positive final (diagonal) entry")
    for sweep in range(1, settings.k_max + 1):
        x_old = x.copy()
        for j in range(sub.k - 1):
            x[j] = update_offdiagonal(sub, x, j)
        x[-1] = update_diagonal(sub, x)
        if float(np.linalg.norm(x - x_old)) < settings.eps:
            return x, True, sweep
    return x, False, settings.k_max


@dataclass(frozen=True)
class CholeskyEstimate:
    l: CholeskyFactor
    sweeps: np.ndarray
    converged: np.ndarray

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def estimate_cholesky(
    perm: Permutation,
    s: SampleCovariance,
    params: McpParams,
    settings: SolverSettings = SolverSettings(),
    l0: CholeskyFactor | None = None,
) -> CholeskyEstimate:
    """Estimate the full sparse Cholesky factor for a fixed ordering.

    Row 1 has the closed form L_11 = 1/sqrt(S^P_11); every other row is
    an independent subproblem on the leading block of S^P = P S P^t.
    All rows advance together through shared column sweeps; within each
    row the cyclic order is that of ``minimize_row``.  ``l0`` warm starts
    the rows.
    """
    sp = _permuted_cov(perm, s)
    p = sp.shape[0]
    d = np.diag(sp).copy()
    if (d <= 0).any():
        raise ValueError("permuted covariance has a non-positive diagonal entry")
    guard = max(float(1.0 / (2.0 * d.min())), 1.0)
    if params.gamma <= guard:
        raise ConvexityGuardError(
            f"gamma={params.gamma} must exceed max(1/(2 min S^P_ii), 1) = {guard}"
        )

    if l0 is not None and l0.p != p:
        raise ValueError("l0 dimension disagrees with the covariance")

    # one pass over columns per sweep, all active rows at once
    if l0 is None:
        l = np.zeros((p, p))
        l[np.arange(p), np.arange(p)] = 1.0 / np.sqrt(d)
    else:
        l = np.tril(l0.l).copy()
    lam, gamma = params.lam, params.gamma
    denom = 2.0 * d - 1.0 / gamma
    active = np.ones(p, dtype=bool)
    active[0] = False
    l[0, 0] = 1.0 / np.sqrt(d[0])
    sweeps = np.zeros(p, dtype=int)
    for sweep in range(1, settings.k_max + 1):
        if not active.any():
            break
        l_old = l.copy()
        for j in range(p):
            if active[j]:
                ssum = float(sp[: j + 1, j] @ l[j, : j + 1]) - d[j] * l[j, j]
                l[j, j] = (-ssum + np.sqrt(ssum * ssum + 4.0 * d[j])) / (2.0 * d[j])
            if j + 1 >= p:
                continue
            rows = slice(j + 1, p)
            w = l[rows, :] @ sp[:, j]
            z = -2.0 * (w - d[j] * l[rows, j])
            flat = np.abs(z) / (2.0 * d[j]) >= gamma * lam
            new = np.where(
                flat,
                z / (2.0 * d[j]),
                np.sign(z) * np.maximum(np.abs(z) - lam, 0.0) / denom[j],
            )
            l[rows, j] = np.where(active[rows], new, l[rows, j])
        moved = np.sqrt(((l - l_old) ** 2).sum(axis=1))
        finished = active & (moved < settings.eps)
        sweeps[finished] = sweep
        active &= ~finished
    sweeps[active] = settings.k_max
    return CholeskyEstimate(CholeskyFactor(l), sweeps, ~active)


def row_objectives(l: CholeskyFactor, sp: np.ndarray, params: McpParams) -> np.ndarray:
    """Per-row values of h on the rows of l, for the permuted covariance sp."""
    sp = np.asarray(sp, dtype=float)
    vals = np.empty(l.p)
    for i in range(l.p):
        x = l.l[i, : i + 1]
        quad = float(x @ sp[: i + 1, : i + 1] @ x)
        pen = float(np.sum(mcp(x[:-1], params))) if i > 0 else 0.0
        vals[i] = quad - 2.0 * np.log(x[-1]) + pen
    return vals


def check_lower_bounds(
    l: CholeskyFactor,
    sp: np.ndarray,
    params: McpParams,
    score_total: float,
) -> bool:
    """Sanity bounds every estimate must satisfy.

    True iff score_total >= -2p and each row objective satisfies
    h_i >= 2 - 2 L_ii.  The row bound follows from dropping the quadratic
    and penalty terms and using log t <= t - 1 on the diagonal entry;
    equality of the two sides happens at L_ii = 1.
    """
    if score_total < -2.0 * l.p:
        return False
    h = row_objectives(l, sp, params)
    return bool((h >= 2.0 - 2.0 * np.diag(l.l) - 1e-12).all())
