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
through shared column sweeps; within each row the coordinates still
update in cyclic order, off-diagonals ascending and then the diagonal.
Each coordinate is strictly convex and h is bounded below, so the
sweeps descend to a coordinate-wise minimum (Tseng 2001, Thm 5.1).
``estimate_cholesky_path`` stacks the factors of several (lambda, gamma)
cells at one ordering, such as a tuning grid, and sweeps them together,
so the per-column overhead is paid once for the whole path;
``estimate_cholesky`` is its one-cell case.

Rows converge unevenly: at p = 200 the median row stops after about 10
sweeps and the slowest after 38-160, so a solve ends in sweeps with a
handful of active rows.  Once at most ``SCALAR_TAIL_PAIRS`` (cell, row)
pairs are active, a sweep runs the closed-form steps in Python floats on
those rows alone.  It keeps the column order and each cell's full-slice
product, and every float operation is the one the stacked sweep applies
elementwise, so factors, sweep counts and convergence flags are
bit-identical whichever path a sweep takes.  The scalar steps
``offdiagonal_step`` and ``diagonal_step`` are the one closed form of
each coordinate update.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from birkdag.scoring import McpParams, _permuted_cov, mcp
from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance


# A sweep with at most this many active (cell, row) pairs runs through
# ``_scalar_sweep``.  The stacked sweep pays about 15 numpy calls per
# column however few rows are still active.  Measured break-even: 16-32
# pairs (p = 100 and 200); at 64 a p = 100 fit gives back most of the gain.
SCALAR_TAIL_PAIRS = 24


class ConvexityGuardError(ValueError):
    """gamma is too small for the coordinate subproblems to be strictly convex.

    The off-diagonal update divides by 2 A_jj - 1/gamma; strict convexity
    in each coordinate requires gamma > max(1/(2 A_jj), 1).  Raise gamma
    (or rescale the data) and retry.
    """


@dataclass(frozen=True)
class SolverSettings:
    """Convergence tolerance and sweep cap for the L-step.

    A row stops once a sweep moves it less than eps in Euclidean norm.
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


def offdiagonal_step(z: float, a_jj: float, lam: float, gamma: float) -> float:
    """MCP minimizer of a_jj t^2 - z t + rho(|t|) over t.

    In the flat-penalty region (|z|/(2 a_jj) >= gamma lambda) it is the
    unpenalized value z / (2 a_jj); otherwise S_lambda(z) / (2 a_jj - 1/gamma).
    Each float operation is the one the column sweep applies elementwise,
    so the scalar and the array forms agree bit for bit.
    """
    if abs(z) / (2.0 * a_jj) >= gamma * lam:
        return z / (2.0 * a_jj)
    # S_lambda(z) = sign(z) max(|z| - lambda, 0), with numpy's sign(+-0) = +0
    m = max(abs(z) - lam, 0.0)
    return (m if z > 0 else -m if z < 0 else 0.0 * m) / (2.0 * a_jj - 1.0 / gamma)


def diagonal_step(ssum: float, a_kk: float) -> float:
    """Positive root of a_kk t^2 + ssum t - 1 = 0."""
    return (-ssum + math.sqrt(ssum * ssum + 4.0 * a_kk)) / (2.0 * a_kk)


@dataclass(frozen=True)
class CholeskyEstimate:
    l: CholeskyFactor
    sweeps: np.ndarray
    converged: np.ndarray

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def estimate_cholesky_path(
    perm: Permutation,
    s: SampleCovariance,
    params_seq: Sequence[McpParams],
    settings: SolverSettings = SolverSettings(),
    l0: CholeskyFactor | None = None,
) -> list[CholeskyEstimate]:
    """Estimate the sparse Cholesky factor for each MCP cell at one ordering.

    Row 1 has the closed form L_11 = 1/sqrt(S^P_11); every other row is
    an independent subproblem on the leading block of S^P = P S P^t.
    The cells of ``params_seq`` are stacked, and all rows of all cells
    advance together through shared column sweeps, each row in cyclic
    coordinate order, so every cell's factor, sweep counts and
    convergence flags are those of a solve on its own.  A row stops once
    a sweep moves it less than ``settings.eps``; rows still moving after
    ``settings.k_max`` sweeps are flagged unconverged.  ``l0`` warm
    starts the rows of every cell.  The convexity guard is checked for
    every cell, in order, before the first sweep.
    """
    sp = _permuted_cov(perm, s)
    p = sp.shape[0]
    d = np.diag(sp).copy()  # positive: SampleCovariance enforces it
    guard = max(float(1.0 / (2.0 * d.min())), 1.0)
    for params in params_seq:
        if params.gamma <= guard:
            raise ConvexityGuardError(
                f"gamma={params.gamma} must exceed max(1/(2 min S^P_ii), 1) = {guard}"
            )

    if l0 is not None and l0.p != p:
        raise ValueError("l0 dimension disagrees with the covariance")

    c = len(params_seq)
    if l0 is None:
        l = np.zeros((c, p, p))
        l[:, np.arange(p), np.arange(p)] = 1.0 / np.sqrt(d)
    else:
        l = np.repeat(np.tril(l0.l)[None], c, axis=0)
    lam = np.array([params.lam for params in params_seq], dtype=float)[:, None]
    gamma = np.array([params.gamma for params in params_seq], dtype=float)[:, None]
    active = np.ones((c, p), dtype=bool)
    active[:, 0] = False
    l[:, 0, 0] = 1.0 / np.sqrt(d[0])
    sweeps = np.zeros((c, p), dtype=int)
    dl = d.tolist()
    out: list[CholeskyEstimate | None] = [None] * c
    cells = np.arange(c)  # the cell each slab of the stack belongs to
    for sweep in range(1, settings.k_max + 1):
        # a cell whose rows have all converged leaves the stack
        done = ~active.any(axis=1)
        if done.any():
            for k in np.flatnonzero(done):
                out[cells[k]] = CholeskyEstimate(CholeskyFactor(l[k]), sweeps[k], ~active[k])
            keep = ~done
            l, active, sweeps, cells = l[keep], active[keep], sweeps[keep], cells[keep]
            lam, gamma = lam[keep], gamma[keep]
        if not cells.size:
            break
        if np.count_nonzero(active) <= SCALAR_TAIL_PAIRS:
            moved = _scalar_sweep(sp, dl, l, active, lam, gamma)
        else:
            moved = _column_sweep(sp, dl, l, active, lam, gamma)
        finished = active & (moved < settings.eps)
        sweeps[finished] = sweep
        active &= ~finished
    sweeps[active] = settings.k_max
    for k, cell in enumerate(cells):
        out[cell] = CholeskyEstimate(CholeskyFactor(l[k]), sweeps[k], ~active[k])
    return out


def _column_sweep(sp, dl, l, active, lam, gamma) -> np.ndarray:
    """One cyclic sweep of all active rows of all cells at once, column by column.

    Updates the (cells, p, p) stack ``l`` in place and returns how far each
    row moved, in Euclidean norm.
    """
    p = sp.shape[0]
    thresh = gamma * lam
    denom = 2.0 * sp.diagonal() - 1.0 / gamma
    # past the last active row no column update touches an active row
    last = int(np.flatnonzero(active.any(axis=0))[-1])
    by_col = active.T.tolist()
    slabs = list(l)
    l_old = l.copy()
    for j in range(last + 1):
        dj = dl[j]
        # a separate dot per cell: a stacked product rounds differently
        col = sp[: j + 1, j]
        for slab, on in zip(slabs, by_col[j]):
            if on:
                ssum = float(col.dot(slab[j, : j + 1])) - dj * slab.item(j, j)
                slab[j, j] = diagonal_step(ssum, dj)
        if j >= last:
            continue
        # all rows below j, active or not: a shorter product rounds differently
        rows = slice(j + 1, p)
        lj = l[:, rows, j]
        z = -2.0 * (l[:, rows, :] @ sp[:, j] - dj * lj)
        az = np.abs(z)
        new = np.sign(z) * np.maximum(az - lam, 0.0) / denom[:, j : j + 1]
        np.copyto(new, z / (2.0 * dj), where=az / (2.0 * dj) >= thresh)
        np.copyto(lj, new, where=active[:, rows])
    return np.sqrt(((l - l_old) ** 2).sum(axis=2))


def _scalar_sweep(sp, dl, l, active, lam, gamma) -> np.ndarray:
    """``_column_sweep`` for a few active rows: the straggler tail of a solve.

    Each cell takes the same full-slice product per column as the stacked
    sweep (a 2-D product rounds like one slab of the 3-D one), and the
    closed-form steps run in floats on the active rows only, in the same
    order, so the bits are those of ``_column_sweep``.  Returns the moves
    of the active rows, zero elsewhere.
    """
    ks, rows = np.nonzero(active)
    old = l[ks, rows]
    lams, gammas = lam[:, 0].tolist(), gamma[:, 0].tolist()
    for k, pairs in itertools.groupby(zip(ks.tolist(), rows.tolist()), key=itemgetter(0)):
        own = [i for _, i in pairs]
        slab, lam_k, gamma_k = l[k], lams[k], gammas[k]
        lo = 0  # own[lo] is the first active row at or below column j
        for j in range(own[-1] + 1):
            dj = dl[j]
            if own[lo] == j:
                ssum = float(sp[: j + 1, j].dot(slab[j, : j + 1])) - dj * slab.item(j, j)
                slab[j, j] = diagonal_step(ssum, dj)
                lo += 1
                if lo == len(own):
                    break
            prod = slab[j + 1 :] @ sp[:, j]
            for i in own[lo:]:
                z = -2.0 * (prod.item(i - j - 1) - dj * slab.item(i, j))
                slab[i, j] = offdiagonal_step(z, dj, lam_k, gamma_k)
    moved = np.zeros(active.shape)
    moved[ks, rows] = np.sqrt(((l[ks, rows] - old) ** 2).sum(axis=1))
    return moved


def estimate_cholesky(
    perm: Permutation,
    s: SampleCovariance,
    params: McpParams,
    settings: SolverSettings = SolverSettings(),
    l0: CholeskyFactor | None = None,
) -> CholeskyEstimate:
    """Estimate the full sparse Cholesky factor for a fixed ordering.

    The one-cell case of ``estimate_cholesky_path``.
    """
    return estimate_cholesky_path(perm, s, [params], settings, l0)[0]


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
