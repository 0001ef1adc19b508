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
A column sweep gets z_j of every row below column j from one product
with row j of M = -2 S^P, its diagonal zeroed, and writes all diagonals
after the last column: a row's diagonal comes last in its cyclic order
and no other coordinate reads it.  Each coordinate is strictly convex
and h is bounded below, so the sweeps descend to a coordinate-wise
minimum (Tseng 2001, Thm 5.1).
``estimate_cholesky_path`` stacks the factors of several (lambda, gamma)
cells at one ordering, such as a tuning grid, and sweeps them together,
so the per-column overhead is paid once for the whole path;
``estimate_cholesky`` is its one-cell case.

Rows converge unevenly: at p = 200 the median row stops after about 10
sweeps and the slowest after 38-160, so a solve ends in sweeps with a
handful of active rows.  Once a cell has at most ``BLOCK_TAIL_SHARE`` * p
active rows, its sweeps run row by row (``_block_sweep``).  With a row's
support S, its signs and each coordinate's MCP region fixed, one cyclic
pass over its off-diagonals is an affine Gauss-Seidel step: forward
substitution with T = diag(c) + 2 tril(A_SS, -1).  The step is taken only
when its result reproduces the assumed pattern, so that the cyclic pass
makes the same step in exact arithmetic; otherwise the row keeps the
step's coordinates before the first one refused, which the cyclic pass
also makes, and goes on by the scalar closed forms.  The iterates, and
the theorem above, are those of cyclic coordinate descent, and the two
paths differ only in rounding: per-row sweep counts, convergence flags
and supports agree, and factors to 1e-12.  The switch counts each cell's
own rows, so a cell's factor, sweep counts and flags in a path are
bit-identical to those of a solve on its own.

``offdiagonal_step`` and ``diagonal_step`` are the one closed form of
each coordinate update.  The column sweep applies their float operations
elementwise, so from the same z_j (or diagonal sum) the scalar and array
forms give the same bits, signed zeros included.  Those inputs are
products and sums whose rounding depends on their length and order, which
differ between the column sweep, the block step and the scalar cyclic
pass (``_cyclic_row``); so these three agree to 1e-12, not bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from birkdag.scoring import McpParams, _permuted_cov, mcp
from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance


# A cell whose active rows number at most this share of p sweeps them
# through ``_block_sweep``.  The stacked sweep pays one product and about
# ten numpy calls per column however few rows are still active, so its
# cost per sweep grows with p, while a block row step is a fixed two dozen
# numpy calls.  Measured best shares: about p/3 for a 5-cell tuning path
# and p/2 for one cell, at p = 100 and at p = 200; each loses about 10%
# on the other's case.
BLOCK_TAIL_SHARE = 1 / 3


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
    unpenalized value z / (2 a_jj); otherwise S_lambda(z) / (2 a_jj - 1/gamma)
    with S_lambda(z) = copysign(max(|z| - lambda, 0), z).  The test reads
    |z / (2 a_jj)|, which equals |z| / (2 a_jj) exactly.  Each float
    operation is the one the column sweep applies elementwise, so from the
    same z the scalar and the array forms agree bit for bit.
    """
    q = z / (2.0 * a_jj)
    if abs(q) >= gamma * lam:
        return q
    return math.copysign(max(abs(z) - lam, 0.0), z) / (2.0 * a_jj - 1.0 / gamma)


def diagonal_step(ssum, a_kk):
    """Positive root of a_kk t^2 + ssum t - 1 = 0, for floats or elementwise."""
    return (-ssum + np.sqrt(ssum * ssum + 4.0 * a_kk)) / (2.0 * a_kk)


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
    coordinate order, until a cell has at most ``BLOCK_TAIL_SHARE`` * p
    active rows; from then on that cell sweeps its rows one at a time
    by ``_block_sweep``, which makes the same cyclic steps up to
    rounding (see the module docstring).  Every cell's factor, sweep
    counts and convergence flags are those of a solve on its own, bit
    for bit.  A row stops once
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
    m = -2.0 * sp
    np.fill_diagonal(m, 0.0)
    out: list[CholeskyEstimate | None] = [None] * c
    cells = np.arange(c)  # the cell each slab of the stack belongs to
    patterns = [{} for _ in range(c)]  # per cell: row -> its _Pattern
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
        # the switch counts each cell's own rows, so that a cell's factor
        # does not depend on which other cells share the stack
        stacked = np.count_nonzero(active, axis=1) > BLOCK_TAIL_SHARE * p
        if stacked.all():
            moved = _column_sweep(m, d, l, active, lam, gamma)
        else:
            moved = np.zeros(active.shape)
            if stacked.any():
                sub = l[stacked]
                moved[stacked] = _column_sweep(m, d, sub, active[stacked], lam[stacked], gamma[stacked])
                l[stacked] = sub
            for k in np.flatnonzero(~stacked).tolist():
                moved[k] = _block_sweep(
                    sp, dl, l[k], active[k], lam.item(k), gamma.item(k), patterns[cells[k]]
                )
        finished = active & (moved < settings.eps)
        sweeps[finished] = sweep
        active &= ~finished
    sweeps[active] = settings.k_max
    for k, cell in enumerate(cells):
        out[cell] = CholeskyEstimate(CholeskyFactor(l[k]), sweeps[k], ~active[k])
    return out


def _column_sweep(m, d, l, active, lam, gamma) -> np.ndarray:
    """One cyclic sweep of all active rows of all cells at once, column by column.

    ``m`` is -2 S^P with a zero diagonal, so that z_j of every row below
    column j is one product with its row ``m[j]``.  Each column writes the
    off-diagonal steps of the active rows below it; the diagonals follow
    after the last column, all at once.  A row's diagonal comes last in its
    cyclic order and no other coordinate reads it, so the iterate is the
    cyclic one.  Updates the (cells, p, p) stack ``l`` in place and returns
    how far each row moved, in Euclidean norm.
    """
    thresh = gamma * lam
    denom = 2.0 * d - 1.0 / gamma
    twice_d = (2.0 * d).tolist()
    # past the last active row no column update touches an active row
    last = int(np.flatnonzero(active.any(axis=0))[-1])
    l_old = l.copy()
    for j in range(last):
        # all rows below j, active or not: a shorter product rounds differently
        rows = slice(j + 1, None)
        z = l[:, rows, :] @ m[j]
        # offdiagonal_step, elementwise: |z| / (2 A_jj) is |z / (2 A_jj)| exactly
        q = z / twice_d[j]
        inner = np.abs(z)
        inner -= lam
        np.maximum(inner, 0.0, out=inner)
        np.copysign(inner, z, out=inner)
        np.divide(inner, denom[:, j : j + 1], out=q, where=np.abs(q) < thresh)
        np.copyto(l[:, rows, j], q, where=active[:, rows])
    on_cells, on_rows = np.nonzero(active)
    # sum_{k<i} S^P_ik L_ik, each summed along its own row of length p, so
    # that its rounding does not depend on the stack
    ssum = -0.5 * (l[on_cells, on_rows] * m[on_rows]).sum(axis=1)
    l[on_cells, on_rows, on_rows] = diagonal_step(ssum, d[on_rows])
    return np.sqrt(((l - l_old) ** 2).sum(axis=2))


def _block_sweep(sp, dl, slab, active, lam, gamma, patterns) -> np.ndarray:
    """One cyclic sweep of the active rows of one cell, row by row.

    A row whose pattern (``_row_pattern``) still holds takes the sweep as
    one triangular solve (``_pattern_step``).  Otherwise it keeps the
    solve's coordinates before the first one refused, the cyclic pass
    itself (``_cyclic_row``) goes on from that coordinate, and its pattern
    is read again at the next sweep.  ``slab`` is the cell's (p, p)
    factor, updated in place, and ``patterns`` maps each row to its
    current pattern.  Returns the moves of the active rows, zero
    elsewhere.
    """
    moved = np.zeros(len(active))
    for i in np.flatnonzero(active).tolist():
        x = slab[i, : i + 1]
        old = x.copy()
        pattern = patterns.get(i)
        if pattern is None:
            pattern = patterns[i] = _row_pattern(sp, x, lam, gamma)
        kept = _pattern_step(dl, x, lam, gamma, pattern)
        if kept < i:
            del patterns[i]
            _cyclic_row(sp, dl, x, lam, gamma, kept)
        step = x - old
        moved[i] = math.sqrt(float(step @ step))
    return moved


@dataclass(frozen=True)
class _Pattern:
    """A row's pattern: the support S of its off-diagonals, their signs and
    MCP regions, with the blocks of the step it implies.

    Each off-diagonal's input z_j, with new values before j and old ones
    after, is ``lower`` x_S' + ``upper`` (x_S, x_i): ``upper`` is
    -2 A[:i, S + [i]] kept on the columns after each row, ``lower`` is
    -2 A[:i, S] kept on the columns before it.
    """

    s: np.ndarray  # S, ascending
    s_ext: np.ndarray  # S and the diagonal i
    lam_sign: np.ndarray  # lambda sign(x_j) on the inner coordinates of S, 0 on flat ones
    flat: np.ndarray  # the region of each of the i off-diagonals: flat or not
    # z_j must lie strictly between lo_j and hi_j: (lambda, inf) or
    # (-inf, -lambda) inner, [-lambda, lambda] for a zero (its ends pushed
    # out by one ulp), anywhere flat
    lo: np.ndarray
    hi: np.ndarray
    twice_d: np.ndarray  # 2 A_jj of the i off-diagonals
    tri: np.ndarray  # T = diag(c) + 2 tril(A_SS, -1), Fortran order
    upper: np.ndarray
    lower: np.ndarray
    diag_col: np.ndarray  # A[S, i]


def _row_pattern(sp, x, lam, gamma) -> _Pattern:
    """The pattern of row ``x`` read off its values.

    Flat values have |x_j| >= gamma lambda and inner ones less: the two
    branches of ``offdiagonal_step`` meet at gamma lambda.
    """
    i = len(x) - 1
    off = x[:i]
    support = off != 0.0
    flat = support & (np.abs(off) >= gamma * lam)
    s = np.flatnonzero(support)
    s_ext = np.append(s, i)
    block = -2.0 * sp[:i, s_ext]
    rows = np.arange(i)[:, None]
    upper = np.where(s_ext > rows, block, 0.0)
    lower = np.where(s < rows, block[:, :-1], 0.0)
    inner = ~flat[s]
    tri = -lower[s]
    tri[np.diag_indices(len(s))] = 2.0 * sp[s, s] - inner / gamma
    sign = np.sign(off)
    lo = np.where(support, np.where(sign > 0, lam, -np.inf), np.nextafter(-lam, -np.inf))
    hi = np.where(support, np.where(sign < 0, -lam, np.inf), np.nextafter(lam, np.inf))
    lo[flat], hi[flat] = -np.inf, np.inf
    return _Pattern(
        s=s,
        s_ext=s_ext,
        lam_sign=lam * sign[s] * inner,
        flat=flat,
        lo=lo,
        hi=hi,
        twice_d=2.0 * sp.diagonal()[:i],
        tri=np.asfortranarray(tri),
        upper=upper,
        lower=lower,
        diag_col=sp[s, i],
    )


def _pattern_step(dl, x, lam, gamma, pat: _Pattern) -> int:
    """The cyclic pass over row ``x`` as one forward substitution.

    While the row keeps its pattern, each off-diagonal step is affine in
    the values before and after it: flat ones are z_j / (2 A_jj), inner
    ones (z_j - lambda sign(x_j)) / (2 A_jj - 1/gamma), zeros stay zero.
    So the pass over S solves T x_S' = -2 (triu(A_SS, 1) x_S + A_{S,i} x_i)
    - lambda sign(x_S) (inner coordinates only).  The step is taken only
    if the pass would have made it in exact arithmetic: every z_j falls
    in its assumed region by ``offdiagonal_step``'s own test, each inner
    one clears lambda with the assumed sign, and each zero sees
    |z_j| <= lambda.  A z_j depends only on the new values before j, so
    the coordinates before the first refused one are those the cyclic pass
    makes.  They are written into ``x`` and their count returned; when no
    coordinate is refused that count is i and the diagonal is written too.
    """
    i = len(x) - 1
    b = pat.upper @ x[pat.s_ext]
    if pat.s.size:
        new, info = dtrtrs(pat.tri, b[pat.s] - pat.lam_sign, lower=1)
        if info:
            return 0
        z = pat.lower @ new + b
    else:
        new, z = b[:0], b
    held = (np.abs(z) / pat.twice_d >= gamma * lam) == pat.flat
    held &= pat.lo < z
    held &= z < pat.hi
    if not held.all():
        first = int(held.argmin())
        k = int(np.searchsorted(pat.s, first))
        x[pat.s[:k]] = new[:k]
        return first
    x[pat.s] = new
    x[i] = diagonal_step(float(pat.diag_col @ new), dl[i])
    return i


def _cyclic_row(sp, dl, x, lam, gamma, start=0) -> None:
    """The cyclic pass over row ``x`` by the scalar closed forms, in place,
    from off-diagonal ``start`` on."""
    i = len(x) - 1
    for j in range(start, i):
        z = -2.0 * (float(sp[j, : i + 1] @ x) - dl[j] * x.item(j))
        x[j] = offdiagonal_step(z, dl[j], lam, gamma)
    x[i] = diagonal_step(float(sp[i, :i] @ x[:i]), dl[i])


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
