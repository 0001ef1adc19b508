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

Rows converge unevenly: at p = 200 the median row of plain cyclic
descent stops after about 10 sweeps and the slowest after 35-160, but a
row's pattern (the support S of its off-diagonals, their signs and each
one's MCP region) settles much sooner: by sweep 5 to 10 only a few rows
still change it.  So a cell leaves the stack after a column sweep in
which the pattern of at most ``SETTLED_SHARE`` of its active rows
changed, or once all its rows have stopped, and finishes on its own
(``_finish``): each further sweep advances its active rows by one
batched block step (``_block_sweep``) until they stop or reach the
sweep cap.  The stack only shrinks.  With
a row's pattern fixed, one cyclic pass over its off-diagonals is an
affine Gauss-Seidel step: forward substitution with
T = diag(c) + 2 tril(A_SS, -1).  The batched step pads the cell's
supports to one width, reads z_j from the columns of M on each support,
and runs the substitution for all rows at once.  A row's step is taken
only when its result reproduces the assumed pattern, so that the cyclic
pass makes the same step in exact arithmetic; otherwise the row keeps
the step's coordinates before the first one refused, which the cyclic
pass also makes, goes on by the scalar closed forms, and its pattern is
read again.

With its pattern fixed, cyclic descent on a row is that affine step
repeated, and its limit solves one small linear system.  So every
``EXACT_EVERY``-th sweep of a call, in the stack and in ``_finish``
alike, starts with an exact step (``_exact_step``): each active row
jumps to its pattern's fixed point, where the pattern's Hessian makes
that point the minimizer, and one batched cyclic pass from there checks
it.  A row that pass leaves in its pattern and moves less than eps keeps
the pass's result and stops; every other row keeps its values, bit for
bit, and takes the sweep as before.  The rule reads only the sweep index,
not the schedule.  At p = 200 the median row now stops after 8 sweeps
and the slowest after 8-48.

The iterates are those of cyclic coordinate descent with verified jumps.
A jump does not raise h, so the sweeps still descend to a coordinate-wise
minimum, and each stopped row is a fixed point of the cyclic pass to
eps.  The column and block paths differ only in rounding: per-row sweep
counts, convergence flags, exact flags and supports agree, and factors to
1e-12.  The leaving rule reads each cell's own rows, so a cell's factor,
sweep counts and flags in a path are bit-identical to those of a solve on
its own.

At p = 200 a column update costs about ten numpy calls and a block step
a few dozen, on arrays of about a hundred entries, so what those calls
set up is built once, not once per column or step.  ``_Stack`` holds,
for each state of the stack (at the start, and after cells leave), every
view and constant a column update reads, and each entry's pattern code
(its sign, doubled in the MCP flat region): a sweep computes the codes of
the new factor only and compares them with those it carried from the
sweep before.  ``_Batch`` keeps the flat gather indices of a batch, its
buffer for the forward substitution with that buffer's per-column views,
and the diagonal at its rows, from one block step to the next; they are
refreshed when refused rows' patterns are merged in place, and rebuilt
with the batch.  Every product keeps its shape and every elementwise
operation its order, so this set-up changes no bit of the iterates.

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
from dataclasses import dataclass, fields

import numpy as np

from birkdag.scoring import ConvexityGuardError, McpParams, _permuted_cov, mcp
from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance, _as_real, _check_counts


# A cell leaves the stack of column sweeps for good after a column sweep
# in which the pattern of at most this share of its active rows changed.
SETTLED_SHARE = 0.05

# Every sweep whose index (counted from 1 in each call) is a multiple of
# this starts with an exact step (``_exact_step``) on the active rows.
EXACT_EVERY = 8


@dataclass(frozen=True)
class SolverSettings:
    """Convergence tolerance and sweep cap for the L-step.

    A row stops once a sweep moves it less than eps in Euclidean norm.
    The cap is a safeguard, not a stopping rule: some rows at p = 200
    need more than 150 sweeps to meet eps.
    """

    eps: float = 1e-8
    k_max: int = 20000

    def __post_init__(self):
        object.__setattr__(self, "eps", _as_real(self.eps, "eps must be positive", 0.0, above=True))
        _check_counts(self, k_max=1)


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
    """The factor, and per row its sweep count, whether it stopped before
    the cap, and whether it stopped at an accepted exact step."""

    l: CholeskyFactor
    sweeps: np.ndarray
    converged: np.ndarray
    exact: np.ndarray

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def gamma_guard(s: SampleCovariance) -> float:
    """max(1/(2 min S_ii), 1): at every ordering, the L-step's coordinate
    subproblems are strictly convex exactly for gamma above it."""
    return max(float(1.0 / (2.0 * np.diag(s.s).min())), 1.0)


def guard_error(params: McpParams, guard: float) -> ConvexityGuardError:
    """The error of a cell whose gamma does not exceed ``gamma_guard``."""
    return ConvexityGuardError(
        f"gamma={params.gamma} must exceed max(1/(2 min S^P_ii), 1) = {guard}")


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
    The cells of ``params_seq`` are stacked, and all rows of the stack
    advance together through shared column sweeps, each row in cyclic
    coordinate order.  After each column sweep, a cell whose row patterns
    settled (see ``SETTLED_SHARE``) or whose rows all stopped leaves the
    stack for good and finishes on its own (``_finish``), one batched
    block step per sweep, which makes the same cyclic steps up to
    rounding (see the module docstring).  Every ``EXACT_EVERY``-th sweep
    starts with an exact step (``_exact_step``).  Every cell's factor,
    sweep counts and convergence and exact flags are those of a solve on
    its own, bit for bit.  A row stops once a sweep moves it less than
    ``settings.eps``; rows still moving after ``settings.k_max`` sweeps
    are flagged unconverged.  ``l0`` warm starts the rows of every cell.
    The convexity guard is checked for every cell, in order, before the
    first sweep.
    """
    sp = _permuted_cov(perm, s)
    p = sp.shape[0]
    d = np.diag(sp).copy()  # positive: SampleCovariance enforces it
    guard = gamma_guard(s)
    for params in params_seq:
        if params.gamma <= guard:
            raise guard_error(params, guard)

    if l0 is not None and l0.p != p:
        raise ValueError("l0 dimension disagrees with the covariance")

    c = len(params_seq)
    if l0 is None:
        l = np.zeros((c, p, p))
        l[:, np.arange(p), np.arange(p)] = 1.0 / np.sqrt(d)
    else:
        l = np.repeat(np.tril(l0.l)[None], c, axis=0)
    l[:, 0, 0] = 1.0 / np.sqrt(d[0])
    m = -2.0 * sp
    np.fill_diagonal(m, 0.0)
    stack = _Stack(m, d, l, params_seq)
    cov = _BlockCov.of(sp, m)
    out: list[CholeskyEstimate | None] = [None] * c
    for sweep in range(1, settings.k_max + 1):
        active = stack.active
        # each cell in the stack has an active row, unless p is 1
        if not active.any():
            break
        # the rule reads each cell's own rows, so that a cell's factor does
        # not depend on which other cells share the stack; it counts the
        # rows active before the exact steps, so that the rows they stop
        # count as settled
        counted = np.count_nonzero(active, axis=1)
        if sweep % EXACT_EVERY == 0:
            for k in range(len(active)):
                lam, gamma = stack.lam.item(k), stack.gamma.item(k)
                on = _exact_step(cov, stack.l[k], active[k], lam, gamma, settings.eps)
                stack.sweeps[k, on] = sweep
                stack.exact[k, on] = True
        moved, changed = _column_sweep(stack)
        settled = changed <= SETTLED_SHARE * counted
        finished = active & (moved < settings.eps)
        stack.sweeps[finished] = sweep
        active &= ~finished
        leave = settled | ~active.any(axis=1)
        if leave.any():
            for k in np.flatnonzero(leave).tolist():
                out[stack.cells[k]] = _finish(cov, stack, k, sweep, settings)
            stack.keep(~leave)
    # cells still in the stack at k_max finish with no block sweep
    for k, cell in enumerate(stack.cells.tolist()):
        out[cell] = _finish(cov, stack, k, settings.k_max, settings)
    return out


class _Stack:
    """The cells still swept by columns, and ``_column_sweep``'s set-up for them.

    ``l``, ``active``, ``sweeps`` and ``exact`` hold one (p, p) factor, one
    (p,) row mask, one (p,) sweep count and one (p,) exact flag per cell
    of the stack, and ``cells`` the index of each in the path.  Every view
    and constant a column update reads (``columns``) stays the same from
    sweep to sweep, so it is built once per stack state: at the start, and
    again after cells leave.
    ``codes`` holds each entry's sign, doubled in the MCP flat region and 0
    on the diagonal, as of the last sweep; each sweep compares the new
    codes with these and keeps them for the next.
    """

    def __init__(self, m, d, l, params_seq):
        c, p = len(l), len(d)
        self.m, self.d, self.l = m, d, l
        self.lam = np.array([params.lam for params in params_seq], dtype=float)[:, None]
        self.gamma = np.array([params.gamma for params in params_seq], dtype=float)[:, None]
        self.active = np.ones((c, p), dtype=bool)
        self.active[:, 0] = False
        self.sweeps = np.zeros((c, p), dtype=int)
        self.exact = np.zeros((c, p), dtype=bool)
        self.cells = np.arange(c)
        self.diagonal = np.arange(p)
        self.zero = np.zeros(())
        self._views()
        self.codes = self.code(l)

    def _views(self):
        l, active, m = self.l, self.active, self.m
        thresh = self.gamma * self.lam
        self.thresh3 = thresh[:, :, None]
        denom = 2.0 * self.d - 1.0 / self.gamma
        twice_d = 2.0 * self.d
        one = len(l) == 1

        def per_cell(a, j):
            # column j of a (cells, k) constant as a (cells, 1) column, or as
            # a 0-d array when the stack holds one cell: numpy reads a 0-d
            # operand by its scalar fast path, without the set-up of a
            # broadcast.  The values are the same.
            return a[0, j, ...] if one else a[:, j : j + 1]

        self.lam_op, self.thresh_op = per_cell(self.lam, 0), per_cell(thresh, 0)
        # column j: all rows below it, active or not, since a shorter
        # product rounds differently
        self.columns = [
            (
                l[:, j + 1 :, :],
                m[j],
                twice_d[j, ...],
                per_cell(denom, j),
                l[:, j + 1 :, j],
                active[:, j + 1 :],
            )
            for j in range(len(m) - 1)
        ]

    def code(self, l):
        """Each entry's sign, doubled in the flat region; 0 on the diagonal."""
        codes = np.sign(l)
        codes *= 1.0 + (np.abs(l) >= self.thresh3)
        codes[:, self.diagonal, self.diagonal] = 0.0
        return codes

    def keep(self, keep):
        """Keep only the cells of the mask ``keep``, in new arrays, so that
        the factors ``_finish`` returned for the others, views of the old
        arrays, stay as they are."""
        self.l, self.active, self.sweeps = self.l[keep], self.active[keep], self.sweeps[keep]
        self.exact = self.exact[keep]
        self.cells, self.lam, self.gamma = self.cells[keep], self.lam[keep], self.gamma[keep]
        self.codes = self.codes[keep]
        if len(self.l):  # an empty stack is never swept again
            self._views()


def _finish(cov, stack, k, sweep, settings) -> CholeskyEstimate:
    """Cell ``k`` of ``stack``, leaving it after column sweep ``sweep``, run to its end.

    Each further sweep advances the cell's active rows by one
    ``_block_sweep``, after the exact step on every ``EXACT_EVERY``-th,
    until they stop or ``settings.k_max`` sweeps have run; rows still
    moving then are flagged unconverged.  The cell's factor, row mask,
    sweep counts and exact flags are its slabs of the stack, updated in
    place.
    """
    slab, active, sweeps, exact = stack.l[k], stack.active[k], stack.sweeps[k], stack.exact[k]
    lam, gamma = stack.lam.item(k), stack.gamma.item(k)
    batch = None
    for sweep in range(sweep + 1, settings.k_max + 1):
        if sweep % EXACT_EVERY == 0 and active.any():
            on = _exact_step(cov, slab, active, lam, gamma, settings.eps)
            sweeps[on] = sweep
            exact[on] = True
        if not active.any():
            break
        moved, batch = _block_sweep(cov, slab, active, lam, gamma, batch)
        finished = active & (moved < settings.eps)
        sweeps[finished] = sweep
        active &= ~finished
    sweeps[active] = settings.k_max
    return CholeskyEstimate(CholeskyFactor(slab), sweeps, ~active, exact)


def _column_sweep(stack) -> tuple[np.ndarray, np.ndarray]:
    """One cyclic sweep of all active rows of all cells at once, column by column.

    ``stack.m`` is -2 S^P with a zero diagonal, so that z_j of every row
    below column j is one product with its row ``m[j]``.  Each column
    writes the off-diagonal steps of the active rows below it; the
    diagonals follow after the last column, all at once.  A row's diagonal
    comes last in its cyclic order and no other coordinate reads it, so
    the iterate is the cyclic one.  Updates the (cells, p, p) factors
    ``stack.l`` in place, replaces ``stack.codes`` by the new codes, and
    returns how far each row moved, in Euclidean norm, and for each cell
    the count of its rows whose pattern changed: an off-diagonal changed
    sign or MCP region.
    """
    m, d, l, active = stack.m, stack.d, stack.l, stack.active
    lam, thresh, zero = stack.lam_op, stack.thresh_op, stack.zero
    # past the last active row no column update touches an active row; an
    # exact step may have stopped them all
    last = max(np.flatnonzero(active.any(axis=0)).tolist(), default=0)
    l_old = l.copy()
    for below, m_j, twice_d_j, denom_j, l_j, active_j in stack.columns[:last]:
        z = below @ m_j
        # offdiagonal_step, elementwise: |z| / (2 A_jj) is |z / (2 A_jj)| exactly
        q = z / twice_d_j
        inner = np.abs(z)
        inner -= lam
        np.maximum(inner, zero, out=inner)
        np.copysign(inner, z, out=inner)
        # every entry's inner value, taken where |q| < gamma lambda: a
        # masked divide costs more than a whole one and a masked copy
        inner /= denom_j
        np.copyto(q, inner, where=np.abs(q) < thresh)
        np.copyto(l_j, q, where=active_j)
    on_cells, on_rows = np.nonzero(active)
    # sum_{k<i} S^P_ik L_ik, each summed along its own row of length p, so
    # that its rounding does not depend on the stack
    ssum = -0.5 * (l[on_cells, on_rows] * m[on_rows]).sum(axis=1)
    l[on_cells, on_rows, on_rows] = diagonal_step(ssum, d[on_rows])
    moved = np.sqrt(((l - l_old) ** 2).sum(axis=2))
    codes = stack.code(l)
    changed = codes != stack.codes
    stack.codes = codes
    return moved, np.count_nonzero(changed.any(axis=2), axis=1)


@dataclass(frozen=True)
class _BlockCov:
    """S^P as the block path reads it, padded by one index p.

    Index p pads the batched row supports: its rows and columns of
    ``older`` and ``newer`` are zero, and its ``dz`` entry is 1/2, so that
    a padded slot divides by 2 dz = 1.
    """

    sp: np.ndarray
    dl: list  # the diagonal of S^P, as floats for the scalar pass
    dz: np.ndarray  # the diagonal of S^P, then 1/2
    twice_dz: np.ndarray  # 2 dz
    # M = -2 S^P with a zero diagonal, split: row t of ``older`` is the
    # weight of x_t in each z_j before it (j < t), row t of ``newer`` in
    # each z_j after it (j > t)
    older: np.ndarray
    newer: np.ndarray

    @classmethod
    def of(cls, sp, m):
        p = len(sp)
        mz = np.zeros((p + 1, p + 1))
        mz[:p, :p] = m
        d = np.diag(sp)
        dz = np.append(d, 0.5)
        return cls(sp, d.tolist(), dz, 2.0 * dz, np.tril(mz, -1), np.triu(mz, 1))


def _block_sweep(cov, slab, active, lam, gamma, batch) -> tuple[np.ndarray, _Batch]:
    """One cyclic sweep of the active rows of one settled cell, as one batched step.

    ``batch`` holds the patterns of the cell's rows (``_batch``).  They are
    read at the cell's first block sweep (``batch`` None) and kept while
    they hold.  Rows that have stopped stay in the batch, their steps
    discarded, until they make up half of it; then the patterns of the
    active rows are read afresh.  All rows advance by one ``_batch_step``.
    A row it refuses keeps the step's coordinates before the first one
    refused, the cyclic pass itself (``_cyclic_row``) goes on from that
    coordinate, and only that row's pattern is read again.  ``slab`` is
    the cell's (p, p) factor, updated in place.  Returns the moves of the
    active rows, zero elsewhere, and the batch for the next sweep.
    """
    p = len(active)
    if batch is None or 2 * np.count_nonzero(active) <= len(batch.rows):
        batch = _batch(cov, slab, np.flatnonzero(active), lam, gamma)
    rows = batch.rows
    # column p is a sink for the padded support slots
    x = np.zeros((len(rows), p + 1))
    x[:, :p] = slab[rows]
    kept = _batch_step(cov, x, batch, lam, gamma)
    live = active[rows]
    refused = np.flatnonzero(live & (kept < rows))
    for r in refused.tolist():
        _cyclic_row(cov.sp, cov.dl, x[r, : rows[r] + 1], lam, gamma, kept.item(r))
    on = rows[live]
    new = x[live, :p]
    step = new - slab[on]
    slab[on] = new
    moved = np.zeros(p)
    moved[on] = np.sqrt((step * step).sum(axis=1))
    if refused.size:
        width = batch.s.shape[1]
        fresh = _batch(cov, slab, rows[refused], lam, gamma, width)
        if fresh.s.shape[1] > width:
            return moved, _batch(cov, slab, on, lam, gamma)
        batch.merge(refused, fresh)
    return moved, batch


@dataclass
class _Batch:
    """The patterns of a cell's rows, stacked for one batched block step.

    A row's pattern is the support S of its off-diagonals, their signs and
    MCP regions.  Row r of the batch is factor row ``rows[r]``; its support
    fills ``s[r]`` in ascending order, padded to the common width w with
    p, the zero index of ``_BlockCov``.  Each off-diagonal's
    input z_j, with new values before j and old ones after, is
    ``lower`` x_S' + ``upper`` (x_S, x_i) over the coordinates j <= p, of
    which those at or past the row's diagonal are ignored: ``upper`` is
    -2 A[j, S + [i]] kept where the column lies after j, ``lower`` is
    -2 A[j, S] kept where it lies before j.

    The fields are read off the rows' values and replaced row by row
    (``merge``).  The rest is ``_batch_step``'s set-up, which stays the
    same from step to step: the flat indices of [r, s[r]] and
    [r, cols[r]] in an (R, p + 1) array, refreshed on each merge, and the
    buffer of the new support values with its views for each column of
    the forward substitution.
    """

    rows: np.ndarray
    s: np.ndarray  # (R, w): S, ascending, padded with p
    cols: np.ndarray  # (R, w + 1): S and the diagonal i
    upper: np.ndarray  # (R, w + 1, p + 1)
    lower: np.ndarray  # (R, w, p + 1)
    sub: np.ndarray  # (R, w, w): lower on the columns S, the off-diagonal part of -T
    c: np.ndarray  # (R, w): T's diagonal, 2 A_jj less 1/gamma if inner; 1 on padding
    lam_sign: np.ndarray  # (R, w): lambda sign(x_j) on the inner coordinates of S, 0 elsewhere
    flat: np.ndarray  # (R, p + 1): each coordinate's region, flat or not
    # z_j must lie strictly between lo_j and hi_j: (lambda, inf) or
    # (-inf, -lambda) inner, [-lambda, lambda] for a zero (its ends pushed
    # out by one ulp), anywhere flat
    lo: np.ndarray
    hi: np.ndarray
    past: np.ndarray  # (R, p + 1): the coordinates at or past the row's diagonal
    diag_col: np.ndarray  # (R, w): A[i, S], 0 on padding
    d_rows: np.ndarray  # (R,): A_ii

    def __post_init__(self):
        n, w = self.s.shape
        self.base = np.arange(n)[:, None] * self.flat.shape[1]
        self.at_s = self.base + self.s
        self.at_cols = self.base + self.cols
        self.new = np.empty((n, w))
        self.new_row = self.new[:, None, :]
        new, c, sub = self.new, self.c, self.sub
        # forward substitution: column q of T moves into the right-hand
        # sides after it once x_q' is known
        self.substitution = [
            (new[:, q], c[:, q], sub[:, q, q + 1 :], new[:, q + 1 :], new[:, q, None])
            for q in range(w)
        ]

    def merge(self, at, fresh):
        """Take ``fresh``'s patterns for the batch rows ``at``, in place."""
        for f in fields(self):
            getattr(self, f.name)[at] = getattr(fresh, f.name)
        np.add(self.base, self.s, out=self.at_s)
        np.add(self.base, self.cols, out=self.at_cols)


def _batch(cov, slab, rows, lam, gamma, width=0) -> _Batch:
    """The patterns of ``rows`` of ``slab``, read off their values.

    Flat values have |x_j| >= gamma lambda and inner ones less: the two
    branches of ``offdiagonal_step`` meet at gamma lambda.  The supports
    are padded to at least ``width``.
    """
    p = len(slab)
    x = np.zeros((len(rows), p + 1))
    x[:, :p] = slab[rows]
    past = np.arange(p + 1) >= rows[:, None]
    support = (x != 0.0) & ~past
    count = np.count_nonzero(support, axis=1)
    width = max(width, int(count.max()))
    s = np.argsort(~support, axis=1, kind="stable")[:, :width]
    s[np.arange(width) >= count[:, None]] = p
    cols = np.concatenate([s, rows[:, None]], axis=1)
    lower = cov.newer[s]
    flat = support & (np.abs(x) >= gamma * lam)
    at = np.arange(len(rows))[:, None]
    inner = support[at, s] & ~flat[at, s]
    sign = np.sign(x)
    lo = np.where(support, np.where(sign > 0, lam, -np.inf), np.nextafter(-lam, -np.inf))
    hi = np.where(support, np.where(sign < 0, -lam, np.inf), np.nextafter(lam, np.inf))
    lo[flat], hi[flat] = -np.inf, np.inf
    return _Batch(
        rows=rows,
        s=s,
        cols=cols,
        upper=cov.older[cols],
        lower=lower,
        sub=lower[at[:, :, None], np.arange(width)[:, None], s[:, None, :]],
        c=2.0 * cov.dz[s] - inner / gamma,
        lam_sign=lam * sign[at, s] * inner,
        flat=flat,
        lo=lo,
        hi=hi,
        past=past,
        diag_col=-0.5 * cov.older[rows[:, None], s],
        d_rows=cov.dz[rows],
    )


def _batch_step(cov, x, batch: _Batch, lam, gamma) -> np.ndarray:
    """The cyclic pass over each row of ``x`` as one forward substitution.

    While a row keeps its pattern, each off-diagonal step is affine in the
    values before and after it: flat ones are z_j / (2 A_jj), inner ones
    (z_j - lambda sign(x_j)) / (2 A_jj - 1/gamma), zeros stay zero.  So the
    pass over S solves T x_S' = -2 (triu(A_SS, 1) x_S + A_{S,i} x_i)
    - lambda sign(x_S) (inner coordinates only), with
    T = diag(c) + 2 tril(A_SS, -1); the substitution runs over the padded
    support width, all rows at once.  A row's step is taken only if the
    pass would have made it in exact arithmetic: every z_j falls in its
    assumed region by ``offdiagonal_step``'s own test, each inner one
    clears lambda with the assumed sign, and each zero sees
    |z_j| <= lambda.  A z_j depends only on the new values before j, so
    the coordinates before a row's first refused one are those the cyclic
    pass makes.  They are written into ``x`` (R, p + 1), and for each row
    the count of its coordinates written is returned; when no coordinate
    is refused that count is the row index i and the diagonal is written
    too.
    """
    rows, new = batch.rows, batch.new
    old = x.take(batch.at_cols)
    b = np.matmul(old[:, None, :], batch.upper)[:, 0]
    b.take(batch.at_s, out=new)
    new -= batch.lam_sign
    for new_q, c_q, sub_q, after_q, new_q1 in batch.substitution:
        new_q /= c_q
        after_q += sub_q * new_q1
    z = np.matmul(batch.new_row, batch.lower)[:, 0]
    z += b
    held = (np.abs(z) / cov.twice_dz >= gamma * lam) == batch.flat
    held &= batch.lo < z
    held &= z < batch.hi
    held |= batch.past
    kept = np.where(held.all(axis=1), rows, held.argmin(axis=1))
    x.put(batch.at_s, np.where(batch.s < kept[:, None], new, old[:, :-1]))
    diag = diagonal_step((batch.diag_col * new).sum(axis=1), batch.d_rows)
    x.put(batch.at_cols[:, -1], np.where(kept == rows, diag, old[:, -1]))
    return kept


def _exact_step(cov, slab, active, lam, gamma, eps) -> np.ndarray:
    """Jump each active row of ``slab`` to its pattern's fixed point, where verified.

    With a row's pattern fixed, the cyclic pass is an affine Gauss-Seidel
    step (``_batch_step``), and its limit solves one linear system:
    x_S = alpha + beta x_i with K alpha = -lambda sign(x_S) (inner
    coordinates only) and K beta = -2 A_{S,i}, where
    K = diag(c) - sub - sub^t = 2 A_SS - diag(inner / gamma), and x_i is
    the positive root of (A_ii + A_{iS} beta) t^2 + (A_{iS} alpha) t - 1 = 0,
    the diagonal step at that x_S.  A row is jumped only if K is positive
    definite and A_ii + A_{iS} beta > 0: then h with the pattern's penalty
    terms is strictly convex and the jump is its minimizer, so where the
    jump lies in the pattern it does not raise h.  The row keeps the
    result of one ``_batch_step`` from the jump, a cyclic pass, only if
    that step refuses no coordinate and moves the row less than ``eps``;
    the row then stops, a fixed point to eps.  Every other row keeps its
    values, bit for bit.  Updates ``slab`` and ``active`` in place and
    returns the rows kept.
    """
    p = len(slab)
    rows = np.flatnonzero(active)
    batch = _batch(cov, slab, rows, lam, gamma)
    sub, diag_col = batch.sub, batch.diag_col
    w = sub.shape[1]
    k = -(sub + sub.transpose(0, 2, 1))
    k[:, np.arange(w), np.arange(w)] = batch.c
    ab = _definite_solve(k, np.stack([-batch.lam_sign, -2.0 * diag_col], axis=2))
    alpha, beta = ab[:, :, 0], ab[:, :, 1]
    quad = batch.d_rows + (diag_col * beta).sum(axis=1)
    ok = quad > 0.0  # and so not NaN
    t = diagonal_step((diag_col * alpha).sum(axis=1), np.where(ok, quad, 1.0))
    # column p is a sink for the padded support slots
    x = np.zeros((len(rows), p + 1))
    x[:, :p] = slab[rows]
    x.put(batch.at_s, alpha + beta * t[:, None])
    x.put(batch.at_cols[:, -1], t)
    jump = x[:, :p].copy()
    ok &= _batch_step(cov, x, batch, lam, gamma) == rows
    step = x[:, :p] - jump
    ok &= np.sqrt((step * step).sum(axis=1)) < eps
    on = rows[ok]
    slab[on] = x[ok, :p]
    active[on] = False
    return on


def _definite_solve(k, rhs) -> np.ndarray:
    """k^-1 rhs for each matrix of the stack ``k`` that Cholesky factors and
    the solve finds nonsingular, NaN for the others.

    One factorization and one solve serve the whole stack; it is split
    matrix by matrix only when one of them fails.  A singular K can pass
    Cholesky in rounding (a rank-deficient A_SS, n < p).
    """
    try:
        np.linalg.cholesky(k)
        return np.linalg.solve(k, rhs)
    except np.linalg.LinAlgError:
        if k.ndim == 2:
            return np.full(rhs.shape, np.nan)
        return np.array([_definite_solve(k_r, rhs_r) for k_r, rhs_r in zip(k, rhs)])


def _cyclic_row(sp, dl, x, lam, gamma, start=0) -> None:
    """The cyclic pass over row ``x`` by the scalar closed forms, in place,
    from off-diagonal ``start`` on."""
    i = len(x) - 1
    # ndarray.dot and @ reach the same BLAS dot product; dot costs less to call
    for j, a_j in enumerate(sp[start:i, : i + 1], start):
        z = -2.0 * (float(a_j.dot(x)) - dl[j] * x.item(j))
        x[j] = offdiagonal_step(z, dl[j], lam, gamma)
    x[i] = diagonal_step(float(sp[i, :i].dot(x[:i])), dl[i])


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
