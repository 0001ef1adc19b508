"""The L-step's column sweep and block step against plain reference loops.

The reference functions keep the straightforward form of the two sweeps
behind ``solver.estimate_cholesky_path``: every view, constant and gather
index is built afresh for each column or step, and the pattern codes of
the old factor are recomputed from it each sweep.  The shipped kernels
build that set-up once per stack state or batch and carry the codes from
sweep to sweep; they must make the same steps, bit for bit: the factors,
the moves, the pattern-change counts, the kept indices of each batched
step, the sweep counts and the convergence flags.  The reference path
calls the solver's own exact step (``solver._exact_step``) at the same
sweeps, so whole paths, exact flags included, stay pinned too.
"""

from dataclasses import dataclass, fields

import numpy as np
import pytest

from birkdag import solver
from birkdag.scoring import McpParams, _permuted_cov
from birkdag.sem import (
    CholeskyFactor,
    Permutation,
    SampleCovariance,
    generate_dag,
    sample_covariance,
    sample_data,
)
from birkdag.solver import (
    SETTLED_SHARE,
    CholeskyEstimate,
    SolverSettings,
    diagonal_step,
    estimate_cholesky_path,
    offdiagonal_step,
)

CELLS = [McpParams(lam, 2.0) for lam in (0.1, 0.2, 0.3, 0.5, 0.7)]


def reference_column_sweep(m, d, l, active, lam, gamma):
    """(moved, changed) of one column sweep of the (cells, p, p) stack ``l``."""
    thresh = gamma * lam
    denom = 2.0 * d - 1.0 / gamma
    twice_d = (2.0 * d).tolist()
    last = max(np.flatnonzero(active.any(axis=0)).tolist(), default=0)
    l_old = l.copy()
    for j in range(last):
        rows = slice(j + 1, None)
        z = l[:, rows, :] @ m[j]
        q = z / twice_d[j]
        inner = np.abs(z)
        inner -= lam
        np.maximum(inner, 0.0, out=inner)
        np.copysign(inner, z, out=inner)
        np.divide(inner, denom[:, j : j + 1], out=q, where=np.abs(q) < thresh)
        np.copyto(l[:, rows, j], q, where=active[:, rows])
    on_cells, on_rows = np.nonzero(active)
    ssum = -0.5 * (l[on_cells, on_rows] * m[on_rows]).sum(axis=1)
    l[on_cells, on_rows, on_rows] = diagonal_step(ssum, d[on_rows])
    moved = np.sqrt(((l - l_old) ** 2).sum(axis=2))
    thresh = thresh[:, :, None]
    changed = np.sign(l) * (1.0 + (np.abs(l) >= thresh))
    changed = changed != np.sign(l_old) * (1.0 + (np.abs(l_old) >= thresh))
    diagonal = np.arange(l.shape[1])
    changed[:, diagonal, diagonal] = False
    return moved, np.count_nonzero(changed.any(axis=2), axis=1)


@dataclass(frozen=True)
class ReferenceCov:
    sp: np.ndarray
    dl: list
    dz: np.ndarray
    older: np.ndarray
    newer: np.ndarray


def reference_cov(sp, m):
    p = len(sp)
    mz = np.zeros((p + 1, p + 1))
    mz[:p, :p] = m
    d = np.diag(sp)
    return ReferenceCov(sp, d.tolist(), np.append(d, 0.5), np.tril(mz, -1), np.triu(mz, 1))


@dataclass(frozen=True)
class ReferenceBatch:
    rows: np.ndarray
    s: np.ndarray
    cols: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    sub: np.ndarray
    c: np.ndarray
    lam_sign: np.ndarray
    flat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    past: np.ndarray
    diag_col: np.ndarray


def reference_batch(cov, slab, rows, lam, gamma, width=0):
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
    return ReferenceBatch(
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
    )


def reference_batch_step(cov, x, batch, lam, gamma):
    rows, s = batch.rows, batch.s
    at = np.arange(len(rows))[:, None]
    old = x[at, batch.cols]
    b = np.matmul(old[:, None, :], batch.upper)[:, 0]
    new = b[at, s]
    new -= batch.lam_sign
    for q in range(s.shape[1]):
        new[:, q] /= batch.c[:, q]
        new[:, q + 1 :] += batch.sub[:, q, q + 1 :] * new[:, q, None]
    z = np.matmul(new[:, None, :], batch.lower)[:, 0]
    z += b
    held = (np.abs(z) / (2.0 * cov.dz) >= gamma * lam) == batch.flat
    held &= batch.lo < z
    held &= z < batch.hi
    held |= batch.past
    kept = np.where(held.all(axis=1), rows, held.argmin(axis=1))
    x[at, s] = np.where(s < kept[:, None], new, old[:, :-1])
    diag = diagonal_step((batch.diag_col * new).sum(axis=1), cov.dz[rows])
    x[at[:, 0], rows] = np.where(kept == rows, diag, old[:, -1])
    return kept


def reference_cyclic_row(sp, dl, x, lam, gamma, start=0):
    i = len(x) - 1
    for j in range(start, i):
        z = -2.0 * (float(sp[j, : i + 1] @ x) - dl[j] * x.item(j))
        x[j] = offdiagonal_step(z, dl[j], lam, gamma)
    x[i] = diagonal_step(float(sp[i, :i] @ x[:i]), dl[i])


class Events:
    """What the reference block sweeps did: kept indices of each step, and
    each refused row's support width before and after its pattern is read
    again, with whether the batch took the new pattern in place."""

    def __init__(self):
        self.kept = []
        self.regrown = []  # (row, old width, new width, merged in place)


def reference_block_sweep(cov, slab, active, lam, gamma, batch, events=None):
    p = len(active)
    if batch is None or 2 * np.count_nonzero(active) <= len(batch.rows):
        batch = reference_batch(cov, slab, np.flatnonzero(active), lam, gamma)
    rows = batch.rows
    x = np.zeros((len(rows), p + 1))
    x[:, :p] = slab[rows]
    kept = reference_batch_step(cov, x, batch, lam, gamma)
    if events is not None:
        events.kept.append(kept.copy())
    live = active[rows]
    refused = np.flatnonzero(live & (kept < rows))
    for r in refused.tolist():
        reference_cyclic_row(cov.sp, cov.dl, x[r, : rows[r] + 1], lam, gamma, kept.item(r))
    on = rows[live]
    new = x[live, :p]
    step = new - slab[on]
    slab[on] = new
    moved = np.zeros(p)
    moved[on] = np.sqrt((step * step).sum(axis=1))
    if refused.size:
        width = batch.s.shape[1]
        fresh = reference_batch(cov, slab, rows[refused], lam, gamma, width)
        merged = fresh.s.shape[1] <= width
        if events is not None:
            for f, r in enumerate(refused.tolist()):
                before = int(np.count_nonzero(batch.s[r] < p))
                after = int(np.count_nonzero(fresh.s[f] < p))
                events.regrown.append((rows.item(r), before, after, merged))
        if not merged:
            return moved, reference_batch(cov, slab, on, lam, gamma)
        for f in fields(ReferenceBatch):
            getattr(batch, f.name)[refused] = getattr(fresh, f.name)
    return moved, batch


def reference_path(perm, s, params_seq, settings=SolverSettings(), l0=None):
    """``estimate_cholesky_path`` with the reference kernels and the
    solver's own exact step (``solver._exact_step``)."""
    sp = _permuted_cov(perm, s)
    p = sp.shape[0]
    d = np.diag(sp).copy()
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
    exact = np.zeros((c, p), dtype=bool)
    m = -2.0 * sp
    np.fill_diagonal(m, 0.0)
    cov = reference_cov(sp, m)
    block_cov = solver._BlockCov.of(sp, m)
    out = [None] * c
    cells = np.arange(c)

    def jump(slab, act, swp, exa, lam, gamma, sweep):
        on = solver._exact_step(block_cov, slab, act, lam, gamma, settings.eps)
        swp[on] = sweep
        exa[on] = True

    def finish(k, sweep):
        slab, act, swp, exa = l[k], active[k], sweeps[k], exact[k]
        batch = None
        for sweep in range(sweep + 1, settings.k_max + 1):
            if sweep % solver.EXACT_EVERY == 0 and act.any():
                jump(slab, act, swp, exa, lam.item(k), gamma.item(k), sweep)
            if not act.any():
                break
            moved, batch = reference_block_sweep(cov, slab, act, lam.item(k), gamma.item(k), batch)
            finished = act & (moved < settings.eps)
            swp[finished] = sweep
            act &= ~finished
        swp[act] = settings.k_max
        return CholeskyEstimate(CholeskyFactor(slab), swp, ~act, exa)

    for sweep in range(1, settings.k_max + 1):
        if not active.any():
            break
        counted = np.count_nonzero(active, axis=1)
        if sweep % solver.EXACT_EVERY == 0:
            for k in range(len(cells)):
                jump(l[k], active[k], sweeps[k], exact[k], lam.item(k), gamma.item(k), sweep)
        moved, changed = reference_column_sweep(m, d, l, active, lam, gamma)
        settled = changed <= SETTLED_SHARE * counted
        finished = active & (moved < settings.eps)
        sweeps[finished] = sweep
        active &= ~finished
        leave = settled | ~active.any(axis=1)
        if leave.any():
            for k in np.flatnonzero(leave).tolist():
                out[cells[k]] = finish(k, sweep)
            keep = ~leave
            l, active, sweeps, exact = l[keep], active[keep], sweeps[keep], exact[keep]
            cells, lam, gamma = cells[keep], lam[keep], gamma[keep]
    for k, cell in enumerate(cells.tolist()):
        out[cell] = finish(k, settings.k_max)
    return out


def problem(p, seed):
    """A random SEM at p with n = p + 50, in a random ordering, and its
    permuted covariance S^P and M = -2 S^P with a zero diagonal."""
    rng = np.random.default_rng(seed)
    s = sample_covariance(sample_data(generate_dag(p, p, rng), p + 50, rng))
    perm = Permutation(rng.permutation(p))
    sp = _permuted_cov(perm, s)
    m = -2.0 * sp
    np.fill_diagonal(m, 0.0)
    return perm, s, sp, m


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [60, 120])
def test_column_sweeps_of_a_shrinking_stack(p):
    # five cells leave the stack after different sweeps; each sweep must
    # make the same factors, moves and pattern-change counts
    _, _, sp, m = problem(p, p)
    d = np.diag(sp).copy()
    l = np.zeros((len(CELLS), p, p))
    l[:, np.arange(p), np.arange(p)] = 1.0 / np.sqrt(d)
    stack = solver._Stack(m, d, l.copy(), CELLS)
    ref_l = l.copy()
    ref_active = np.ones((len(CELLS), p), dtype=bool)
    ref_active[:, 0] = False
    lam = np.array([[c.lam] for c in CELLS])
    gamma = np.array([[c.gamma] for c in CELLS])
    # after sweep k, the cells at these positions of the stack leave; the
    # last sweep runs on one cell
    leaving = {2: [1], 3: [3], 5: [0], 6: [1]}
    cells = list(range(len(CELLS)))
    for sweep in range(1, 8):
        ref_moved, ref_changed = reference_column_sweep(m, d, ref_l, ref_active, lam, gamma)
        moved, changed = solver._column_sweep(stack)
        assert same_bits(stack.l, ref_l)
        assert same_bits(moved, ref_moved)
        assert np.array_equal(changed, ref_changed)
        finished = ref_active & (ref_moved < 1e-8)
        ref_active &= ~finished
        stack.active &= ~finished
        if sweep in leaving:
            keep = np.ones(len(cells), dtype=bool)
            keep[leaving[sweep]] = False
            stack.keep(keep)
            ref_l, ref_active, lam, gamma = ref_l[keep], ref_active[keep], lam[keep], gamma[keep]
            cells = [c for c, k in zip(cells, keep) if k]
            assert np.array_equal(stack.cells, cells)
    assert len(cells) == 1


def regrowing_cell(sp, lam, widest):
    """A slab after four sweeps in which refused rows will regain support.

    One off-diagonal is cleared in each of some rows, the largest of the
    row, which the next step makes nonzero again.  With ``widest`` these
    are all the rows of the widest support, so that the batch read off the
    slab is one narrower than their regrown patterns; otherwise four
    narrower rows, whose regrown patterns fit the batch.
    """
    p = len(sp)
    est = solver.estimate_cholesky(
        Permutation.identity(p), SampleCovariance(sp), McpParams(lam, 2.0), SolverSettings(k_max=4)
    )
    slab = np.tril(est.l.l)
    off = np.tril(slab, -1)
    width = np.count_nonzero(off, axis=1)
    if widest:
        picked = np.flatnonzero(width == width.max())
    else:
        picked = np.flatnonzero((width >= 2) & (width < width.max() - 1))[:4]
    for i in picked:
        slab[i, np.argmax(np.abs(off[i]))] = 0.0
    active = np.ones(p, dtype=bool)
    active[0] = False
    return slab, active


@pytest.mark.parametrize("widest", [False, True])
@pytest.mark.parametrize("p", [60, 120])
def test_block_sweeps_where_refused_rows_regrow(p, widest, monkeypatch):
    # a settled cell in which refused rows gain support: narrower rows
    # take their new patterns into the batch in place, the widest force a
    # rebuild; the steps after either must read the new patterns
    _, _, sp, m = problem(p, p + 1)
    lam, gamma = 0.1, 2.0
    slab, active = regrowing_cell(sp, lam, widest)
    kept_log = []
    batch_step = solver._batch_step

    def step_logged(cov, x, batch, lam, gamma):
        kept = batch_step(cov, x, batch, lam, gamma)
        kept_log.append(kept.copy())
        return kept

    monkeypatch.setattr(solver, "_batch_step", step_logged)
    cov = solver._BlockCov.of(sp, m)
    ref_cov = reference_cov(sp, m)
    ref_slab, ref_active = slab.copy(), active.copy()
    events = Events()
    batch = ref_batch = None
    for _ in range(12):
        if not ref_active.any():
            break
        ref_moved, ref_batch = reference_block_sweep(
            ref_cov, ref_slab, ref_active, lam, gamma, ref_batch, events
        )
        moved, batch = solver._block_sweep(cov, slab, active, lam, gamma, batch)
        assert same_bits(slab, ref_slab)
        assert same_bits(moved, ref_moved)
        assert np.array_equal(kept_log[-1], events.kept[-1])
        assert np.array_equal(batch.rows, ref_batch.rows)
        assert np.array_equal(batch.s, ref_batch.s)
        finished = ref_active & (ref_moved < 1e-8)
        ref_active &= ~finished
        active &= ~finished
    assert len(kept_log) == len(events.kept) >= 4
    grown = {merged for _, before, after, merged in events.regrown if after > before}
    assert (not widest) in grown


@pytest.mark.parametrize("p", [60, 120])
def test_paths_equal_the_reference_path(p):
    perm, s, _, _ = problem(p, p + 2)
    warm = solver.estimate_cholesky(perm, s, McpParams(0.4, 2.0)).l
    for settings in (SolverSettings(k_max=3), SolverSettings()):
        for l0 in (None, warm):
            got = estimate_cholesky_path(perm, s, CELLS, settings, l0)
            want = reference_path(perm, s, CELLS, settings, l0)
            for g, w in zip(got, want, strict=True):
                assert same_bits(g.l.l, w.l.l)
                assert np.array_equal(g.sweeps, w.sweeps)
                assert np.array_equal(g.converged, w.converged)
                assert np.array_equal(g.exact, w.exact)
