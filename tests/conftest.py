from collections import Counter

import numpy as np
import pytest

from birkdag import solver
from birkdag.scoring import McpParams
from birkdag.sem import CholeskyFactor, SampleCovariance
from birkdag.solver import diagonal_step, offdiagonal_step, row_objectives


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_covariance(p, n, rng):
    """Sample covariance of n Gaussian rows; PD whenever n > p."""
    x = rng.standard_normal((n, p))
    s = x.T @ x / n
    return SampleCovariance(0.5 * (s + s.T))


def random_cholesky(p, rng, density=0.5, scale=1.0):
    """Random lower-triangular factor with positive diagonal."""
    l = np.tril(rng.standard_normal((p, p)) * scale, -1)
    l[rng.random((p, p)) > density] = 0.0
    l = np.tril(l, -1)
    l[np.arange(p), np.arange(p)] = rng.uniform(0.5, 2.0, size=p)
    return CholeskyFactor(l)


def ul_cholesky(m):
    """Lower-triangular L with positive diagonal such that L^t L = m.

    Standard Cholesky factors m as G G^t with G lower; conjugating by the
    exchange matrix turns that into the U U^t form whose transpose is the
    wanted L.
    """
    m = np.asarray(m, dtype=float)
    e = np.eye(m.shape[0])[::-1]
    g = np.linalg.cholesky(e @ m @ e)
    return (e @ g @ e).T


def coordinate_update(a, x, j, params):
    """Closed-form minimizer of the row objective on block a in coordinate
    j of x, the other coordinates held fixed; the last one is the diagonal."""
    a_jj = float(a[j, j])
    rest = float(a[:, j] @ x) - a_jj * float(x[j])
    if j == len(x) - 1:
        return diagonal_step(rest, a_jj)
    return offdiagonal_step(-2.0 * rest, a_jj, params.lam, params.gamma)


def region(x, params):
    """Each off-diagonal's pattern as ``solver._batch_step`` tests it: 0
    zero, +-1 inner with its sign, 2 flat (either sign)."""
    flat = np.abs(x) >= params.gamma * params.lam
    return np.where(flat & (x != 0.0), 2, np.sign(x)).astype(int)


def cyclic_pass(a, params, x):
    """One cyclic pass over x in place, off-diagonals ascending then the diagonal."""
    for j in range(len(x)):
        x[j] = coordinate_update(a, x, j, params)


def exact_row(a, params, x, eps):
    """``solver._exact_step`` on one row, by plain scalar linear algebra.

    The row is jumped to the fixed point of its pattern (support S, signs,
    inner or flat), read off x, and advanced by one cyclic pass.  Returns
    that pass's result, or None where the solver refuses the jump: the
    pattern's K fails Cholesky or the solve, the diagonal's quadratic is
    not convex, or the pass leaves the pattern or moves the row eps or
    more.
    """
    i = len(x) - 1
    s = np.flatnonzero(x[:i])
    inner = np.abs(x[s]) < params.gamma * params.lam
    k = 2.0 * a[np.ix_(s, s)] - np.diag(inner / params.gamma)
    try:
        np.linalg.cholesky(k)
        alpha = np.linalg.solve(k, -params.lam * np.sign(x[s]) * inner)
        beta = np.linalg.solve(k, -2.0 * a[s, i])
    except np.linalg.LinAlgError:
        return None
    quad = a[i, i] + a[i, s] @ beta
    if not quad > 0.0:
        return None
    jump = np.zeros_like(x)
    jump[i] = diagonal_step(a[i, s] @ alpha, quad)
    jump[s] = alpha + beta * jump[i]
    y = jump.copy()
    cyclic_pass(a, params, y)
    same = np.array_equal(region(y[:i], params), region(x[:i], params))
    return y if same and np.linalg.norm(y - jump) < eps else None


def descend_row(a, params, x, settings):
    """Serial reference: cyclic coordinate descent on one row subproblem.

    Updates x in place, off-diagonals ascending then the diagonal, until a
    sweep moves it less than settings.eps.  Every ``solver.EXACT_EVERY``-th
    sweep first tries the exact step (``exact_row``); a row it accepts
    stops there.  Returns (x, converged, sweeps, exact).
    """
    for sweep in range(1, settings.k_max + 1):
        if sweep % solver.EXACT_EVERY == 0:
            y = exact_row(a, params, x, settings.eps)
            if y is not None:
                x[:] = y
                return x, True, sweep, True
        x_old = x.copy()
        cyclic_pass(a, params, x)
        if np.linalg.norm(x - x_old) < settings.eps:
            return x, True, sweep, False
    return x, False, settings.k_max, False


def row_objective(a, x, params):
    """h(x) on block a, read off ``row_objectives`` with x as the last row."""
    l = np.eye(len(x))
    l[-1] = x
    return row_objectives(CholeskyFactor(l), a, params)[-1]


def assert_same_cyclic_iterates(a, b):
    """Two L-step estimates whose sweeps differ only in rounding.

    Per-row sweep counts, convergence flags and supports are equal, and
    the factors agree to 1e-12.
    """
    assert np.array_equal(a.sweeps, b.sweeps)
    assert np.array_equal(a.converged, b.converged)
    assert np.array_equal(a.l.l != 0.0, b.l.l != 0.0)
    assert np.abs(a.l.l - b.l.l).max() <= 1e-12


class DescentLog:
    """Every row's objective h after each step the L-step takes on a cell.

    Wraps ``solver._column_sweep``, ``_block_sweep``, ``_exact_step`` and
    ``_finish`` for the rest of the test, so that the solves it runs keep
    their own schedule.  ``solves`` holds one dict per solve, from cell to
    its (kind, h) list: the cell's start, then each column sweep of a
    stack that holds it ("column"), each of its block sweeps ("block") and
    each of its exact steps ("exact"), in the order they ran.  A cell is
    named by its (lambda, gamma), so the cells of one path must differ.
    ``left`` names the cells that left the stack before the sweep cap,
    ``jumped`` counts the rows an exact step stopped, and ``kinds`` the
    steps of each kind.
    """

    def __init__(self, monkeypatch):
        self.solves, self.left, self.jumped, self.kinds = [], [], 0, Counter()
        self.stack = None
        column_sweep, block_sweep = solver._column_sweep, solver._block_sweep
        exact_step, finish = solver._exact_step, solver._finish

        def column_logged(stack):
            if stack is not self.stack:  # a new solve: its first sweep
                self.stack = stack
                self.solves.append({})
            # m is -2 S^P with a zero diagonal, and halving is exact
            sp = np.diag(stack.d) - 0.5 * stack.m
            cells = list(zip(stack.lam[:, 0].tolist(), stack.gamma[:, 0].tolist()))
            for cell, slab in zip(cells, stack.l):
                if cell not in self.solves[-1]:
                    self.solves[-1][cell] = []
                    self.log(cell, "start", slab, sp)
            out = column_sweep(stack)
            for cell, slab in zip(cells, stack.l):
                self.log(cell, "column", slab, sp)
            return out

        def block_logged(cov, slab, active, lam, gamma, batch):
            out = block_sweep(cov, slab, active, lam, gamma, batch)
            self.log((lam, gamma), "block", slab, cov.sp)
            return out

        def exact_logged(cov, slab, active, lam, gamma, eps):
            on = exact_step(cov, slab, active, lam, gamma, eps)
            self.jumped += on.size
            self.log((lam, gamma), "exact", slab, cov.sp)
            return on

        def finish_logged(cov, stack, k, sweep, settings):
            if sweep < settings.k_max:
                self.left.append((stack.lam.item(k), stack.gamma.item(k)))
            return finish(cov, stack, k, sweep, settings)

        monkeypatch.setattr(solver, "_column_sweep", column_logged)
        monkeypatch.setattr(solver, "_block_sweep", block_logged)
        monkeypatch.setattr(solver, "_exact_step", exact_logged)
        monkeypatch.setattr(solver, "_finish", finish_logged)

    def log(self, cell, kind, slab, sp):
        self.kinds[kind] += 1
        h = row_objectives(CholeskyFactor(slab.copy()), sp, McpParams(*cell))
        self.solves[-1][cell].append((kind, h))

    def assert_descends(self, tol=1e-10):
        """No step of any solve raised any row's h by more than ``tol``."""
        for solve in self.solves:
            for cell, steps in solve.items():
                for (_, before), (kind, after) in zip(steps, steps[1:]):
                    assert (after <= before + tol).all(), (cell, kind, (after - before).max())
