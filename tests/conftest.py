import numpy as np
import pytest

from birkdag import solver
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
