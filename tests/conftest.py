import numpy as np
import pytest

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


def descend_row(a, params, x, settings):
    """Serial reference: cyclic coordinate descent on one row subproblem.

    Updates x in place, off-diagonals ascending then the diagonal, until a
    sweep moves it less than settings.eps.  Returns (x, converged, sweeps).
    """
    for sweep in range(1, settings.k_max + 1):
        x_old = x.copy()
        for j in range(len(x)):
            x[j] = coordinate_update(a, x, j, params)
        if np.linalg.norm(x - x_old) < settings.eps:
            return x, True, sweep
    return x, False, settings.k_max


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
