"""The semismooth Newton projection against a plain reference loop.

``reference_projection`` keeps the straightforward form of the Newton
iteration behind ``birkhoff.project_to_birkhoff``: the mask sums, the
negated Schur complement, the right-hand side and the dual value are each
computed afresh every time.  The shipped kernel reorganises that work to
make fewer numpy calls at small p, and it must return the same bits:
every returned array, the gap, the convergence flag and the iteration
count.
"""

import numpy as np
import pytest
from scipy.linalg.lapack import dposv

from birkdag import birkhoff
from birkdag.birkhoff import (
    ARMIJO,
    MARGIN_TOL,
    MAX_HALVINGS,
    NEWTON_SHIFT,
    DoublyStochastic,
    DualVariables,
    project_to_birkhoff,
)

from conftest import random_cholesky, random_covariance

EPS_MACH = float(np.finfo(float).eps)


class _State:
    """Primal quantities at one dual point (u, v)."""

    def __init__(self, p):
        self.uv = np.empty(2 * p)
        self.u, self.v = self.uv[:p], self.uv[p:]
        self.outer = np.empty((p, p))
        self.P = np.empty((p, p))
        self.rc = np.empty(2 * p)
        self.r, self.c = self.rc[:p], self.rc[p:]
        self.res = self.theta = 0.0

    def evaluate(self, p0):
        np.add(self.u[:, None], self.v, out=self.outer)
        np.subtract(p0, self.outer, out=self.P)
        np.maximum(self.P, 0.0, out=self.P)
        self.r[:] = self.P.sum(axis=1)
        self.c[:] = self.P.sum(axis=0)
        self.rc -= 1.0
        self.res = float(np.abs(self.rc).max())
        self.theta = -0.5 * float(np.vdot(self.P, self.P)) - float(self.uv.sum())

    def gap(self):
        return abs(float(self.uv @ self.rc))


def reference_projection(p0, eps=1e-12, k_max=50000, duals0=None):
    """(P, u, v, U, gap, converged, n_iter) of the Newton projection of p0."""
    p0 = np.asarray(p0, dtype=float)
    p = p0.shape[0]
    tol = max(eps, 4.0 * EPS_MACH * (1.0 + float((p0 * p0).sum())))
    cur, trial = _State(p), _State(p)
    if duals0 is None:
        rc0 = np.concatenate((p0.sum(axis=1), p0.sum(axis=0)))
        np.subtract((rc0 - 1.0) / p, (float(p0.sum()) - p) / (2.0 * p * p), out=cur.uv)
    else:
        a = (float(np.sum(duals0.v)) - float(np.sum(duals0.u))) / (2.0 * p)
        np.add(duals0.u, a, out=cur.u)
        np.subtract(duals0.v, a, out=cur.v)
    cur.evaluate(p0)
    d = np.zeros(2 * p)
    du, dv = d[:p], d[p:]
    converged = stuck = False
    n_iter = 0
    for k in range(k_max):
        n_iter = k + 1
        if cur.res <= MARGIN_TOL and (cur.res <= eps or stuck):
            gap = cur.gap()
            if gap < tol:
                converged = True
                break
        if stuck or k == k_max - 1:
            break
        om = np.sign(cur.P)
        d1 = om.sum(axis=1) + NEWTON_SHIFT
        d2 = om.sum(axis=0) + NEWTON_SHIFT
        od = om / d1[:, None]
        schur = -(om.T @ od)
        schur.flat[:: p + 1] += d2
        rhs = cur.c - od.T @ cur.r
        if p > 1:
            _, dv[:-1], info = dposv(schur[:-1, :-1], rhs[:-1])
            assert info == 0
        du[:] = (cur.r - om @ dv) / d1
        slope = float(cur.rc @ d)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            trial.uv[:] = cur.uv + d * t
            trial.evaluate(p0)
            gain = max(ARMIJO * t * slope, 4.0 * EPS_MACH * abs(cur.theta))
            if trial.theta - cur.theta >= gain or trial.res < cur.res:
                break
            t *= 0.5
        else:
            stuck = True
            continue
        cur, trial = trial, cur
    if not converged:
        gap = cur.gap()
    m = cur.P if converged else birkhoff._force_feasible(cur.P).m
    return m, cur.u, cur.v, gap, converged, n_iter


def assert_same_bits(p0, **kwargs):
    want = reference_projection(p0, **kwargs)
    res = project_to_birkhoff(p0, **kwargs)
    got = (res.ds.m, res.duals.u, res.duals.v, res.gap, res.converged, res.n_iter)
    for name, g, w in zip(("P", "u", "v"), got, want):
        assert g.tobytes() == w.tobytes(), name
    assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes(), "gap"
    assert got[4:] == want[4:]
    return res


@pytest.mark.parametrize("p", [1, 2, 3, 8, 20, 50])
@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_same_bits_as_reference(p, scale):
    rng = np.random.default_rng(int(1000 * p + np.log10(scale) + 10))
    for _ in range(3):
        p0 = scale * rng.standard_normal((p, p))
        assert_same_bits(p0)
        assert_same_bits(p0, eps=2e-9)
        for k_max in (1, 2, 3):
            assert_same_bits(p0, k_max=k_max)
        warm = DualVariables(scale * rng.standard_normal(p), scale * rng.standard_normal(p))
        assert_same_bits(p0, duals0=warm)
        assert_same_bits(p0, duals0=warm, k_max=2)


@pytest.mark.parametrize("p", [1, 2, 3, 8, 20, 50])
def test_same_bits_on_polytope_inputs(p):
    rng = np.random.default_rng(p)
    perm = np.eye(p)[rng.permutation(p)]
    assert_same_bits(perm)
    w = rng.dirichlet(np.ones(4))
    mix = sum(wi * np.eye(p)[rng.permutation(p)] for wi in w)
    assert_same_bits(mix, eps=2e-9)
    # a warm start at the solution of a nearby point, as gradient projection makes
    first = project_to_birkhoff(mix + 0.01 * rng.standard_normal((p, p)))
    assert_same_bits(mix, duals0=first.duals)


def test_same_bits_along_gradient_projection(monkeypatch):
    # every projection of a gradient projection run, with its warm starts
    calls = []

    def recording(p0, **kwargs):
        calls.append((p0, kwargs))
        return project_to_birkhoff(p0, **kwargs)

    monkeypatch.setattr(birkhoff, "project_to_birkhoff", recording)
    rng = np.random.default_rng(7)
    p = 12
    s = random_covariance(p, 3 * p, rng)
    l = random_cholesky(p, rng)
    cfg = birkhoff.RelaxationConfig(mu=1.1 * birkhoff.convexity_thresholds(l, s)[2], k_max=60)
    birkhoff.gradient_projection(l, s, cfg, DoublyStochastic.center(p))
    assert len(calls) > 2 and calls[2][1]["duals0"] is not None
    for p0, kwargs in calls:
        assert_same_bits(p0, **kwargs)


def test_overflowing_finite_input_is_not_called_non_finite():
    # the squares overflow, so the gap floor is infinite, but every entry is
    # finite and the input is projected rather than refused
    p0 = np.full((4, 4), 1e200)
    with np.errstate(over="ignore"):
        res = assert_same_bits(p0)
    assert isinstance(res.ds, DoublyStochastic)
