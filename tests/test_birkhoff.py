import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from birkdag import birkhoff
from birkdag.birkhoff import (
    DoublyStochastic,
    DualVariables,
    RelaxationConfig,
    best_candidate,
    convexity_thresholds,
    dual_objective,
    estimate_permutation,
    gradient_projection,
    project_to_birkhoff,
    rank_vector,
    relaxed_gradient,
    relaxed_objective,
    round_hungarian,
    rounding_candidates,
    sample_permutations,
    trace_objective,
)
from birkdag.pipeline import RrcfConfig, fit
from birkdag.scoring import McpParams
from birkdag.sem import (
    CholeskyFactor,
    Permutation,
    SampleCovariance,
    generate_dag,
    sample_data,
)

from conftest import random_cholesky, random_covariance


def random_ds(p, rng, k=6):
    """Random convex combination of k permutation matrices."""
    w = rng.dirichlet(np.ones(k))
    m = np.zeros((p, p))
    for wi in w:
        m[np.arange(p), rng.permutation(p)] += wi
    return DoublyStochastic(m)


class TestProjection:
    def test_permutation_fixed_point_immediately(self, rng):
        pm = Permutation(rng.permutation(5)).matrix()
        res = project_to_birkhoff(pm, eps=1e-12)
        assert res.converged and res.n_iter == 1
        assert res.gap <= 1e-12
        assert np.abs(res.ds.m - pm).max() <= 1e-12
        assert np.abs(res.duals.u).max() == 0.0 and np.abs(res.duals.v).max() == 0.0
        assert dual_objective(res.duals, pm) == 0.0

    def test_center_fixed_point(self):
        c = np.full((4, 4), 0.25)
        res = project_to_birkhoff(c, eps=1e-12)
        assert res.converged
        assert np.abs(res.ds.m - c).max() <= 1e-12

    def test_two_by_two_clamped(self):
        # the 2x2 polytope is the segment a I + (1-a) antidiag; projecting
        # [[2,0],[0,2]] clamps at a = 1
        res = project_to_birkhoff(np.array([[2.0, 0.0], [0.0, 2.0]]), eps=1e-12)
        assert np.abs(res.ds.m - np.eye(2)).max() <= 1e-9

    def test_random_inputs_feasible_and_certified(self, rng):
        for _ in range(50):
            p = int(rng.integers(2, 15))
            res = project_to_birkhoff(rng.standard_normal((p, p)), eps=1e-10)
            assert res.converged
            assert res.gap <= 1e-10
            m = res.ds.m
            assert m.min() >= -1e-10
            assert np.abs(m.sum(axis=0) - 1).max() <= 1e-8
            assert np.abs(m.sum(axis=1) - 1).max() <= 1e-8

    def test_results_pass_their_public_checks(self, rng):
        # both result objects are built unchecked: rebuilding them through
        # the checked constructors must raise nothing, cold and warm
        for _ in range(40):
            p = int(rng.integers(1, 21))
            p0 = rng.standard_normal((p, p)) * rng.choice([0.1, 1.0, 30.0])
            cold = project_to_birkhoff(p0, eps=2e-9)
            warm = project_to_birkhoff(p0 + 0.01 * rng.standard_normal((p, p)), duals0=cold.duals)
            for res in (cold, warm):
                assert res.converged
                assert res.ds.m.min() >= 0.0
                DoublyStochastic(res.ds.m)
                DualVariables(res.duals.u, res.duals.v)

    def test_idempotent_on_feasible(self, rng):
        for _ in range(20):
            ds = random_ds(6, rng)
            res = project_to_birkhoff(ds.m, eps=1e-10)
            assert res.converged
            assert np.abs(res.ds.m - ds.m).max() <= 1e-8

    def test_kmax_expiry_flagged(self, rng):
        res = project_to_birkhoff(rng.standard_normal((8, 8)) * 3, eps=1e-12, k_max=2)
        assert not res.converged

    def test_matches_euclidean_nearest_feasible_point(self, rng):
        # certificate check: for any feasible q, ||q - p0|| >= ||proj - p0||
        p0 = rng.standard_normal((5, 5))
        res = project_to_birkhoff(p0, eps=1e-12)
        d_star = ((res.ds.m - p0) ** 2).sum()
        for _ in range(100):
            q = random_ds(5, rng)
            assert ((q.m - p0) ** 2).sum() >= d_star - 1e-9

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), "1e-9"])
    def test_rejects_nonpositive_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            project_to_birkhoff(np.eye(3), eps=eps)

    @pytest.mark.parametrize("k_max", [2.5, 2.0, True, 0])
    def test_k_max_must_be_a_positive_integer(self, k_max):
        with pytest.raises(ValueError, match="k_max must be"):
            project_to_birkhoff(np.eye(3), k_max=k_max)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match=r"p0 must be a non-empty square matrix.*\(0, 0\)"):
            project_to_birkhoff(np.zeros((0, 0)))

    @pytest.mark.parametrize("name", ["u", "v"])
    @pytest.mark.parametrize("shape", [(3,), (4, 1)])
    def test_rejects_misshapen_warm_duals(self, name, shape):
        duals = {"u": np.zeros(4), "v": np.zeros(4)}
        duals[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"duals0\.{name} must have shape \(4,\)"):
            project_to_birkhoff(np.eye(4), duals0=DualVariables(**duals))

    @pytest.mark.parametrize("name", ["u", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_warm_duals(self, name, bad):
        duals = {"u": np.zeros(5), "v": np.zeros(5)}
        duals[name] = np.full(5, bad) if np.isnan(bad) else np.r_[bad, np.zeros(4)]
        with pytest.raises(ValueError, match=rf"duals0\.{name} contains non-finite entries"):
            project_to_birkhoff(np.eye(5), duals0=DualVariables(**duals))

    def test_rejects_warm_duals_whose_sums_overflow(self):
        big = np.full(5, 1e308)
        with pytest.raises(ValueError, match="their sums overflow"), np.errstate(over="ignore"):
            project_to_birkhoff(np.eye(5), duals0=DualVariables(big, -big))

    def test_selftest_assumptions(self):
        # the benchmark's self-test feeds its projection checker a result
        # capped before convergence and the uncapped one
        p0 = np.random.default_rng(0).standard_normal((8, 8))
        assert not project_to_birkhoff(p0, eps=2e-9, k_max=2).converged
        assert project_to_birkhoff(p0, eps=2e-9).converged


class TestNewtonKernel:
    """The semismooth Newton iteration behind ``project_to_birkhoff``."""

    @staticmethod
    def assert_kkt(p0, res, tol=1e-12):
        u, v = res.duals.u, res.duals.v
        outer = u[:, None] + v[None, :]
        assert np.array_equal(res.ds.m, np.maximum(p0 - outer, 0.0))
        # strong duality at the multiplier U = max(0, outer - p0) that
        # dual_objective derives
        primal = 0.5 * float(((res.ds.m - p0) ** 2).sum())
        assert abs(primal - dual_objective(res.duals, p0)) <= 1e-9 * (1.0 + primal)
        assert np.abs(res.ds.m.sum(axis=1) - 1.0).max() <= tol
        assert np.abs(res.ds.m.sum(axis=0) - 1.0).max() <= tol

    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_every_gp_projection_converges(self, p, monkeypatch):
        results = []

        def recording(*args, **kwargs):
            res = project_to_birkhoff(*args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(birkhoff, "project_to_birkhoff", recording)
        for seed in range(5):
            rng = np.random.default_rng(1000 * p + seed)
            s = random_covariance(p, 3 * p, rng)
            l = random_cholesky(p, rng)
            _, centered, concave = convexity_thresholds(l, s)
            for mu in (max(centered, 0.0), 1.1 * concave):
                results.clear()
                gradient_projection(l, s, RelaxationConfig(mu=mu), DoublyStochastic.center(p))
                assert results
                assert all(r.converged for r in results), [r.gap for r in results if not r.converged]

    def test_kkt_certificate(self, rng):
        for _ in range(30):
            p = int(rng.integers(2, 21))
            p0 = rng.standard_normal((p, p))
            res = project_to_birkhoff(p0, eps=1e-12)
            assert res.converged and res.gap < 1e-12
            self.assert_kkt(p0, res)

    def test_full_mask_warm_start_converges_quadratically(self, rng):
        p = 6
        p0 = np.full((p, p), 1.0 / p) + 0.01 * rng.standard_normal((p, p))
        cold = project_to_birkhoff(p0, eps=1e-14)
        assert cold.converged and (cold.ds.m > 0).all()
        warm = DualVariables(
            cold.duals.u + 1e-10 * rng.standard_normal(p),
            cold.duals.v + 1e-10 * rng.standard_normal(p),
        )
        res = project_to_birkhoff(p0, eps=1e-12, duals0=warm)
        assert res.converged and res.n_iter <= 3
        assert np.abs(res.ds.m - cold.ds.m).max() <= 1e-12

    def test_row_far_below_the_rest(self, rng):
        # at zero duals that row of P would be empty.  Adding a
        # constant to a row shifts the objective by that constant on the
        # polytope, so the projection equals the one with the row at 0.
        p0 = rng.standard_normal((6, 6))
        p0[2] = -1e3
        res = project_to_birkhoff(p0, eps=1e-12)
        assert res.converged
        self.assert_kkt(p0, res)
        level = p0.copy()
        level[2] = 0.0
        assert np.abs(res.ds.m - project_to_birkhoff(level).ds.m).max() <= 1e-9

    def test_warm_start_with_empty_mask_row_and_column(self, rng):
        # duals that switch off a whole row and column of P: the shifted
        # Newton system must still be solvable and the iteration recover
        p = 7
        p0 = rng.standard_normal((p, p))
        u, v = np.zeros(p), np.zeros(p)
        u[1], v[4] = 1e3, 1e3
        res = project_to_birkhoff(p0, eps=1e-12, duals0=DualVariables(u, v))
        assert res.converged
        self.assert_kkt(p0, res)
        assert np.abs(res.ds.m - project_to_birkhoff(p0).ds.m).max() <= 1e-12

    @pytest.mark.parametrize("x", [-3.0, 0.0, 0.5, 1.0, 7.0])
    def test_one_by_one(self, x):
        # the cold start is already exact; the warm one needs Newton steps
        # with nothing left to solve for once dv[-1] is pinned
        p0 = np.array([[x]])
        off = DualVariables(np.array([5.0]), np.array([-2.0]))
        for res in (project_to_birkhoff(p0), project_to_birkhoff(p0, duals0=off)):
            assert res.converged
            self.assert_kkt(p0, res)


class TestDualObjective:
    def test_zero_duals(self, rng):
        # U = max(0, -P0): zero on a nonnegative P0, else 1/2 ||U||_F^2
        dv = DualVariables(np.zeros(3), np.zeros(3))
        p0 = rng.standard_normal((3, 3))
        assert dual_objective(dv, np.abs(p0)) == 0.0
        assert dual_objective(dv, p0) == pytest.approx(0.5 * (np.maximum(-p0, 0.0) ** 2).sum())

    def test_optimal_for_permutation_input(self, rng):
        pm = Permutation(rng.permutation(4)).matrix()
        res = project_to_birkhoff(pm, eps=1e-14)
        assert abs(dual_objective(res.duals, pm)) <= 1e-12

    def test_weak_duality(self, rng):
        # any dual point lower-bounds the primal at any feasible P
        for _ in range(100):
            p0 = rng.standard_normal((3, 3))
            dv = DualVariables(rng.standard_normal(3), rng.standard_normal(3))
            feas = random_ds(3, rng)
            primal = 0.5 * ((feas.m - p0) ** 2).sum()
            assert dual_objective(dv, p0) <= primal + 1e-12

    def test_derived_multiplier_maximizes_over_u(self, rng):
        # ``at`` is the dual at (u, v, U) for an explicit U >= 0: at
        # U = max(0, u 1^t + 1 v^t - P0) it gives dual_objective's bits, and
        # no other U >= 0 gives more
        def at(dv, bigu, p0):
            M = np.add.outer(dv.u, dv.v) - bigu
            return float(-0.5 * (M * M).sum() - (bigu * p0).sum()
                         + dv.u @ (p0.sum(axis=1) - 1.0) + dv.v @ (p0.sum(axis=0) - 1.0))

        for _ in range(50):
            p = int(rng.integers(1, 9))
            p0 = rng.standard_normal((p, p))
            dv = DualVariables(rng.standard_normal(p), rng.standard_normal(p))
            best = np.maximum(np.add.outer(dv.u, dv.v) - p0, 0.0)
            assert dual_objective(dv, p0) == at(dv, best, p0)
            assert at(dv, np.abs(rng.standard_normal((p, p))), p0) <= dual_objective(dv, p0)


class TestRelaxedObjective:
    def test_mu_zero_permutation_identity_factor(self, rng):
        p = 4
        s = random_covariance(p, 20, rng)
        cfg = RelaxationConfig(mu=0.0)
        pm = Permutation(rng.permutation(p)).matrix()
        assert relaxed_objective(pm, CholeskyFactor(np.eye(p)), s, cfg) == pytest.approx(
            0.5 * np.trace(s.s)
        )

    def test_centered_at_center_has_no_penalty(self, rng):
        p = 5
        s = random_covariance(p, 30, rng)
        l = random_cholesky(p, rng)
        c = DoublyStochastic.center(p)
        for mu in (0.0, 3.0, 50.0):
            cfg = RelaxationConfig(mu=mu)
            expected = 0.5 * float(np.einsum("ij,ij->", l.l @ c.m @ s.s, l.l @ c.m))
            assert relaxed_objective(c.m, l, s, cfg) == pytest.approx(expected)

    def test_centered_equals_plain_plus_constant(self, rng):
        # ||T P||_F^2 = ||P||_F^2 - 1 on the polytope, so the objective
        # exceeds the plain-penalty form 1/2 tr(L P S P^t L^t) - mu/2 ||P||_F^2
        # by exactly mu/2
        p, mu = 5, 1.7
        s = random_covariance(p, 30, rng)
        l = random_cholesky(p, rng)
        for _ in range(100):
            ds = random_ds(p, rng)
            quad = relaxed_objective(ds.m, l, s, RelaxationConfig(mu=0.0))
            plain = quad - 0.5 * mu * (ds.m**2).sum()
            centered = relaxed_objective(ds.m, l, s, RelaxationConfig(mu=mu))
            assert abs(centered - (plain + mu / 2)) <= 1e-10


class TestRelaxedGradient:
    def test_identity_case(self, rng):
        p = 4
        cfg = RelaxationConfig(mu=0.0)
        ds = random_ds(p, rng)
        g = relaxed_gradient(ds.m, CholeskyFactor(np.eye(p)), SampleCovariance(np.eye(p)), cfg)
        assert np.abs(g - ds.m).max() <= 1e-14

    def test_centered_gradient_at_center(self, rng):
        p = 4
        s = random_covariance(p, 25, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=7.0)
        c = DoublyStochastic.center(p)
        expected = (l.l.T @ l.l) @ c.m @ s.s
        assert np.abs(relaxed_gradient(c.m, l, s, cfg) - expected).max() <= 1e-12

    def test_finite_differences(self, rng):
        p = 4
        s = random_covariance(p, 25, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=0.9)
        m = random_ds(p, rng).m
        g = relaxed_gradient(m, l, s, cfg)
        h = 1e-6
        for i in range(p):
            for j in range(p):
                mp = m.copy()
                mm = m.copy()
                mp[i, j] += h
                mm[i, j] -= h
                fd = (relaxed_objective(mp, l, s, cfg) - relaxed_objective(mm, l, s, cfg)) / (2 * h)
                assert abs(fd - g[i, j]) <= 1e-6 * max(1.0, abs(g[i, j]))


class TestConvexityThresholds:
    def test_identity(self):
        t = convexity_thresholds(CholeskyFactor(np.eye(3)), SampleCovariance(np.eye(3)))
        assert t == (1.0, 1.0, 1.0)

    def test_degenerate_diagonal_covariance(self):
        # a singular covariance: the all-ones matrix has eigenvalues 0 and 2
        l = CholeskyFactor(np.eye(2))
        plain, centered, concave = convexity_thresholds(l, SampleCovariance(np.ones((2, 2))))
        assert plain == pytest.approx(0.0, abs=1e-15)
        assert centered == pytest.approx(2.0)
        assert concave == pytest.approx(2.0)

    def test_spectra_computed_once_per_factor_and_covariance(self, rng, monkeypatch):
        # a SampleCovariance and a factor cache their spectra, so repeated
        # thresholds (fit's, then gradient projection's) cost no eigvalsh
        s = random_covariance(5, 40, rng)
        l = random_cholesky(5, rng)
        want = convexity_thresholds(CholeskyFactor(l.l), SampleCovariance(s.s))
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        for _ in range(3):
            assert convexity_thresholds(l, s) == want
        assert len(calls) == 1

    def test_kronecker_oracle(self, rng):
        # extreme eigenvalues of kron(L^t L, S) factor into products
        for p in (2, 3, 5):
            s = random_covariance(p, 40, rng)
            l = random_cholesky(p, rng)
            plain, centered, concave = convexity_thresholds(l, s)
            kron = np.kron(l.l.T @ l.l, s.s)
            ev = np.linalg.eigvalsh(kron)
            assert abs(plain - ev[0]) <= 1e-8 * max(1, abs(ev[0]))
            assert abs(concave - ev[-1]) <= 1e-8 * max(1, abs(ev[-1]))


def plain_gp(l, s, cfg, p_init):
    """Plain gradient projection: P <- proj(P - eta grad f(P)), full steps.

    No momentum: the baseline the accelerated loop is measured against.
    Returns the iterate after each iteration.
    """
    eta = 1.0 / (convexity_thresholds(l, s)[2] + cfg.mu + 1e-15)
    P = p_init.m.copy()
    duals = None
    iterates = []
    for _ in range(cfg.k_max):
        # warm start at the previous projection's duals
        proj = project_to_birkhoff(P - eta * relaxed_gradient(P, l, s, cfg), duals0=duals)
        duals = proj.duals
        moved = float(np.linalg.norm(proj.ds.m - P))
        P = proj.ds.m
        iterates.append(P)
        if moved <= cfg.eps:
            break
    return iterates


def direct_objective_gp(l, s, cfg, p_init):
    """Reference restarted FISTA, in plain numpy with the float operations
    of ``gradient_projection``.

    Returns (points, accepted, restarts): every point whose gradient is
    formed after the start, in order; the iterate accepted at each
    iteration; and the iterations whose extrapolated step was discarded.
    """
    eta = 1.0 / (convexity_thresholds(l, s)[2] + cfg.mu + 1e-15)
    P = p_init.m.copy()
    gP = relaxed_gradient(P, l, s, cfg)
    fP = 0.5 * float(np.vdot(gP, P))
    Y, gY, beta, t = P, gP, 0.0, 1.0
    duals = None
    points, accepted, restarts = [], [], []
    for k in range(cfg.k_max):
        proj = project_to_birkhoff(Y - eta * gY, duals0=duals)
        Z = proj.ds.m
        gZ = relaxed_gradient(Z, l, s, cfg)
        fZ = 0.5 * float(np.vdot(gZ, Z))
        points.append(Z)
        if beta > 0.0 and fZ > fP:
            restarts.append(k)
            t = 1.0
            proj = project_to_birkhoff(P - eta * gP, duals0=duals)
            Z = proj.ds.m
            gZ = relaxed_gradient(Z, l, s, cfg)
            fZ = 0.5 * float(np.vdot(gZ, Z))
            points.append(Z)
        duals = proj.duals
        moved = float(np.linalg.norm(Z - P))
        t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
        beta = (t - 1.0) / t_next
        t = t_next
        Y = Z + beta * (Z - P) if beta > 0.0 else Z
        gY = (1.0 + beta) * gZ - beta * gP if beta > 0.0 else gZ
        P, gP, fP = Z, gZ, fZ
        accepted.append(P)
        if moved <= cfg.eps:
            break
    return points, accepted, restarts


class TestGradientProjection:
    @pytest.mark.parametrize("p", [3, 5, 8, 12, 20, 30])
    def test_same_iterates_as_direct_objective_loop(self, p, monkeypatch):
        # gradient_projection evaluates the gradient once at each projected
        # point, accepted or discarded, so recording its arguments yields
        # every such point, the start first
        seen = []

        def recording_gradient(P, *args):
            seen.append(P)
            return relaxed_gradient(P, *args)

        monkeypatch.setattr(birkhoff, "relaxed_gradient", recording_gradient)
        rng = np.random.default_rng(p)
        s = random_covariance(p, 3 * p, rng)
        l = random_cholesky(p, rng)
        _, centered, concave = convexity_thresholds(l, s)
        start = DoublyStochastic.center(p)
        for mu in (max(centered, 0.0), 1.1 * concave):
            cfg = RelaxationConfig(mu=mu)
            points, accepted, _ = direct_objective_gp(l, s, cfg, start)
            seen.clear()
            res = gradient_projection(l, s, cfg, start)
            assert res.n_iter == len(accepted) == len(res.objective_trace) - 1
            assert len(seen) - 1 == len(points)
            moved = np.linalg.norm(accepted[-1] - (accepted[-2] if len(accepted) > 1 else start.m))
            assert res.converged == (moved <= cfg.eps)
            assert all(np.array_equal(got, want) for got, want in zip(seen[1:], points))
            assert np.array_equal(res.ds.m, accepted[-1])

    def test_projections_warm_start_at_the_last_accepted_duals(self, monkeypatch):
        # the first projection starts cold; each later one receives the
        # duals of the last accepted projection, and a restart's plain step
        # the same duals as the extrapolated step it replaces
        calls = []

        def recording(p0, **kwargs):
            res = project_to_birkhoff(p0, **kwargs)
            calls.append((kwargs["duals0"], res))
            return res

        n_restarts = 0
        for p in (3, 8, 20):
            rng = np.random.default_rng(2000 + p)
            s = random_covariance(p, 3 * p, rng)
            l = random_cholesky(p, rng)
            _, centered, concave = convexity_thresholds(l, s)
            start = DoublyStochastic.center(p)
            for mu in (0.0, max(centered, 0.0), 1.1 * concave):
                cfg = RelaxationConfig(mu=mu, eps=1e-9, k_max=300)
                _, _, restarts = direct_objective_gp(l, s, cfg, start)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(birkhoff, "project_to_birkhoff", recording)
                    res = gradient_projection(l, s, cfg, start)
                assert len(calls) == res.n_iter + len(restarts)
                i, last = 0, None
                for k in range(res.n_iter):
                    assert calls[i][0] is (None if last is None else last.duals)
                    if k in restarts:
                        i += 1
                        assert calls[i][0] is calls[i - 1][0]
                    last = calls[i][1]
                    i += 1
                assert res.ds is last.ds
                n_restarts += len(restarts)
        assert n_restarts > 0

    @pytest.mark.parametrize("p", [3, 8, 20])
    def test_descent_lemma_holds_at_full_step(self, p):
        # lambda_max(S) lambda_max(L^t L) bounds the curvature and eta is at
        # most its inverse, so every full step descends by ||P+ - P||^2 / (2 eta)
        rng = np.random.default_rng(1000 + p)
        s = random_covariance(p, 3 * p, rng)
        l = random_cholesky(p, rng)
        _, centered, concave = convexity_thresholds(l, s)
        start = DoublyStochastic.center(p)
        for mu in (0.0, max(centered, 0.0), 1.1 * concave):
            cfg = RelaxationConfig(mu=mu)
            eta = 1.0 / (concave + mu + 1e-15)
            iterates = [start.m] + plain_gp(l, s, cfg, start)
            f = [relaxed_objective(P, l, s, cfg) for P in iterates]
            for k in range(len(iterates) - 1):
                step = float(((iterates[k + 1] - iterates[k]) ** 2).sum())
                assert f[k + 1] <= f[k] - step / (2 * eta) + 1e-12 * (1 + abs(f[k]))

    def test_accepted_iterates_descend_and_restarts_meet_the_descent_lemma(self):
        # an accepted extrapolated step lowers f by the restart test; a
        # restart takes the plain step from the last accepted iterate, which
        # descends by ||P+ - P||^2 / (2 eta)
        n_restarts = 0
        for p in (3, 8, 20):
            rng = np.random.default_rng(2000 + p)
            s = random_covariance(p, 3 * p, rng)
            l = random_cholesky(p, rng)
            _, centered, concave = convexity_thresholds(l, s)
            start = DoublyStochastic.center(p)
            for mu in (0.0, max(centered, 0.0), 1.1 * concave):
                cfg = RelaxationConfig(mu=mu, eps=1e-9, k_max=300)
                eta = 1.0 / (concave + mu + 1e-15)
                _, accepted, restarts = direct_objective_gp(l, s, cfg, start)
                iterates = [start.m] + accepted
                f = [relaxed_objective(P, l, s, cfg) for P in iterates]
                tol = [1e-12 * (1 + abs(v)) for v in f]
                assert all(f[k + 1] <= f[k] + tol[k] for k in range(len(accepted)))
                for k in restarts:
                    step = float(((iterates[k + 1] - iterates[k]) ** 2).sum())
                    assert f[k + 1] <= f[k] - step / (2 * eta) + tol[k]
                n_restarts += len(restarts)
                tr = gradient_projection(l, s, cfg, start).objective_trace
                assert all(tr[i + 1] <= tr[i] + 1e-12 * (1 + abs(tr[i])) for i in range(len(tr) - 1))
        assert n_restarts > 0

    def test_capped_run_matches_direct_objective_loop(self, rng):
        p = 30
        s = random_covariance(p, 3 * p, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=max(convexity_thresholds(l, s)[1], 0.0), k_max=40)
        res = gradient_projection(l, s, cfg, DoublyStochastic.center(p))
        _, accepted, _ = direct_objective_gp(l, s, cfg, DoublyStochastic.center(p))
        assert not res.converged and res.n_iter == len(accepted) == 40
        assert np.array_equal(res.ds.m, accepted[-1])
        assert res.objective_trace[-1] == pytest.approx(
            relaxed_objective(res.ds.m, l, s, cfg), rel=1e-12)

    @pytest.mark.parametrize("p, slack", [(10, 0.0), (30, 2e-5), (100, 0.0)])
    def test_default_cap_matches_plain_gp_at_500(self, p, slack, monkeypatch):
        # the first ordering step of a fit, with its automatic mu and its
        # p_init: at the default cap of 100 the accelerated run ends no
        # higher than plain gradient projection does after 500 iterations,
        # and none of its projections falls back to _force_feasible.  At
        # p=30 this instance needs a relative slack: the accelerated run
        # ends 1.6e-5 above (plain gradient projection reaches its value
        # only at iteration 479), and it passes plain's 500th iterate
        # between iterations 100 and 150.
        steps, projections = [], []
        real_gp, real_project = birkhoff.gradient_projection, birkhoff.project_to_birkhoff

        def recording_gp(*args):
            steps.append(args)
            return real_gp(*args)

        def recording_project(*args, **kwargs):
            res = real_project(*args, **kwargs)
            projections.append(res)
            return res

        monkeypatch.setattr(birkhoff, "gradient_projection", recording_gp)
        rng = np.random.default_rng(p)
        x = sample_data(generate_dag(p, p, rng), 150, rng)
        fit(x, RrcfConfig(mcp=McpParams(0.3, 2.0), outer_k_max=2))
        l, s, cfg, p_init = steps[0]
        assert cfg.k_max == RelaxationConfig(mu=0.0).k_max == 100

        plain = plain_gp(l, s, RelaxationConfig(mu=cfg.mu, k_max=500), p_init)[-1]
        monkeypatch.setattr(birkhoff, "project_to_birkhoff", recording_project)
        res = real_gp(l, s, cfg, p_init)
        assert len(projections) >= res.n_iter
        assert all(r.converged for r in projections)

        f_plain = relaxed_objective(plain, l, s, cfg)
        assert relaxed_objective(res.ds.m, l, s, cfg) <= f_plain + slack * abs(f_plain)

    def test_center_is_solution_for_scaled_identity_factor(self, rng):
        # with mu = 0 and L proportional to I the relaxed problem collapses
        # to the polytope center
        for trial in range(5):
            p = int(rng.integers(2, 9))
            s = random_covariance(p, 4 * p, rng)
            c = float(rng.uniform(0.5, 2.0))
            cfg = RelaxationConfig(mu=0.0, eps=1e-9, k_max=4000)
            start = project_to_birkhoff(
                Permutation(rng.permutation(p)).matrix() + 0.3 * rng.standard_normal((p, p))
            ).ds
            res = gradient_projection(CholeskyFactor(c * np.eye(p)), s, cfg, start)
            assert np.linalg.norm(res.ds.m - 1.0 / p) <= 1e-4

    def test_two_by_two_quadratic(self):
        # minimize over a in [0,1] for S = diag(1,2), L = I: optimum at 1/2
        s = SampleCovariance(np.diag([1.0, 2.0]))
        cfg = RelaxationConfig(mu=0.0, eps=1e-10, k_max=2000)
        res = gradient_projection(
            CholeskyFactor(np.eye(2)), s, cfg, DoublyStochastic(np.array([[0.9, 0.1], [0.1, 0.9]]))
        )
        assert np.abs(res.ds.m - 0.5).max() <= 1e-5

    def test_concave_regime_reaches_vertex(self, rng):
        hits = 0
        for _ in range(15):
            p = int(rng.integers(3, 8))
            s = random_covariance(p, 3 * p, rng)
            l = random_cholesky(p, rng)
            _, _, concave = convexity_thresholds(l, s)
            cfg = RelaxationConfig(mu=1.1 * concave, eps=1e-10, k_max=3000)
            res = gradient_projection(l, s, cfg, DoublyStochastic.center(p))
            r = np.rint(res.ds.m)
            if (
                (r.sum(axis=0) == 1).all()
                and (r.sum(axis=1) == 1).all()
                and np.abs(res.ds.m - r).max() < 1e-3
            ):
                hits += 1
        assert hits >= 13

    def test_objective_monotone_along_accepted_steps(self, rng):
        p = 5
        s = random_covariance(p, 30, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=0.3, eps=1e-9, k_max=300)
        res = gradient_projection(l, s, cfg, DoublyStochastic.center(p))
        tr = res.objective_trace
        assert all(tr[i + 1] <= tr[i] + 1e-10 for i in range(len(tr) - 1))

    def test_relaxation_config_requires_mu(self):
        with pytest.raises(TypeError):
            RelaxationConfig()

    @pytest.mark.parametrize("field, bad", [("mu", "0.3"), ("mu", True), ("eps", float("inf")),
                                            ("eps", 0.0)])
    def test_relaxation_config_reals_are_checked(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be"):
            RelaxationConfig(**{"mu": 0.3, field: bad})

    def test_relaxation_config_k_max_must_be_an_integer(self):
        for bad in (500.0, 2.5, True, np.bool_(True)):
            with pytest.raises(ValueError, match="k_max must be an integer"):
                RelaxationConfig(mu=0.0, k_max=bad)
        assert type(RelaxationConfig(mu=0.0, k_max=np.int64(5)).k_max) is int

    def test_output_feasible(self, rng):
        p = 6
        s = random_covariance(p, 40, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=0.5, eps=1e-8, k_max=500)
        res = gradient_projection(l, s, cfg, random_ds(p, rng))
        m = res.ds.m
        assert m.min() >= -1e-10
        assert np.abs(m.sum(axis=0) - 1).max() <= 1e-8


class TestRankVector:
    def test_worked_example(self):
        assert np.array_equal(rank_vector([4.7, -2.1, 2.5]), [3, 1, 2])

    def test_sorted_input(self):
        assert np.array_equal(rank_vector(np.arange(5.0)), [1, 2, 3, 4, 5])

    def test_ties_break_by_index(self):
        assert np.array_equal(rank_vector([1.0, 1.0, 1.0]), [1, 2, 3])


class TestDoublyStochastic:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.full((2, 2), 0.5)
        m[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DoublyStochastic(m)


class TestSamplePermutations:
    def test_permutation_input_reproduced(self, rng):
        p = 6
        perm = Permutation(rng.permutation(p))
        ds = DoublyStochastic(perm.matrix())
        for cand in sample_permutations(ds, 20, rng):
            assert np.array_equal(cand.pi, perm.pi)

    def test_diagonally_dominant_two_by_two(self, rng):
        # [[0.9, 0.1], [0.1, 0.9]] preserves the order of any x, so every
        # sample is the identity
        ds = DoublyStochastic(np.array([[0.9, 0.1], [0.1, 0.9]]))
        for cand in sample_permutations(ds, 50, rng):
            assert np.array_equal(cand.pi, [0, 1])

    def test_center_tie_break(self):
        # ds x is constant, so r(ds x) = 1..p by the index tie-break and the
        # sample maps position k to the index of the (k+1)-smallest x entry
        p = 5
        ds = DoublyStochastic.center(p)
        seed = 99
        draws = np.random.default_rng(seed).standard_normal((3, p))
        perms = sample_permutations(ds, 3, np.random.default_rng(seed))
        for x, cand in zip(draws, perms):
            assert np.array_equal(cand.pi, np.argsort(x, kind="stable"))

    @pytest.mark.parametrize("n_samples", [2.5, 2.0, True, 0])
    def test_n_samples_must_be_a_positive_integer(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be"):
            sample_permutations(DoublyStochastic.center(3), n_samples, np.random.default_rng(0))


def per_draw_samples(ds, n, rng):
    """Rank-matching rounding with one draw and one argsort pair per sample."""
    rows = []
    for _ in range(n):
        x = rng.standard_normal(ds.p)
        pi = np.empty(ds.p, dtype=int)
        pi[np.argsort(ds.m @ x, kind="stable")] = np.argsort(x, kind="stable")
        rows.append(pi)
    return np.array(rows)


class TestBulkDraws:
    @pytest.mark.parametrize("p", [3, 4, 5, 7, 10, 20, 30, 50, 100, 200])
    def test_equal_to_per_draw_reference(self, p):
        rng = np.random.default_rng(p)
        for ds in (random_ds(p, rng), project_to_birkhoff(rng.random((p, p))).ds):
            seed = int(rng.integers(1 << 30))
            got = sample_permutations(ds, 150, np.random.default_rng(seed))
            want = per_draw_samples(ds, 150, np.random.default_rng(seed))
            assert np.array_equal(np.array([c.pi for c in got]), want)

    def test_candidates_continue_the_same_stream(self):
        # the draws of one step leave the generator where 150 single
        # draws would, so the next step's draws are unchanged too
        p = 12
        ds = project_to_birkhoff(np.random.default_rng(1).random((p, p))).ds
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        rounding_candidates(ds, a, Permutation.identity(p))
        per_draw_samples(ds, birkhoff.N_SAMPLES, b)
        assert a.standard_normal() == b.standard_normal()


def first_occurrences(rows):
    seen, out = set(), []
    for row in rows:
        if tuple(row) not in seen:
            seen.add(tuple(row))
            out.append(row)
    return np.array(out)


class TestRoundingCandidates:
    @pytest.mark.parametrize("incumbent_is_the_assignment", [False, True])
    def test_draws_then_assignment_without_repeats(self, incumbent_is_the_assignment):
        # p = 4 has 24 orderings, so most of the 151 rows repeat; an
        # incumbent equal to the last row moves that row to the front
        p = 4
        rng = np.random.default_rng(2)
        ds = project_to_birkhoff(rng.random((p, p))).ds
        incumbent = Permutation(rng.permutation(p))
        if incumbent_is_the_assignment:
            incumbent = round_hungarian(ds)
        rows, snapped = rounding_candidates(ds, np.random.default_rng(4), incumbent)
        full = [incumbent.pi, *per_draw_samples(ds, birkhoff.N_SAMPLES, np.random.default_rng(4))]
        full.append(round_hungarian(ds).pi)
        assert not snapped
        assert rows.dtype.kind == "i" and rows.shape[1] == p
        assert np.array_equal(rows, first_occurrences(full))
        assert rows.shape[0] < len(full)

    def test_duplicates_keep_their_first_position(self):
        # the incumbent equals the fourth draw: it stays first, and the
        # draw's later copy is dropped
        p = 6
        ds = project_to_birkhoff(np.random.default_rng(3).random((p, p))).ds
        draws = per_draw_samples(ds, birkhoff.N_SAMPLES, np.random.default_rng(8))
        rows, _ = rounding_candidates(ds, np.random.default_rng(8), Permutation(draws[3]))
        assert np.array_equal(rows[0], draws[3])
        assert np.array_equal(rows[1:4], first_occurrences(draws[:3]))
        assert sum(np.array_equal(row, draws[3]) for row in rows) == 1

    def test_vertex_is_the_only_candidate_and_draws_nothing(self):
        perm = Permutation(np.array([2, 0, 3, 1]))
        ds = DoublyStochastic(perm.matrix())
        rng = np.random.default_rng(0)
        rows, snapped = rounding_candidates(ds, rng, Permutation.identity(4))
        assert snapped
        assert np.array_equal(rows, [np.arange(4), perm.pi])
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
        rows, _ = rounding_candidates(ds, rng, perm)
        assert np.array_equal(rows, [perm.pi])


def exhaustive_winner(l, s, rows):
    return min(range(rows.shape[0]), key=lambda i: trace_objective(l, Permutation(rows[i]), s))


class TestBestCandidate:
    @pytest.mark.parametrize("p", [3, 4, 6, 10, 20, 30])
    @pytest.mark.parametrize("incumbent_is_the_assignment", [False, True])
    def test_winner_of_the_exhaustive_minimum(self, p, incumbent_is_the_assignment):
        # a random incumbent, or one equal to a candidate of the relaxed point
        rng = np.random.default_rng(100 * p + incumbent_is_the_assignment)
        for _ in range(4):
            s = random_covariance(p, 3 * p, rng)
            l = random_cholesky(p, rng)
            ds = random_ds(p, rng)
            incumbent = Permutation(rng.permutation(p))
            if incumbent_is_the_assignment:
                incumbent = round_hungarian(ds)
            rows, _ = rounding_candidates(ds, rng, incumbent)
            assert best_candidate(l, s, rows) == exhaustive_winner(l, s, rows)

    def test_ranks_the_relaxed_solution_candidates(self):
        # candidates from a solved relaxation crowd near its optimum
        rng = np.random.default_rng(7)
        for p in (5, 12, 25):
            s = random_covariance(p, 2 * p, rng)
            l = random_cholesky(p, rng)
            cfg = RelaxationConfig(mu=max(convexity_thresholds(l, s)[1], 0.0))
            gp = gradient_projection(l, s, cfg, DoublyStochastic.center(p))
            rows, _ = rounding_candidates(gp.ds, rng, Permutation(rng.permutation(p)))
            assert best_candidate(l, s, rows) == exhaustive_winner(l, s, rows)

    def test_all_ties_keep_the_first_row(self):
        # L = I and S = I give every ordering the trace p/2
        p = 5
        rows = np.array([np.random.default_rng(i).permutation(p) for i in range(30)])
        assert best_candidate(CholeskyFactor(np.eye(p)), SampleCovariance(np.eye(p)), rows) == 0

    def test_partial_ties_keep_the_first_minimizer(self):
        # diagonal L and S: the trace is 1/2 sum_i l_ii^2 s_pi(i), which
        # repeated variances tie between orderings
        p = 6
        l = CholeskyFactor(np.diag([3.0, 2.0, 2.0, 1.0, 1.0, 0.5]))
        s = SampleCovariance(np.diag([1.0, 1.0, 2.0, 2.0, 4.0, 4.0]))
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows = np.array([rng.permutation(p) for _ in range(40)])
            assert best_candidate(l, s, rows) == exhaustive_winner(l, s, rows)

    @pytest.mark.parametrize("p", [5, 10, 20, 30, 60])
    def test_rounding_level_ties_keep_the_exact_winner(self, p):
        # L = c I gives every ordering the trace c^2 tr(S) / 2, so the
        # exact values differ only in rounding, and the screen rounds
        # differently again; without its slack the screen drops the
        # winner in 22 of these 150 cases
        rng = np.random.default_rng(p)
        for _ in range(30):
            s = random_covariance(p, 3 * p, rng)
            l = CholeskyFactor(np.eye(p) * rng.uniform(0.5, 2.0))
            rows = np.array([rng.permutation(p) for _ in range(40)])
            assert best_candidate(l, s, rows) == exhaustive_winner(l, s, rows)

    def test_clear_winner_first_costs_one_exact_evaluation(self, monkeypatch):
        # l_ii descending against s ascending is the unique minimizer
        # (rearrangement), ahead of every other ordering by at least 1/2
        p = 7
        l = CholeskyFactor(np.diag(np.arange(p, 0, -1.0)))
        s = SampleCovariance(np.diag(np.arange(1.0, p + 1)))
        rng = np.random.default_rng(0)
        rows = np.array([np.arange(p)] + [rng.permutation(p) for _ in range(60)])
        calls = []
        real = birkhoff.trace_objective
        monkeypatch.setattr(birkhoff, "trace_objective", lambda *a: calls.append(1) or real(*a))
        assert best_candidate(l, s, rows) == 0
        assert len(calls) == 1


class TestRoundHungarian:
    def test_permutation_recovered(self, rng):
        perm = Permutation(rng.permutation(7))
        assert np.array_equal(round_hungarian(DoublyStochastic(perm.matrix())).pi, perm.pi)

    def test_two_by_two(self):
        ds = DoublyStochastic(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert np.array_equal(round_hungarian(ds).pi, [0, 1])

    def test_center_ties_to_identity(self):
        assert np.array_equal(round_hungarian(DoublyStochastic.center(4)).pi, np.arange(4))

    def test_scipy_optimize_loads_at_first_rounding(self):
        # a fresh interpreter: importing birkdag leaves scipy.optimize out,
        # and the first rounding loads it and returns the exact assignment
        code = """
import itertools, sys
import numpy as np
import birkdag
from birkdag.birkhoff import DoublyStochastic, round_hungarian
print('scipy.optimize' in sys.modules)
m = np.random.default_rng(5).random((6, 6))
for _ in range(500):
    m /= m.sum(axis=1, keepdims=True)
    m /= m.sum(axis=0, keepdims=True)
best = max(itertools.permutations(range(6)), key=lambda pi: m[np.arange(6), pi].sum())
print(round_hungarian(DoublyStochastic(m)).pi.tolist() == list(best))
print('scipy.optimize' in sys.modules)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True"]


class TestEstimatePermutation:
    def test_vertex_branch_returns_without_sampling(self, rng):
        # huge mu keeps the start vertex optimal, so the relaxed solution
        # snaps and sampling never runs; the vertex wins unless the
        # incumbent, ranked first, ties or beats it
        p = 4
        s = random_covariance(p, 20, rng)
        l = random_cholesky(p, rng)
        _, _, concave = convexity_thresholds(l, s)
        cfg = RelaxationConfig(mu=5 * concave, eps=1e-10, k_max=2000)
        r = np.rint(gradient_projection(l, s, cfg, DoublyStochastic.center(p)).ds.m)
        vertex = Permutation(np.argmax(r, axis=1))
        for incumbent in itertools.permutations(range(p)):
            incumbent = Permutation(np.array(incumbent))
            state = rng.bit_generator.state
            est = estimate_permutation(
                l, s, cfg, rng, p_init=DoublyStochastic.center(p), incumbent=incumbent)
            assert est.snapped and rng.bit_generator.state == state
            keep = trace_objective(l, incumbent, s) <= trace_objective(l, vertex, s)
            assert np.array_equal(est.perm.pi, (incumbent if keep else vertex).pi)

    def test_all_ties_keep_first_candidate(self):
        # L = I and S = I make every permutation score identically, so the
        # first candidate, the incumbent, is kept after the draws
        p = 4
        s = SampleCovariance(np.eye(p))
        l = CholeskyFactor(np.eye(p))
        cfg = RelaxationConfig(mu=0.0, eps=1e-9, k_max=500)
        incumbent = Permutation(np.array([2, 0, 3, 1]))
        rng = np.random.default_rng(5)
        est = estimate_permutation(l, s, cfg, rng, DoublyStochastic.center(p), incumbent)
        assert not est.snapped
        assert np.array_equal(est.perm.pi, incumbent.pi)
        after = np.random.default_rng(5)
        after.standard_normal((birkhoff.N_SAMPLES, p))
        assert rng.standard_normal() == after.standard_normal()

    def test_snapped_tie_keeps_incumbent(self):
        # L = I and S = I tie every permutation; mu past the concave
        # threshold keeps GP on its start vertex, so the relaxed solution
        # snaps to [1, 0, 3, 2], and the incumbent, first in the
        # comparison, wins the tie as it does in the sampled branch
        p = 4
        s = SampleCovariance(np.eye(p))
        l = CholeskyFactor(np.eye(p))
        cfg = RelaxationConfig(mu=10.0)
        start = Permutation(np.array([1, 0, 3, 2]))
        est = estimate_permutation(
            l, s, cfg, np.random.default_rng(0),
            p_init=DoublyStochastic(start.matrix()),
            incumbent=Permutation.identity(p),
        )
        assert est.snapped
        relaxed = gradient_projection(l, s, cfg, DoublyStochastic(start.matrix())).ds
        assert np.array_equal(np.argmax(relaxed.m, axis=1), start.pi)
        assert np.array_equal(est.perm.pi, np.arange(p))

    def test_exhaustive_three_node_oracle(self, rng):
        # the returned ordering attains the minimum trace over all 3! orders
        from itertools import permutations as iperm

        p = 3
        s = SampleCovariance(np.diag([3.0, 1.0, 2.0]))
        l = CholeskyFactor(np.array([[1.0, 0.0, 0.0], [-0.8, 1.3, 0.0], [0.4, -0.2, 0.7]]))
        cfg = RelaxationConfig(mu=0.0, eps=1e-9, k_max=1000)
        est = estimate_permutation(
            l, s, cfg, np.random.default_rng(0), DoublyStochastic.center(p), Permutation.identity(p))
        best = min(trace_objective(l, Permutation(np.array(o)), s) for o in iperm(range(p)))
        assert trace_objective(l, est.perm, s) == pytest.approx(best)

    def test_incumbent_never_degrades_trace(self, rng):
        p = 6
        s = random_covariance(p, 40, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=0.0, eps=1e-7, k_max=200)
        incumbent = Permutation(rng.permutation(p))
        est = estimate_permutation(l, s, cfg, rng, DoublyStochastic.center(p), incumbent=incumbent)
        assert trace_objective(l, est.perm, s) <= trace_objective(l, incumbent, s) + 1e-12


class TestNormBounds:
    def test_frobenius_interval_on_polytope(self, rng):
        # 1 <= ||P||_F <= sqrt(p) over the polytope, ends attained at the
        # center and at vertices
        for _ in range(200):
            p = int(rng.integers(2, 9))
            m = random_ds(p, rng).m
            nrm = np.linalg.norm(m)
            assert 1.0 - 1e-9 <= nrm <= np.sqrt(p) + 1e-9
        assert np.linalg.norm(DoublyStochastic.center(5).m) == pytest.approx(1.0, abs=1e-15)
        perm = Permutation(rng.permutation(5))
        assert np.linalg.norm(perm.matrix()) == pytest.approx(np.sqrt(5), abs=1e-15)
