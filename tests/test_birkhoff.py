import numpy as np
import pytest

from birkdag.birkhoff import (
    DoublyStochastic,
    DualVariables,
    RelaxationConfig,
    convexity_thresholds,
    dual_objective,
    estimate_permutation,
    gradient_projection,
    project_to_birkhoff,
    rank_vector,
    relaxed_gradient,
    relaxed_objective,
    round_hungarian,
    sample_permutations,
    trace_objective,
)
from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance

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
        assert np.abs(res.duals.bigu).max() == 0.0

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


class TestDualObjective:
    def test_zero_duals(self, rng):
        dv = DualVariables(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert dual_objective(dv, rng.standard_normal((3, 3))) == 0.0

    def test_optimal_for_permutation_input(self, rng):
        pm = Permutation(rng.permutation(4)).matrix()
        res = project_to_birkhoff(pm, eps=1e-14)
        assert abs(dual_objective(res.duals, pm)) <= 1e-12

    def test_weak_duality(self, rng):
        # any dual point with U >= 0 lower-bounds the primal at any feasible P
        for _ in range(100):
            p0 = rng.standard_normal((3, 3))
            dv = DualVariables(
                rng.standard_normal(3), rng.standard_normal(3), np.abs(rng.standard_normal((3, 3)))
            )
            feas = random_ds(3, rng)
            primal = 0.5 * ((feas.m - p0) ** 2).sum()
            assert dual_objective(dv, p0) <= primal + 1e-12


class TestRelaxedObjective:
    def test_mu_zero_permutation_identity_factor(self, rng):
        p = 4
        s = random_covariance(p, 20, rng)
        cfg = RelaxationConfig(mu=0.0)
        pm = DoublyStochastic.from_permutation(Permutation(rng.permutation(p)))
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
            assert relaxed_objective(c, l, s, cfg) == pytest.approx(expected)

    def test_centered_equals_plain_plus_constant(self, rng):
        # ||T P||_F^2 = ||P||_F^2 - 1 on the polytope, so the objective
        # exceeds the plain-penalty form 1/2 tr(L P S P^t L^t) - mu/2 ||P||_F^2
        # by exactly mu/2
        p, mu = 5, 1.7
        s = random_covariance(p, 30, rng)
        l = random_cholesky(p, rng)
        for _ in range(100):
            ds = random_ds(p, rng)
            quad = relaxed_objective(ds, l, s, RelaxationConfig(mu=0.0))
            plain = quad - 0.5 * mu * (ds.m**2).sum()
            centered = relaxed_objective(ds, l, s, RelaxationConfig(mu=mu))
            assert abs(centered - (plain + mu / 2)) <= 1e-10


class TestRelaxedGradient:
    def test_identity_case(self, rng):
        p = 4
        cfg = RelaxationConfig(mu=0.0)
        ds = random_ds(p, rng)
        g = relaxed_gradient(ds, CholeskyFactor(np.eye(p)), SampleCovariance(np.eye(p)), cfg)
        assert np.abs(g - ds.m).max() <= 1e-14

    def test_centered_gradient_at_center(self, rng):
        p = 4
        s = random_covariance(p, 25, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=7.0)
        c = DoublyStochastic.center(p)
        expected = (l.l.T @ l.l) @ c.m @ s.s
        assert np.abs(relaxed_gradient(c, l, s, cfg) - expected).max() <= 1e-12

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
        # eigenvalues read straight off a diagonal matrix
        l = CholeskyFactor(np.eye(2))
        ev = np.diag([0.0, 1.0])
        plain, centered, concave = convexity_thresholds(l, ev)
        assert plain == pytest.approx(0.0, abs=1e-15)
        assert centered == pytest.approx(1.0)
        assert concave == pytest.approx(1.0)

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


class TestGradientProjection:
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

    def test_rejects_automatic_mu(self, rng):
        p = 3
        with pytest.raises(ValueError, match="explicit mu"):
            gradient_projection(
                random_cholesky(p, rng), random_covariance(p, 20, rng),
                RelaxationConfig(), DoublyStochastic.center(p),
            )

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


class TestSamplePermutations:
    def test_permutation_input_reproduced(self, rng):
        p = 6
        perm = Permutation(rng.permutation(p))
        ds = DoublyStochastic.from_permutation(perm)
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


class TestRoundHungarian:
    def test_permutation_recovered(self, rng):
        perm = Permutation(rng.permutation(7))
        assert np.array_equal(round_hungarian(DoublyStochastic.from_permutation(perm)).pi, perm.pi)

    def test_two_by_two(self):
        ds = DoublyStochastic(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert np.array_equal(round_hungarian(ds).pi, [0, 1])

    def test_center_ties_to_identity(self):
        assert np.array_equal(round_hungarian(DoublyStochastic.center(4)).pi, np.arange(4))


class TestEstimatePermutation:
    def test_vertex_branch_returns_without_sampling(self, rng):
        # huge mu keeps the start vertex optimal, so the relaxed solution
        # snaps and sampling never runs
        p = 4
        s = random_covariance(p, 20, rng)
        l = random_cholesky(p, rng)
        _, _, concave = convexity_thresholds(l, s)
        cfg = RelaxationConfig(mu=5 * concave, eps=1e-10, k_max=2000)
        est = estimate_permutation(l, s, cfg, rng, p_init=DoublyStochastic.center(p))
        assert est.snapped
        r = np.rint(est.relaxed.m)
        assert np.array_equal(np.argmax(r, axis=1), est.perm.pi)

    def test_all_ties_keep_first_candidate(self):
        # L = I and S = I make every permutation score identically, so the
        # first candidate (sample 0) is kept
        p = 4
        s = SampleCovariance(np.eye(p))
        l = CholeskyFactor(np.eye(p))
        cfg = RelaxationConfig(mu=0.0, eps=1e-9, k_max=500, n_samples=10)
        seed = 5
        est = estimate_permutation(l, s, cfg, np.random.default_rng(seed))
        gp = gradient_projection(l, s, cfg, DoublyStochastic.center(p))
        expected = sample_permutations(gp.ds, 1, np.random.default_rng(seed))[0]
        assert np.array_equal(est.perm.pi, expected.pi)

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
            p_init=DoublyStochastic.from_permutation(start),
            incumbent=Permutation.identity(p),
        )
        assert est.snapped
        assert np.array_equal(np.argmax(est.relaxed.m, axis=1), start.pi)
        assert np.array_equal(est.perm.pi, np.arange(p))

    def test_exhaustive_three_node_oracle(self, rng):
        # the returned ordering attains the minimum trace over all 3! orders
        from itertools import permutations as iperm

        p = 3
        s = SampleCovariance(np.diag([3.0, 1.0, 2.0]))
        l = CholeskyFactor(np.array([[1.0, 0.0, 0.0], [-0.8, 1.3, 0.0], [0.4, -0.2, 0.7]]))
        cfg = RelaxationConfig(mu=0.0, eps=1e-9, k_max=1000, n_samples=50)
        est = estimate_permutation(l, s, cfg, np.random.default_rng(0))
        best = min(trace_objective(l, Permutation(np.array(o)), s) for o in iperm(range(p)))
        assert trace_objective(l, est.perm, s) == pytest.approx(best)

    def test_incumbent_never_degrades_trace(self, rng):
        p = 6
        s = random_covariance(p, 40, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=0.0, eps=1e-7, k_max=200, n_samples=5)
        incumbent = Permutation(rng.permutation(p))
        est = estimate_permutation(l, s, cfg, rng, incumbent=incumbent)
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
