import itertools

import numpy as np
import pytest

from birkdag.scoring import McpParams
from birkdag.sem import (
    CholeskyFactor,
    Permutation,
    SampleCovariance,
    generate_dag,
    sample_covariance,
    sample_data,
)
from birkdag.solver import (
    CholeskyEstimate,
    ConvexityGuardError,
    RowSubproblem,
    SolverSettings,
    check_lower_bounds,
    default_row_start,
    estimate_cholesky,
    minimize_row,
    row_objectives,
    update_diagonal,
    update_offdiagonal,
)

from conftest import random_covariance


def serial_cholesky(perm, s, params, settings=SolverSettings(), l0=None):
    """Reference factor solved row by row with the single-row solver.

    Row 1 has the closed form 1/sqrt(S^P_11); row i runs ``minimize_row``
    on the leading (i+1) x (i+1) block of S^P, warm started from row i of
    ``l0`` when given.
    """
    sp = perm.apply_to_matrix(s.s)
    p = sp.shape[0]
    l = np.zeros((p, p))
    l[0, 0] = 1.0 / np.sqrt(sp[0, 0])
    sweeps = np.zeros(p, dtype=int)
    converged = np.ones(p, dtype=bool)
    for i in range(1, p):
        sub = RowSubproblem(a=sp[: i + 1, : i + 1], params=params)
        x0 = None if l0 is None else l0.l[i, : i + 1].copy()
        l[i, : i + 1], converged[i], sweeps[i] = minimize_row(sub, x0=x0, settings=settings)
    return CholeskyEstimate(CholeskyFactor(l), sweeps, converged)


def make_sub(a, lam, gamma):
    return RowSubproblem(a=np.array(a, dtype=float), params=McpParams(lam, gamma))


def random_subproblem(k, rng, lam=0.1, gamma=2.0):
    g = rng.standard_normal((k + 3, k))
    a = g.T @ g / (k + 3)
    # keep the configuration inside the strict-convexity guard
    gamma = max(gamma, 1.2 / (2.0 * np.diag(a).min()), 1.01)
    return make_sub(a, lam, gamma)


def grid_polish_oracle(sub, span):
    """Dense grid start points, each polished to a local minimum."""
    k = sub.k
    vals = np.linspace(-span, span, 5)
    dvals = np.linspace(0.1, span, 4)
    best = np.inf
    for combo in itertools.product(*([vals] * (k - 1) + [dvals])):
        x, _, _ = minimize_row(sub, x0=np.array(combo), settings=SolverSettings(k_max=300))
        best = min(best, sub.objective(x))
    return best


class TestOffdiagonalUpdate:
    def test_zero_crosstalk_gives_zero(self):
        sub = make_sub([[1.0, 0.0], [0.0, 1.0]], 0.5, 2.0)
        assert update_offdiagonal(sub, np.array([0.3, 1.0]), 0) == 0.0

    def test_inner_branch_hand_value(self):
        # A_jj = 1, gamma = 2, lambda = 0.5, z = 1 -> S_0.5(1) / (2 - 0.5) = 1/3
        sub = make_sub([[1.0, -0.5], [-0.5, 1.0]], 0.5, 2.0)
        x = np.array([0.0, 1.0])  # z = -2 * A_01 * x_1 = 1
        assert update_offdiagonal(sub, x, 0) == pytest.approx(1.0 / 3.0)

    def test_flat_branch_hand_value(self):
        # z = 4 with A_jj = 1: |z|/2 = 2 >= gamma lambda = 1, so x = z/2 = 2
        sub = make_sub([[1.0, -2.0], [-2.0, 4.2]], 0.5, 2.0)
        x = np.array([0.0, 1.0])  # z = -2 * (-2) * 1 = 4
        assert update_offdiagonal(sub, x, 0) == pytest.approx(2.0)

    def test_flat_branch_beats_inner_candidate(self):
        # both branch formulas evaluated in h: the flat one must win where
        # the rule selects it
        sub = make_sub([[1.0, -2.0], [-2.0, 4.2]], 0.5, 2.0)
        x = np.array([0.0, 1.0])
        xs = update_offdiagonal(sub, x, 0)
        inner = np.sign(4.0) * max(4.0 - 0.5, 0) / (2 - 1 / 2.0)
        h_flat = sub.objective(np.array([xs, 1.0]))
        h_inner = sub.objective(np.array([inner, 1.0]))
        assert h_flat <= h_inner

    def test_guard_error(self):
        sub = make_sub([[0.2, 0.0], [0.0, 1.0]], 0.1, 1.5)
        # 2 * 0.2 - 1/1.5 < 0
        with pytest.raises(ConvexityGuardError, match="gamma"):
            update_offdiagonal(sub, np.array([0.0, 1.0]), 0)

    def test_lasso_limit(self):
        # gamma -> inf reduces the update to soft-thresholding
        rng = np.random.default_rng(0)
        for _ in range(50):
            a01 = rng.uniform(-1, 1)
            ajj = rng.uniform(0.5, 2.0)
            sub = make_sub([[ajj, a01], [a01, 1.0]], 0.3, 1e8)
            x = np.array([0.0, rng.uniform(-2, 2)])
            z = -2 * a01 * x[1]
            got = update_offdiagonal(sub, x, 0)
            want = np.sign(z) * max(abs(z) - 0.3, 0.0) / (2 * ajj)
            if want != 0.0:
                assert abs(got - want) <= 1e-6 * abs(want)
            else:
                assert abs(got) <= 1e-12 or abs(z) / (2 * ajj) >= 1e8 * 0.3


class TestDiagonalUpdate:
    def test_uncoupled(self):
        sub = make_sub([[1.0, 0.0], [0.0, 4.0]], 0.1, 2.0)
        assert update_diagonal(sub, np.array([0.7, 1.0])) == pytest.approx(0.5)

    def test_golden_ratio_case(self):
        # A_kk = 1, coupling sum 1: positive root of t^2 + t - 1
        sub = make_sub([[1.0, 1.0], [1.0, 1.0]], 0.1, 2.0)
        got = update_diagonal(sub, np.array([1.0, 5.0]))
        assert got == pytest.approx((-1 + np.sqrt(5)) / 2)

    def test_negative_coupling(self):
        # A_kk = 2, coupling sum -3: (3 + sqrt(17)) / 4
        sub = make_sub([[1.0, -1.5], [-1.5, 2.0]], 0.1, 3.0)
        got = update_diagonal(sub, np.array([2.0, 1.0]))
        assert got == pytest.approx((3 + np.sqrt(17)) / 4)

    def test_always_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sub = random_subproblem(4, rng)
            x = rng.standard_normal(4)
            x[-1] = abs(x[-1]) + 0.1
            assert update_diagonal(sub, x) > 0


class TestMinimizeRow:
    def test_identity_block_lambda_zero(self):
        sub = make_sub(np.eye(4), 0.0, 2.0)
        x, ok, _ = minimize_row(sub)
        assert ok
        assert np.allclose(x, [0, 0, 0, 1.0], atol=1e-12)

    def test_scalar_row_one_sweep(self):
        sub = make_sub([[4.0]], 0.3, 2.0)
        x, ok, sweeps = minimize_row(sub, x0=np.array([3.0]))
        assert ok and np.allclose(x, [0.5])
        assert sweeps <= 2

    def test_monotone_descent_per_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sub = random_subproblem(5, rng, lam=0.2)
            x = default_row_start(sub)
            prev = sub.objective(x)
            for _ in range(40):
                for j in range(sub.k - 1):
                    x[j] = update_offdiagonal(sub, x, j)
                x[-1] = update_diagonal(sub, x)
                cur = sub.objective(x)
                assert cur <= prev + 1e-10
                prev = cur

    def test_fixed_point_at_convergence(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sub = random_subproblem(5, rng)
            x, ok, _ = minimize_row(sub, settings=SolverSettings(eps=1e-12, k_max=2000))
            assert ok
            for j in range(sub.k - 1):
                assert abs(update_offdiagonal(sub, x, j) - x[j]) <= 1e-8
            assert abs(update_diagonal(sub, x) - x[-1]) <= 1e-8

    def test_grid_polish_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            sub = random_subproblem(k, rng)
            x, _, _ = minimize_row(sub)
            h = sub.objective(x)
            span = max(1.5, 1.5 * np.abs(x).max())
            assert h <= grid_polish_oracle(sub, span) + 1e-6

    def test_rejects_nonpositive_start(self):
        sub = make_sub(np.eye(2), 0.1, 2.0)
        with pytest.raises(ValueError):
            minimize_row(sub, x0=np.array([0.0, -1.0]))


class TestEstimateCholesky:
    def test_identity_covariance_lambda_zero(self):
        s = SampleCovariance(np.eye(5))
        est = estimate_cholesky(Permutation.identity(5), s, McpParams(0.0, 2.0))
        assert np.allclose(est.l.l, np.eye(5), atol=1e-12)
        assert est.all_converged

    def test_large_lambda_gives_diagonal(self, rng):
        s = random_covariance(6, 50, rng)
        est = estimate_cholesky(Permutation.identity(6), s, McpParams(50.0, 2.0))
        offdiag = est.l.l[np.tril_indices(6, -1)]
        assert np.abs(offdiag).max() == 0.0
        assert np.allclose(np.diag(est.l.l), 1.0 / np.sqrt(np.diag(s.s)))

    def test_first_row_closed_form(self, rng):
        p = 4
        m = random_covariance(p, 30, rng).s
        m[0, 0] = 4.0
        s = SampleCovariance(0.5 * (m + m.T))
        perm = Permutation.identity(p)
        est = estimate_cholesky(perm, s, McpParams(0.2, 2.0))
        assert est.l.l[0, 0] == pytest.approx(0.5)

    def test_batched_matches_serial(self, rng):
        for trial in range(5):
            p = int(rng.integers(3, 10))
            s = random_covariance(p, 4 * p, rng)
            perm = Permutation(rng.permutation(p))
            params = McpParams(0.15, 2.0)
            a = estimate_cholesky(perm, s, params)
            b = serial_cholesky(perm, s, params)
            assert np.abs(a.l.l - b.l.l).max() <= 1e-9
            # same settings and the same warm start on both paths
            settings = SolverSettings(eps=1e-10, k_max=2000)
            l0 = estimate_cholesky(perm, s, McpParams(0.3, 2.0)).l
            a = estimate_cholesky(perm, s, params, settings, l0=l0)
            b = serial_cholesky(perm, s, params, settings, l0=l0)
            assert np.abs(a.l.l - b.l.l).max() <= 1e-9

    def test_default_sweep_cap_covers_slow_rows(self):
        # the 12th (p=200, s=200, n=300) instance drawn from seed 2000 has
        # a row that needs 734 sweeps at lambda 0.2, gamma 2 and its true
        # ordering; the default cap must not leave it unconverged
        rng = np.random.default_rng(2000)
        for _ in range(12):
            inst = generate_dag(200, 200, rng)
            x = sample_data(inst, 300, rng)
        est = estimate_cholesky(inst.ordering, sample_covariance(x), McpParams(0.2, 2.0))
        assert est.all_converged
        assert est.sweeps.max() == 734

    def test_deterministic(self, rng):
        s = random_covariance(7, 40, rng)
        perm = Permutation(rng.permutation(7))
        a = estimate_cholesky(perm, s, McpParams(0.1, 2.0))
        b = estimate_cholesky(perm, s, McpParams(0.1, 2.0))
        assert np.array_equal(a.l.l, b.l.l)

    def test_row_fixed_points(self, rng):
        p = 6
        s = random_covariance(p, 40, rng)
        perm = Permutation(rng.permutation(p))
        params = McpParams(0.2, 2.0)
        est = estimate_cholesky(perm, s, params, settings=SolverSettings(eps=1e-12, k_max=2000))
        sp = perm.apply_to_matrix(s.s)
        for i in range(1, p):
            sub = RowSubproblem(a=sp[: i + 1, : i + 1], params=params)
            x = est.l.l[i, : i + 1].copy()
            for j in range(i):
                assert abs(update_offdiagonal(sub, x, j) - x[j]) <= 1e-8
            assert abs(update_diagonal(sub, x) - x[-1]) <= 1e-8

    def test_guard_raises(self, rng):
        s = SampleCovariance(np.diag([0.2, 0.3]))
        with pytest.raises(ConvexityGuardError):
            estimate_cholesky(Permutation.identity(2), s, McpParams(0.1, 1.2))

    def test_rows_independent_of_schedule(self, rng):
        # each row is a pure function of the permuted covariance, so
        # solving rows in any order assembles the identical factor
        p = 6
        s = random_covariance(p, 40, rng)
        perm = Permutation(rng.permutation(p))
        params = McpParams(0.2, 2.0)
        sp = perm.apply_to_matrix(s.s)
        reference = serial_cholesky(perm, s, params).l.l
        l = np.zeros((p, p))
        l[0, 0] = 1.0 / np.sqrt(sp[0, 0])
        for i in rng.permutation(np.arange(1, p)):  # shuffled schedule
            sub = RowSubproblem(a=sp[: i + 1, : i + 1], params=params)
            l[i, : i + 1] = minimize_row(sub)[0]
        assert np.array_equal(l, reference)

    def test_warm_start_accepted(self, rng):
        p = 5
        s = random_covariance(p, 30, rng)
        perm = Permutation.identity(p)
        cold = estimate_cholesky(perm, s, McpParams(0.2, 2.0))
        warm = estimate_cholesky(perm, s, McpParams(0.2, 2.0), l0=cold.l)
        assert np.abs(cold.l.l - warm.l.l).max() <= 1e-7


class TestLowerBounds:
    def test_identity_case(self):
        # row objectives equal 1 and the row bound is 0 at L_ii = 1
        p = 4
        l = CholeskyFactor(np.eye(p))
        sp = np.eye(p)
        params = McpParams(0.0, 2.0)
        h = row_objectives(l, sp, params)
        assert np.allclose(h, 1.0)
        assert (h >= 2.0 - 2.0 * np.diag(l.l)).all()
        assert check_lower_bounds(l, sp, params, score_total=p / 2)

    def test_fabricated_low_total_fails(self):
        p = 4
        l = CholeskyFactor(np.eye(p))
        assert not check_lower_bounds(l, np.eye(p), McpParams(0.0, 2.0), score_total=-3.0 * p)

    def test_holds_on_solver_output(self, rng):
        from birkdag.scoring import penalized_score

        for _ in range(30):
            p = int(rng.integers(2, 8))
            s = random_covariance(p, 5 * p, rng)
            perm = Permutation(rng.permutation(p))
            params = McpParams(0.2, 2.0)
            est = estimate_cholesky(perm, s, params)
            total = penalized_score(est.l, perm, s, McpParams(0.1, 4.0)).total
            sp = perm.apply_to_matrix(s.s)
            assert check_lower_bounds(est.l, sp, params, total)
            assert total >= -2 * p
