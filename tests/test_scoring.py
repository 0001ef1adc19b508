import numpy as np
import pytest

from birkdag.scoring import (
    ConvexityGuardError,
    McpParams,
    ebic,
    mcp,
    neg_log_likelihood,
    penalized_score,
)
from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance

from conftest import random_cholesky, random_covariance, ul_cholesky


def identity_setup(p):
    return CholeskyFactor(np.eye(p)), Permutation.identity(p), SampleCovariance(np.eye(p))


class TestMcp:
    def test_zero(self):
        assert mcp(0.0, McpParams(1.0, 2.0)) == 0.0

    def test_flat_branch(self):
        # |theta| >= gamma lambda: value is gamma lambda^2 / 2
        assert mcp(3.0, McpParams(1.0, 2.0)) == 1.0

    def test_inner_branch(self):
        assert mcp(1.0, McpParams(1.0, 2.0)) == 0.75

    def test_symmetry(self):
        params = McpParams(0.7, 3.0)
        t = np.linspace(-5, 5, 101)
        assert np.array_equal(mcp(t, params), mcp(-t, params))

    def test_continuity_at_knot(self):
        params = McpParams(0.8, 2.5)
        knot = params.gamma * params.lam
        inner = params.lam * knot - knot**2 / (2 * params.gamma)
        flat = 0.5 * params.gamma * params.lam**2
        assert abs(inner - flat) <= 1e-14
        assert abs(mcp(knot - 1e-12, params) - mcp(knot, params)) <= 1e-12

    def test_nondecreasing_and_bounded(self):
        params = McpParams(0.5, 4.0)
        t = np.linspace(0, 10, 2001)
        v = mcp(t, params)
        assert (np.diff(v) >= -1e-15).all()
        assert v.max() <= 0.5 * params.gamma * params.lam**2 + 1e-15

    def test_parameter_domain(self):
        # a finite gamma <= 1 is a guard violation; anything else invalid
        # is a plain ValueError
        for lam, gamma in ((-0.1, 2.0), (np.nan, 2.0), (np.inf, 2.0), (0.1, np.nan), (0.1, np.inf)):
            with pytest.raises(ValueError) as exc:
                McpParams(lam, gamma)
            assert type(exc.value) is ValueError
        # strings and bools used to end in a bare TypeError, or pass
        for lam, gamma, named in (("0.3", 2.0, "lambda"), (True, 2.0, "lambda"),
                                  (0.3, "2", "gamma"), (0.3, True, "gamma")):
            with pytest.raises(ValueError, match=named) as exc:
                McpParams(lam, gamma)
            assert type(exc.value) is ValueError
        for gamma in (1.0, 0.5, -3.0):
            with pytest.raises(ConvexityGuardError, match="gamma must exceed 1"):
                McpParams(0.1, gamma)


class TestNegLogLikelihood:
    def test_identity(self):
        l, perm, s = identity_setup(4)
        assert neg_log_likelihood(l, perm, s) == pytest.approx(2.0)

    def test_scalar_case(self):
        l = CholeskyFactor(np.array([[2.0]]))
        val = neg_log_likelihood(l, Permutation.identity(1), SampleCovariance(np.array([[1.0]])))
        assert val == pytest.approx(2.0 - np.log(2.0))

    def test_mle_value_permutation_invariant(self, rng):
        # maximized likelihood is the same for every ordering
        p, n = 6, 60
        s = random_covariance(p, n, rng)
        vals = []
        for _ in range(8):
            perm = Permutation(rng.permutation(p))
            sp = perm.apply_to_matrix(s.s)
            l_hat = CholeskyFactor(ul_cholesky(np.linalg.inv(sp)))
            vals.append(neg_log_likelihood(l_hat, Permutation.identity(p), SampleCovariance(sp)))
        assert max(vals) - min(vals) <= 1e-8

    def test_mle_closed_form_value(self, rng):
        # at the exact factorization the value is p/2 + log det(S)/2
        p = 5
        s = random_covariance(p, 40, rng)
        l_hat = CholeskyFactor(ul_cholesky(np.linalg.inv(s.s)))
        expected = 0.5 * p + 0.5 * np.log(np.linalg.det(s.s))
        assert neg_log_likelihood(l_hat, Permutation.identity(p), s) == pytest.approx(expected, abs=1e-9)

    def test_rejects_dimension_mismatch(self):
        l = CholeskyFactor(np.eye(3))
        with pytest.raises(ValueError):
            neg_log_likelihood(l, Permutation.identity(3), SampleCovariance(np.eye(4)))


class TestPenalizedScore:
    def test_lambda_zero_is_pure_likelihood(self, rng):
        l = random_cholesky(5, rng)
        s = random_covariance(5, 30, rng)
        perm = Permutation.identity(5)
        br = penalized_score(l, perm, s, McpParams(0.0, 2.0))
        assert br.penalty == 0.0
        assert br.total == neg_log_likelihood(l, perm, s)

    def test_identity_factor_has_no_penalty(self):
        l, perm, s = identity_setup(4)
        br = penalized_score(l, perm, s, McpParams(5.0, 2.0))
        assert br.penalty == 0.0

    def test_nested_loop_oracle(self, rng):
        l = random_cholesky(3, rng)
        s = random_covariance(3, 20, rng)
        perm = Permutation(np.array([2, 0, 1]))
        params = McpParams(0.4, 2.5)
        sp = perm.apply_to_matrix(s.s)
        quad = 0.0
        for i in range(3):
            for j in range(3):
                quad += sp[i, j] * sum(l.l[k, i] * l.l[k, j] for k in range(3))
        expected = 0.5 * quad - sum(np.log(l.l[i, i]) for i in range(3))
        for i in range(3):
            for j in range(i):
                expected += float(mcp(l.l[i, j], params))
        br = penalized_score(l, perm, s, params)
        assert abs(br.total - expected) <= 1e-12
        assert abs(br.total - (br.nll + br.penalty)) <= 1e-12

    def test_invariant_under_joint_relabeling(self, rng):
        # the score depends on S and P only through P S P^t
        p = 5
        l = random_cholesky(p, rng)
        s = random_covariance(p, 30, rng)
        perm = Permutation(rng.permutation(p))
        params = McpParams(0.3, 2.0)
        q = Permutation(rng.permutation(p))
        s2 = SampleCovariance(q.apply_to_matrix(s.s))
        # find perm2 with perm2 applied to s2 equal to perm applied to s
        m2 = perm.matrix() @ q.matrix().T
        perm2 = Permutation(np.argmax(m2, axis=1))
        a = penalized_score(l, perm, s, params).total
        b = penalized_score(l, perm2, s2, params).total
        assert abs(a - b) <= 1e-12


class TestEbic:
    def test_zero_support(self):
        assert ebic(12.5, 0, 100, 10, 0.5) == pytest.approx(25.0)

    def test_classical_bic_at_gamma_zero(self):
        # gamma_bic = 0 drops the extended term entirely
        assert ebic(10.0, 3, 50, 8, 0.0) == pytest.approx(20.0 + 3 * np.log(50))

    def test_hand_arithmetic(self):
        # Ln = -50, s = 3, n = 100, p = 10, gamma = 0.5
        val = ebic(50.0, 3, 100, 10, 0.5)
        assert val == pytest.approx(100 + 3 * np.log(100) + 6 * np.log(10))
        assert val == pytest.approx(127.6310211159285, abs=1e-3)

    def test_monotone_in_gamma_bic(self):
        base = ebic(5.0, 4, 100, 20, 0.0)
        for g in (0.1, 0.5, 1.0):
            assert ebic(5.0, 4, 100, 20, g) >= base
        # each gamma_bic increment of 0.5 adds exactly 2 s log p
        assert ebic(5.0, 4, 100, 20, 0.5) - base == pytest.approx(2 * 4 * np.log(20))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ebic(1.0, 0, 10, 5, 1.5)
        for bad in (float("nan"), "0.5", True):
            with pytest.raises(ValueError, match="gamma_bic must lie in"):
                ebic(1.0, 0, 10, 5, bad)
        # a fractional n used to pass into the log n term
        with pytest.raises(ValueError, match="n must be an integer"):
            ebic(1.0, 2, 10.5, 5, 0.5)
        with pytest.raises(ValueError):
            ebic(1.0, -1, 10, 5, 0.5)
