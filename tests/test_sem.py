import numpy as np
import pytest

from birkdag.sem import (
    CholeskyFactor,
    DataMatrix,
    NoiseVariances,
    Permutation,
    SampleCovariance,
    SemInstance,
    WeightedAdjacency,
    adjacency_to_cholesky,
    cholesky_to_adjacency,
    generate_dag,
    sample_covariance,
    sample_data,
)


def make_instance(b, omega2=None, pi=None):
    p = len(b)
    return SemInstance(
        adjacency=WeightedAdjacency(np.array(b, dtype=float)),
        noise=NoiseVariances(np.ones(p) if omega2 is None else np.array(omega2, dtype=float)),
        ordering=Permutation(np.arange(p) if pi is None else np.array(pi)),
    )


class TestTypes:
    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 2]))

    def test_permutation_rejects_scalar(self):
        with pytest.raises(ValueError, match="1-d"):
            Permutation(np.array(0))

    @pytest.mark.parametrize("pi", [[0.5, 1.0], [1.0, 0.2], [0.0, np.nan]])
    def test_permutation_rejects_non_integral_entries(self, pi):
        with pytest.raises(ValueError, match="bijection"):
            Permutation(np.array(pi))

    def test_permutation_accepts_integral_floats(self):
        perm = Permutation(np.array([1.0, 0.0, 2.0]))
        assert perm.pi.dtype.kind == "i"
        assert perm.pi.tolist() == [1, 0, 2]

    def test_permutation_matrix_action(self):
        perm = Permutation(np.array([2, 0, 1]))
        x = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(perm.matrix() @ x, x[perm.pi])

    def test_apply_to_matrix_matches_ix_gather_in_c_order(self):
        # the C order keeps the rounding of sums over the permuted matrix
        rng = np.random.default_rng(4)
        for p in (1, 2, 7, 100):
            a = rng.standard_normal((p, p))
            perm = Permutation(rng.permutation(p))
            got = perm.apply_to_matrix(a)
            assert np.array_equal(got, a[np.ix_(perm.pi, perm.pi)])
            assert np.array_equal(got, perm.matrix() @ a @ perm.matrix().T)
            assert got.flags["C_CONTIGUOUS"]

    def test_permutation_inverse(self):
        perm = Permutation(np.array([2, 0, 3, 1]))
        assert np.array_equal(perm.inverse().pi[perm.pi], np.arange(4))

    def test_adjacency_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            WeightedAdjacency(np.eye(2))

    def test_cholesky_rejects_upper_entries(self):
        m = np.eye(3)
        m[0, 2] = 1e-15
        with pytest.raises(ValueError):
            CholeskyFactor(m)

    def test_cholesky_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            CholeskyFactor(np.diag([1.0, -2.0]))

    def test_instance_rejects_wrong_ordering(self):
        b = np.zeros((3, 3))
        b[0, 1] = 0.5  # edge 1 -> 0, so identity ordering is not topological
        with pytest.raises(ValueError):
            make_instance(b)

    def test_instance_checks_expected_edges(self):
        # the (p, s) rule of generate_dag: an integer in [0, p(p-1)/2]
        b = np.zeros((3, 3))
        assert make_instance(b).expected_edges == 0
        inst = SemInstance(WeightedAdjacency(b), NoiseVariances(np.ones(3)),
                           Permutation.identity(3), np.int64(3))
        assert type(inst.expected_edges) is int and inst.expected_edges == 3
        for bad in (2.5, 2.0, True, -1, 4, "2"):
            with pytest.raises(ValueError, match="expected_edges must be an s that generate_dag"):
                SemInstance(WeightedAdjacency(b), NoiseVariances(np.ones(3)),
                            Permutation.identity(3), bad)

    def test_noise_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            NoiseVariances(np.array([1.0, 0.0]))


class TestGenerateDag:
    def test_zero_edges(self):
        inst = generate_dag(5, 0, np.random.default_rng(0))
        assert np.count_nonzero(inst.adjacency.b) == 0

    def test_complete_when_probability_one(self):
        # s = p(p-1)/2 forces every lower-triangular slot
        inst = generate_dag(3, 3, np.random.default_rng(1))
        b_perm = inst.ordering.apply_to_matrix(inst.adjacency.b)
        assert np.count_nonzero(b_perm) == 3
        assert (b_perm[np.tril_indices(3, -1)] != 0).all()

    def test_mean_edge_count_monte_carlo(self):
        # Binomial(p(p-1)/2, q) with mean s; 500 replicates, 3 standard errors
        p, s, reps = 50, 50, 500
        rng = np.random.default_rng(7)
        counts = [np.count_nonzero(generate_dag(p, s, rng).adjacency.b) for _ in range(reps)]
        q = 2 * s / (p * (p - 1))
        se = np.sqrt(p * (p - 1) / 2 * q * (1 - q) / reps)
        assert abs(np.mean(counts) - s) <= 3 * se
        assert abs(np.mean(counts) - s) <= 5  # coarse absolute band

    def test_weight_law(self):
        rng = np.random.default_rng(3)
        inst = generate_dag(30, 200, rng)
        w = inst.adjacency.b[inst.adjacency.b != 0]
        assert (np.abs(w) >= 0.1).all() and (np.abs(w) <= 1.0).all()
        assert (w > 0).any() and (w < 0).any()

    def test_acyclicity_exact_zeros(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = generate_dag(8, 10, rng)
            b_perm = inst.ordering.apply_to_matrix(inst.adjacency.b)
            assert np.abs(np.triu(b_perm)).max() == 0.0

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_dag(1, 0, rng)
        with pytest.raises(ValueError):
            generate_dag(5, -1, rng)
        with pytest.raises(ValueError):
            generate_dag(5, 11, rng)

    def test_counts_must_be_integers(self):
        # a float s used to pass and be truncated when the instance was read back
        rng = np.random.default_rng(0)
        for p, s, named in ((5, 2.5, "s"), (5.0, 2, "p"), (5, True, "s")):
            with pytest.raises(ValueError, match=f"{named} must be an integer"):
                generate_dag(p, s, rng)


class TestCholeskyMaps:
    def test_identity_case(self):
        inst = make_instance(np.zeros((3, 3)))
        assert np.array_equal(adjacency_to_cholesky(inst).l, np.eye(3))

    def test_two_node_case(self):
        b = np.zeros((2, 2))
        b[1, 0] = 0.5
        l = adjacency_to_cholesky(make_instance(b)).l
        assert np.allclose(l, [[1.0, 0.0], [-0.5, 1.0]])

    def test_inverse_map_values(self):
        l = CholeskyFactor(np.array([[2.0, 0.0], [-1.0, 1.0]]))
        b, omega = cholesky_to_adjacency(l)
        assert np.allclose(omega.omega2, [0.25, 1.0])
        assert b.b[1, 0] == 1.0

    def test_diagonal_factor(self):
        d = np.array([2.0, 0.5, 3.0])
        b, omega = cholesky_to_adjacency(CholeskyFactor(np.diag(d)))
        assert np.count_nonzero(b.b) == 0
        assert np.allclose(omega.omega2, 1.0 / d**2)

    def test_identity_round_trip(self):
        b, omega = cholesky_to_adjacency(CholeskyFactor(np.eye(4)))
        assert np.count_nonzero(b.b) == 0
        assert np.allclose(omega.omega2, 1.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = generate_dag(6, 8, rng)
            l = adjacency_to_cholesky(inst)
            b_perm, omega_perm = cholesky_to_adjacency(l)
            expected_b = inst.ordering.apply_to_matrix(inst.adjacency.b)
            expected_w = inst.noise.omega2[inst.ordering.pi]
            assert np.abs(b_perm.b - expected_b).max() <= 1e-12
            assert np.abs(omega_perm.omega2 - expected_w).max() <= 1e-12

    def test_support_preserved(self):
        rng = np.random.default_rng(6)
        inst = generate_dag(7, 9, rng)
        l = adjacency_to_cholesky(inst)
        b_perm = inst.ordering.apply_to_matrix(inst.adjacency.b)
        assert np.array_equal(l.l[np.tril_indices(7, -1)] != 0, b_perm[np.tril_indices(7, -1)] != 0)

    def test_precision_factorization_identity(self):
        # (L^t L)^{-1} equals (I - B)^{-1} Omega (I - B)^{-t} in the permuted frame
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = generate_dag(6, 7, rng)
            l = adjacency_to_cholesky(inst).l
            b_perm = inst.ordering.apply_to_matrix(inst.adjacency.b)
            omega = np.diag(inst.noise.omega2[inst.ordering.pi])
            inv = np.linalg.inv(np.eye(6) - b_perm)
            sigma = inv @ omega @ inv.T
            assert np.abs(np.linalg.inv(l.T @ l) - sigma).max() <= 1e-8


class TestSampleData:
    def test_identity_model_covariance(self):
        inst = make_instance(np.zeros((4, 4)))
        x = sample_data(inst, 20000, np.random.default_rng(9))
        s = sample_covariance(x).s
        assert np.abs(s - np.eye(4)).max() <= 0.05

    def test_single_row(self):
        inst = make_instance(np.zeros((3, 3)))
        x = sample_data(inst, 1, np.random.default_rng(0))
        assert x.x.shape == (1, 3)
        assert np.isfinite(x.x).all()

    def test_seed_determinism(self):
        inst = generate_dag(5, 4, np.random.default_rng(1))
        a = sample_data(inst, 50, np.random.default_rng(42))
        b = sample_data(inst, 50, np.random.default_rng(42))
        assert np.array_equal(a.x, b.x)

    def test_covariance_matches_model(self):
        # large-n sample covariance approaches P^t (L^t L)^{-1} P
        rng = np.random.default_rng(10)
        inst = generate_dag(4, 3, rng)
        l = adjacency_to_cholesky(inst).l
        pm = inst.ordering.matrix()
        sigma = pm.T @ np.linalg.inv(l.T @ l) @ pm
        x = sample_data(inst, 100000, rng)
        s = sample_covariance(x).s
        assert np.abs(s - sigma).max() <= 0.12

    def test_rejects_bad_n(self):
        inst = make_instance(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sample_data(inst, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_data(inst, 10.0, np.random.default_rng(0))


class TestSampleCovariance:
    def test_orthonormal_rows(self):
        # X with X^t X = n I gives exactly the identity
        x = DataMatrix(np.vstack([np.eye(3)] * 4) * np.sqrt(3.0))
        assert np.allclose(sample_covariance(x).s, np.eye(3))

    def test_rank_one(self):
        v = np.array([[1.0, 2.0, -1.0]])
        s = sample_covariance(DataMatrix(v)).s
        assert np.allclose(s, v.T @ v)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((100, 5))
        s = sample_covariance(DataMatrix(x)).s
        brute = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                brute[i, j] = sum(x[t, i] * x[t, j] for t in range(100)) / 100
        assert np.abs(s - brute).max() <= 1e-12

    def test_spectrum_computed_once(self, monkeypatch):
        # the constructor's PSD test supplies the cached spectrum; a
        # covariance built from data computes it at the first read only
        x = np.random.default_rng(13).standard_normal((40, 5))
        checked = SampleCovariance(x.T @ x / 40)
        from_data = sample_covariance(DataMatrix(x))
        want = np.linalg.eigvalsh(from_data.s)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        for _ in range(3):
            assert np.array_equal(checked.spectrum, real(checked.s))
            assert np.array_equal(from_data.spectrum, want)
        assert len(calls) == 1

    def test_constructor_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            SampleCovariance(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_gram_skips_only_the_eigenvalue_test(self, monkeypatch):
        x = np.random.default_rng(12).standard_normal((40, 6))
        g = x.T @ x / 40
        want = 0.5 * (g + g.T)

        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        s = sample_covariance(DataMatrix(x))
        assert isinstance(s, SampleCovariance)
        assert np.array_equal(s.s, want)
        with pytest.raises(ValueError, match="symmetric"):
            SampleCovariance._of_gram(want + np.triu(np.ones((6, 6)), 1))
        with pytest.raises(ValueError, match="non-positive diagonal"):
            SampleCovariance._of_gram(np.diag([1.0, 0.0]))
        with pytest.raises(AssertionError, match="eigvalsh"):
            SampleCovariance(want)

    def test_zero_variance_column_is_error(self):
        x = np.ones((10, 3))
        x[:, 1] = 0.0
        with pytest.raises(ValueError, match="zero variance"):
            sample_covariance(DataMatrix(x))
