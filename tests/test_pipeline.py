import dataclasses
import functools
import itertools

import numpy as np
import pytest

from birkdag import pipeline, solver
from birkdag.birkhoff import trace_objective
from birkdag.pipeline import RrcfConfig, TuningGrid, fit, score_params, tune
from birkdag.scoring import (
    ConvexityGuardError,
    McpParams,
    ebic,
    neg_log_likelihood,
    penalized_score,
)
from birkdag.sem import (
    CholeskyFactor,
    DataMatrix,
    Permutation,
    SampleCovariance,
    generate_dag,
    sample_covariance,
    sample_data,
)
from birkdag.solver import SolverSettings, estimate_cholesky, estimate_cholesky_path
from conftest import random_covariance


def independent_data(p, n, seed):
    rng = np.random.default_rng(seed)
    return DataMatrix(rng.standard_normal((n, p)))


class TestFit:
    def test_identity_model_recovers_empty_graph(self):
        # no true edges; lambda = 0.15 sits ~3 sigma above the noise scale
        # of the off-diagonal updates (sd ~ 2/sqrt(n)), so every slot is
        # thresholded away with high probability
        hits = 0
        for seed in range(6):
            x = independent_data(5, 2000, 100 + seed)
            cfg = RrcfConfig(mcp=McpParams(0.15, 2.0), seed=seed, outer_k_max=5)
            res = fit(x, cfg)
            if np.count_nonzero(res.b_hat.b) == 0:
                hits += 1
        assert hits >= 5

    def test_single_outer_iteration_trace_length(self):
        # one allowed L-step leaves no room for an ordering step
        x = independent_data(4, 200, 0)
        res = fit(x, RrcfConfig(outer_k_max=1))
        assert len(res.score_trace) == 1 and res.diagnostics["n_outer"] == 0
        assert not res.converged

    def test_converged_fit_skips_the_repeated_l_step(self, monkeypatch):
        # a converged fit stops at the ordering step that returned its
        # incumbent, whose L-step it already holds: one L-step per
        # ordering step
        rng = np.random.default_rng(3)
        x = sample_data(generate_dag(6, 6, rng), 300, rng)
        res = fit(x, RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=8))
        diag = res.diagnostics
        assert res.converged
        assert len(res.score_trace) == diag["n_outer"] >= 1
        for key in ("solver_sweeps_max", "solver_unconverged_rows", "solver_exact_rows"):
            assert len(diag[key]) == len(res.score_trace)
        for key in ("mu", "thresholds", "gp_converged", "gp_iters", "snapped"):
            assert len(diag[key]) == diag["n_outer"]

        # an ordering step that always moves runs the fit into its cap:
        # outer_k_max L-steps with an ordering step between each pair
        real = pipeline.estimate_permutation

        def moving(l, s, cfg, rng, p_init=None, incumbent=None):
            est = real(l, s, cfg, rng, p_init=p_init, incumbent=incumbent)
            return dataclasses.replace(est, perm=Permutation(np.roll(incumbent.pi, 1)))

        monkeypatch.setattr(pipeline, "estimate_permutation", moving)
        capped = fit(x, RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=4))
        diag = capped.diagnostics
        assert not capped.converged
        assert len(capped.score_trace) == 4 == diag["n_outer"] + 1
        for key in ("solver_sweeps_max", "solver_unconverged_rows", "solver_exact_rows"):
            assert len(diag[key]) == 4
        for key in ("mu", "thresholds", "gp_converged", "gp_iters", "snapped"):
            assert len(diag[key]) == 3

    def test_diagonal_seed_factor_cannot_move_the_ordering(self):
        # Under L = diag(1/sqrt(s_{pi0(i)})), fitted to the incumbent pi0,
        # 1/2 tr(L P S P^t L^t) = 1/2 sum_i s_{pi(i)} / s_{pi0(i)} >= p/2
        # by AM-GM, with equality at pi0.  So an ordering step ranked
        # against that factor always keeps its incumbent, and the fit
        # starts with an L-step instead.
        rng = np.random.default_rng(17)
        for p in range(2, 6):
            for _ in range(4):
                s = random_covariance(p, 3 * p, rng)
                d = np.exp(rng.uniform(-2.0, 2.0, p))
                s = SampleCovariance(d[:, None] * s.s * d[None, :])
                for _ in range(3):
                    inc = Permutation(rng.permutation(p))
                    seed = CholeskyFactor(np.diag(1.0 / np.sqrt(np.diag(inc.apply_to_matrix(s.s)))))
                    base = trace_objective(seed, inc, s)
                    assert base == pytest.approx(p / 2, rel=1e-12)
                    for pi in itertools.permutations(range(p)):
                        value = trace_objective(seed, Permutation(np.array(pi)), s)
                        assert value >= base * (1.0 - 1e-12)

    def test_best_iterate_contract(self):
        rng = np.random.default_rng(3)
        inst = generate_dag(6, 6, rng)
        x = sample_data(inst, 300, rng)
        res = fit(x, RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=8))
        best = min(b.total for b in res.score_trace)
        l_best_score = penalized_score(
            res.l_hat, res.perm_hat, sample_covariance(x), score_params(McpParams(0.2, 2.0))
        ).total
        assert l_best_score == pytest.approx(best, abs=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        inst = generate_dag(5, 5, rng)
        x = sample_data(inst, 250, rng)
        cfg = RrcfConfig(mcp=McpParams(0.25, 2.0), seed=11, outer_k_max=6)
        a = fit(x, cfg)
        b = fit(x, cfg)
        assert np.array_equal(a.l_hat.l, b.l_hat.l)
        assert np.array_equal(a.perm_hat.pi, b.perm_hat.pi)
        assert a.ebic_value == b.ebic_value

    def test_l_step_monotone_at_fixed_ordering(self):
        # re-estimating the factor at the returned ordering cannot worsen
        # the penalized score of any other factor at that ordering
        rng = np.random.default_rng(5)
        inst = generate_dag(6, 7, rng)
        x = sample_data(inst, 400, rng)
        s = sample_covariance(x)
        params = McpParams(0.2, 2.0)
        res = fit(x, RrcfConfig(mcp=params, outer_k_max=4))
        perm = res.perm_hat
        before = penalized_score(res.l_hat, perm, s, score_params(params)).total
        refit = estimate_cholesky(perm, s, params)
        after = penalized_score(refit.l, perm, s, score_params(params)).total
        assert after <= before + 1e-8

    def test_b_hat_in_original_frame(self):
        # permuting b_hat by the returned ordering must be strictly lower
        # triangular, and omega_hat matches the factor diagonal
        rng = np.random.default_rng(6)
        inst = generate_dag(6, 8, rng)
        x = sample_data(inst, 400, rng)
        res = fit(x, RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=4))
        b_perm = res.perm_hat.apply_to_matrix(res.b_hat.b)
        assert np.abs(np.triu(b_perm)).max() == 0.0
        omega_perm = res.omega_hat.omega2[res.perm_hat.pi]
        assert np.allclose(omega_perm, 1.0 / np.diag(res.l_hat.l) ** 2)

    def test_ebic_value_matches_formula(self):
        rng = np.random.default_rng(7)
        inst = generate_dag(5, 4, rng)
        x = sample_data(inst, 300, rng)
        cfg = RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=3, gamma_bic=0.5)
        res = fit(x, cfg)
        s = sample_covariance(x)
        nll = neg_log_likelihood(res.l_hat, res.perm_hat, s)
        expected = ebic(x.n * nll, res.l_hat.support_size(), x.n, x.p, 0.5)
        assert res.ebic_value == pytest.approx(expected)

    def test_structure_recovery_large_n(self):
        # Tuned lambda at n = 10000, p = 5, s = 4.  Exact directed recovery
        # on every seed is not attainable by any minimizer of the penalized
        # score here: edge weights are drawn down to |b| = 0.1, and
        # reversing such a weak covered edge keeps the fit inside the same
        # Gaussian equivalence class, so the exhaustive 120-permutation
        # scan of the score puts its global optimum at SHD > 0 on 8 of
        # these 20 seeds.  The bar is set at that oracle ceiling (12/20);
        # the variance-anchored pipeline clears it (14/20 measured).
        from birkdag.metrics import extract_edges, structure_metrics

        hits = 0
        shds = []
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            inst = generate_dag(5, 4, rng)
            x = sample_data(inst, 10000, rng)
            best, _ = tune(x, TuningGrid(lambdas=(0.1, 0.2, 0.4), gammas=(2.0,)))
            res = fit(x, RrcfConfig(mcp=McpParams(best["lam"], best["gamma"]), outer_k_max=10))
            _, _, shd = structure_metrics(
                extract_edges(res.b_hat), extract_edges(inst.adjacency)
            )
            shds.append(shd)
            if shd == 0:
                hits += 1
        assert hits >= 12, shds
        assert max(shds) <= 6

    def test_explicit_mu_is_honoured(self):
        rng = np.random.default_rng(3)
        x = sample_data(generate_dag(12, 12, rng), 60, rng)
        res = fit(x, RrcfConfig(mu=0.3, outer_k_max=3))
        n_outer = res.diagnostics["n_outer"]
        assert n_outer >= 1
        assert res.diagnostics["mu"] == [0.3] * n_outer

    def test_automatic_mu_is_centered_threshold(self):
        rng = np.random.default_rng(3)
        x = sample_data(generate_dag(12, 12, rng), 60, rng)
        diag = fit(x, RrcfConfig(outer_k_max=3)).diagnostics
        assert len(diag["thresholds"]) == diag["n_outer"]
        assert diag["mu"] == [max(t[1], 0.0) for t in diag["thresholds"]]

    @pytest.mark.parametrize("mu", [-1.0, float("nan"), float("inf")])
    def test_rejects_invalid_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be a nonnegative real"):
            RrcfConfig(mu=mu)

    def test_counts_must_be_integers(self):
        for field in ("outer_k_max", "seed"):
            for bad in (3.0, 2.5, True, np.bool_(True), "3"):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    RrcfConfig(**{field: bad})
        cfg = RrcfConfig(outer_k_max=np.int64(3), seed=np.int32(7))
        assert type(cfg.outer_k_max) is int and type(cfg.seed) is int

    def test_unconverged_solver_rows_reported(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = sample_data(generate_dag(6, 6, rng), 200, rng)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "estimate_cholesky",
                      functools.partial(estimate_cholesky, settings=SolverSettings(k_max=1)))
            capped = fit(x, RrcfConfig(outer_k_max=3))
        rows = capped.diagnostics["solver_unconverged_rows"]
        assert len(rows) == len(capped.score_trace) >= 1
        assert all(0 < k <= 5 for k in rows)
        default = fit(x, RrcfConfig(outer_k_max=3))
        assert default.diagnostics["solver_unconverged_rows"] == [0] * len(default.score_trace)

    def test_exact_rows_reported(self, monkeypatch):
        # each L-step reports how many rows its exact steps stopped
        accepted = []
        exact_step, lstep = solver._exact_step, pipeline.estimate_cholesky

        def exact_counted(*args):
            on = exact_step(*args)
            accepted[-1] += len(on)
            return on

        def lstep_counted(*args):
            accepted.append(0)
            est = lstep(*args)
            assert np.count_nonzero(est.exact) == accepted[-1]
            assert est.converged[est.exact].all()
            assert (est.sweeps[est.exact] % solver.EXACT_EVERY == 0).all()
            return est

        monkeypatch.setattr(solver, "_exact_step", exact_counted)
        monkeypatch.setattr(pipeline, "estimate_cholesky", lstep_counted)
        rng = np.random.default_rng(9)
        x = sample_data(generate_dag(40, 40, rng), 80, rng)
        res = fit(x, RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=3))
        assert res.diagnostics["solver_exact_rows"] == accepted
        assert len(accepted) == len(res.score_trace) and sum(accepted) > 0

    def test_rejects_single_variable(self):
        with pytest.raises(ValueError):
            fit(DataMatrix(np.random.default_rng(0).standard_normal((50, 1))))

    def test_mcp_must_be_mcp_params(self):
        for bad in ((0.2, 2.0), {"lam": 0.2, "gamma": 2.0}, None):
            with pytest.raises(ValueError, match="mcp must be an McpParams"):
                RrcfConfig(mcp=bad)

    def test_the_second_l_step_runs_at_the_moved_ordering(self, monkeypatch):
        # standardized p = 6 data on which the first ordering step leaves
        # the variance sort and the second keeps the new ordering
        rng = np.random.default_rng(19)
        p = int(rng.integers(4, 8))
        x = sample_data(generate_dag(p, p, rng), 60, rng).x
        x = DataMatrix(x / x.std(axis=0))
        orders = []

        def recording_lstep(order, s, params):
            orders.append(order)
            return estimate_cholesky(order, s, params)

        monkeypatch.setattr(pipeline, "estimate_cholesky", recording_lstep)
        res = fit(x, RrcfConfig(mcp=McpParams(0.5, 3.0), seed=19))
        diag = res.diagnostics
        assert res.converged and diag["n_outer"] == 2 == len(res.score_trace) == len(orders)
        assert not np.array_equal(orders[1].pi, orders[0].pi)
        assert np.array_equal(res.perm_hat.pi, orders[1].pi)
        assert res.score_trace[1].total < res.score_trace[0].total
        for key in ("solver_sweeps_max", "solver_unconverged_rows", "solver_exact_rows"):
            assert len(diag[key]) == len(res.score_trace)
        for key in ("mu", "thresholds", "gp_converged", "gp_iters", "snapped"):
            assert len(diag[key]) == diag["n_outer"]


class TestOrderingStep:
    def test_moves_a_scrambled_incumbent_to_a_lower_trace(self):
        # L fitted at the true ordering ranks a scrambled incumbent far
        # above the truth, and the step finds a better ordering
        for seed in range(3):
            rng = np.random.default_rng(seed)
            inst = generate_dag(8, 8, rng)
            s = sample_covariance(sample_data(inst, 200, rng))
            l = estimate_cholesky(inst.ordering, s, McpParams(0.2, 2.0)).l
            incumbent = Permutation(rng.permutation(8))
            rec = pipeline._ordering_step(l, incumbent, s, None, rng)
            assert not np.array_equal(rec["perm"].pi, incumbent.pi)
            assert trace_objective(l, rec["perm"], s) < trace_objective(l, incumbent, s)
            thresholds = pipeline.convexity_thresholds(l, s)
            assert rec["thresholds"] == thresholds and rec["mu"] == max(thresholds[1], 0.0)
            assert list(rec) == ["perm", "mu", "thresholds", "gp_converged", "gp_iters", "snapped"]

    def test_explicit_mu_and_the_incumbent_reach_the_estimate(self, monkeypatch):
        calls = []
        real = pipeline.estimate_permutation

        def recording(l, s, cfg, rng, p_init, incumbent):
            calls.append((cfg, p_init, incumbent))
            return real(l, s, cfg, rng, p_init=p_init, incumbent=incumbent)

        monkeypatch.setattr(pipeline, "estimate_permutation", recording)
        rng = np.random.default_rng(4)
        s = random_covariance(5, 40, rng)
        l = estimate_cholesky(Permutation.identity(5), s, McpParams(0.2, 2.0)).l
        incumbent = Permutation(np.array([3, 1, 4, 0, 2]))
        rec = pipeline._ordering_step(l, incumbent, s, 0.7, rng)
        (cfg, p_init, inc), = calls
        assert rec["mu"] == cfg.mu == 0.7 and inc is incumbent
        center = np.full((5, 5), 1.0 / 5)
        want = pipeline.ANCHOR * incumbent.matrix() + (1.0 - pipeline.ANCHOR) * center
        assert np.array_equal(p_init.m, want)


class TestTune:
    def test_single_point_grid(self):
        x = independent_data(4, 200, 1)
        best, table = tune(x, TuningGrid(lambdas=(0.3,), gammas=(2.5,)))
        assert best["lam"] == 0.3 and best["gamma"] == 2.5
        assert len(table) == 1

    def test_larger_lambda_wins_on_independent_data(self):
        # with no true edges, the sparser fit has the lower eBIC
        x = independent_data(6, 400, 2)
        best, table = tune(x, TuningGrid(lambdas=(0.05, 0.6), gammas=(2.0,)))
        assert best["lam"] == 0.6
        assert table[0]["support"] > 0 or table[0]["ebic"] >= table[1]["ebic"]

    def test_gamma_bic_column_shift(self):
        # for a fixed fit, moving gamma_bic from 0 to 0.5 adds 2 s log p
        x = independent_data(5, 150, 3)
        grid0 = TuningGrid(lambdas=(0.1,), gammas=(2.0,), gamma_bic=0.0)
        grid5 = TuningGrid(lambdas=(0.1,), gammas=(2.0,), gamma_bic=0.5)
        b0, _ = tune(x, grid0)
        b5, _ = tune(x, grid5)
        s = b0["support"]
        assert b5["support"] == s
        assert b5["ebic"] - b0["ebic"] == pytest.approx(2 * s * np.log(5))

    def test_grid_values_are_checked_reals(self):
        # a bool used to pass as the number 1
        for field, bad in (("lambdas", (True,)), ("gammas", ("2.0",)), ("lambdas", (np.nan,))):
            with pytest.raises(ValueError, match=f"{field} must hold finite reals"):
                TuningGrid(**{field: bad})
        with pytest.raises(ValueError, match="gamma_bic must lie in"):
            TuningGrid(gamma_bic=True)
        grid = TuningGrid(lambdas=[1, np.float32(0.5)], gammas=[np.int64(3)])
        assert grid.lambdas == (1.0, 0.5) and grid.gammas == (3.0,)
        assert all(type(v) is float for v in (*grid.lambdas, *grid.gammas))

    def test_lexicographic_tie_break(self):
        # two identical cells tie; the first in grid order wins
        x = independent_data(4, 100, 4)
        best, table = tune(x, TuningGrid(lambdas=(0.2, 0.2), gammas=(2.0,)))
        assert table[0]["ebic"] == table[1]["ebic"]
        assert best is table[0] or best == table[0]

    def test_cells_run_no_ordering_step(self, monkeypatch):
        # each cell is one L-step at the initial ordering
        def refuse(*args, **kwargs):
            raise AssertionError("tune ran an ordering step")

        monkeypatch.setattr(pipeline, "estimate_permutation", refuse)
        best, table = tune(independent_data(5, 200, 5), TuningGrid(lambdas=(0.1, 0.3), gammas=(2.0,)))
        assert len(table) == 2 and best in table

    def test_table_matches_per_cell_fits(self):
        grid = TuningGrid(lambdas=(0.0, 0.2, 0.5), gammas=(2.0, 3.0), gamma_bic=0.5)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = sample_data(generate_dag(15, 15, rng), 80, rng)
            _, table = tune(x, grid)
            for row in table:
                cfg = RrcfConfig(mcp=McpParams(row["lam"], row["gamma"]), seed=seed,
                                 outer_k_max=1, gamma_bic=grid.gamma_bic)
                res = fit(x, cfg)
                assert row["ebic"] == res.ebic_value
                assert row["support"] == res.l_hat.support_size()
                assert row["sweeps_max"] == res.diagnostics["solver_sweeps_max"][0]
                assert row["unconverged_rows"] == res.diagnostics["solver_unconverged_rows"][0]

    def test_capped_cells_are_reported(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = sample_data(generate_dag(6, 6, rng), 200, rng)
        grid = TuningGrid(lambdas=(0.1, 0.4), gammas=(2.0,))
        with monkeypatch.context() as m:
            m.setattr(pipeline, "estimate_cholesky_path",
                      functools.partial(estimate_cholesky_path, settings=SolverSettings(k_max=1)))
            _, capped = tune(x, grid)
        assert all(row["sweeps_max"] == 1 and 0 < row["unconverged_rows"] <= 5 for row in capped)
        _, default = tune(x, grid)
        assert all(row["sweeps_max"] > 1 and row["unconverged_rows"] == 0 for row in default)

    def test_cells_are_mcp_params_in_lexicographic_order(self):
        grid = TuningGrid(lambdas=(0.4, 0.1), gammas=(3.0, 2.0))
        assert grid.cells() == [
            McpParams(0.4, 3.0), McpParams(0.4, 2.0), McpParams(0.1, 3.0), McpParams(0.1, 2.0)
        ]

    def test_rows_carry_the_cell_parameters(self):
        grid = TuningGrid(lambdas=(0.1, 0.3), gammas=(2.0, 2.5))
        _, table = tune(independent_data(4, 150, 9), grid)
        assert [McpParams(row["lam"], row["gamma"]) for row in table] == grid.cells()

    def test_init_selects_the_ordering(self):
        # a v-structure 0 -> 2 <- 1 with variances about 9, 4 and 3.3:
        # the variance sort reverses the input order, and the reversed
        # ordering is not Markov equivalent, so the two starts score
        # differently
        rng = np.random.default_rng(10)
        x = DataMatrix(rng.standard_normal((400, 3)) @ np.array(
            [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.5, 1.0, 0.3]]).T)
        grid = TuningGrid(lambdas=(0.1,), gammas=(2.0,))
        _, by_variance = tune(x, grid)
        _, by_identity = tune(x, grid, init="identity")
        assert by_variance == tune(x, grid, init="variance")[1]
        assert by_variance[0]["ebic"] != by_identity[0]["ebic"]

    def test_rejects_unknown_init(self):
        x = independent_data(4, 100, 7)
        with pytest.raises(ValueError, match="init must be 'variance' or 'identity'"):
            tune(x, TuningGrid(lambdas=(0.2,), gammas=(2.0,)), init="bogus")

    def test_rejects_a_positional_config(self):
        # tune reads only init, which is keyword-only
        x = independent_data(4, 100, 7)
        with pytest.raises(TypeError):
            tune(x, TuningGrid(lambdas=(0.2,), gammas=(2.0,)), RrcfConfig())

    def test_guard_error_names_the_first_bad_cell(self):
        # tune raises only when no cell passes the guard (about 50 here)
        x = independent_data(4, 200, 6)
        x = DataMatrix(x.x * np.array([0.1, 1.0, 1.0, 1.0]))
        with pytest.raises(ConvexityGuardError) as one_cell:
            fit(x, RrcfConfig(mcp=McpParams(0.2, 2.0), outer_k_max=1))
        with pytest.raises(ConvexityGuardError) as grid:
            tune(x, TuningGrid(lambdas=(0.2,), gammas=(2.0, 1.5)))
        assert str(grid.value) == str(one_cell.value)
        best, table = tune(x, TuningGrid(lambdas=(0.2,), gammas=(100.0, 2.0, 1.5)))
        assert best is table[0]
        assert [row["status"] for row in table] == ["ok", "guard", "guard"]
        assert table[1]["error"] == str(one_cell.value)

    def test_a_cell_failing_the_guard_leaves_the_others(self, monkeypatch):
        # gamma 2 is below this data's guard of 5.857; gamma 10 is above it
        rng = np.random.default_rng(0)
        x = 0.3 * sample_data(generate_dag(10, 10, rng), 200, rng).x
        solves = []

        def recording(perm, s, cells, *args, **kwargs):
            out = estimate_cholesky_path(perm, s, cells, *args, **kwargs)
            solves.append((list(cells), out))
            return out

        monkeypatch.setattr(pipeline, "estimate_cholesky_path", recording)
        best, table = tune(x, TuningGrid(lambdas=(0.2, 0.3), gammas=(2.0, 10.0)))
        alone, alone_table = tune(x, TuningGrid(lambdas=(0.2, 0.3), gammas=(10.0,)))
        assert best["gamma"] == 10.0 and best == alone
        assert [row["status"] for row in table] == ["guard", "ok", "guard", "ok"]
        assert [table[1], table[3]] == alone_table
        for row in (table[0], table[2]):
            assert [row[k] for k in ("ebic", "support", "sweeps_max", "unconverged_rows")] == [
                None] * 4
            assert row["error"].startswith("gamma=2.0 must exceed max(1/(2 min S^P_ii), 1) = 5.857")
        (mixed_cells, mixed), (alone_cells, solo) = solves
        assert mixed_cells == alone_cells == [McpParams(0.2, 10.0), McpParams(0.3, 10.0)]
        for a, b in zip(mixed, solo):
            assert np.array_equal(a.l.l, b.l.l) and np.array_equal(a.sweeps, b.sweeps)

    @pytest.mark.parametrize("p, s, seed", [(30, 30, 11), (100, 100, 12)])
    def test_the_selected_cell_is_the_first_l_step_of_its_fit(self, monkeypatch, p, s, seed):
        # a fit at tune's selected cell re-solves, bit for bit, the factor
        # tune already has: the hand-off of ROADMAP item 14 loses nothing
        rng = np.random.default_rng(seed)
        x = sample_data(generate_dag(p, s, rng), 150, rng)
        solved = []

        def recording(perm, s, cells, *args, **kwargs):
            out = estimate_cholesky_path(perm, s, cells, *args, **kwargs)
            solved.extend(zip(cells, out))
            return out

        monkeypatch.setattr(pipeline, "estimate_cholesky_path", recording)
        best, _ = tune(x, TuningGrid(lambdas=(0.3, 0.4, 0.5, 0.6, 0.7)))
        cell = McpParams(best["lam"], best["gamma"])
        factor = dict(solved)[cell].l.l
        res = fit(x, RrcfConfig(mcp=cell, outer_k_max=1))
        assert np.array_equal(res.l_hat.l, factor)


def test_public_names_resolve():
    import birkdag

    assert len(set(birkdag.__all__)) == len(birkdag.__all__)
    for name in birkdag.__all__:
        assert getattr(birkdag, name) is not None
