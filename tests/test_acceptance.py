"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite takes a few minutes, dominated by the benchmark
replication criterion.
"""

import itertools
import json
import time

import numpy as np
import pytest

from birkdag.birkhoff import (
    DoublyStochastic,
    RelaxationConfig,
    convexity_thresholds,
    gradient_projection,
    project_to_birkhoff,
    relaxed_gradient,
    relaxed_objective,
    round_hungarian,
    sample_permutations,
)
from birkdag.cli import main as cli_main
from birkdag.metrics import BenchmarkSpec, run_benchmark
from birkdag.pipeline import RrcfConfig, TuningGrid, fit, score_params, tune
from birkdag.scoring import McpParams, ebic, neg_log_likelihood, penalized_score
from birkdag.sem import (
    CholeskyFactor,
    DataMatrix,
    Permutation,
    SampleCovariance,
    generate_dag,
    sample_covariance,
    sample_data,
)
from birkdag.solver import SolverSettings, estimate_cholesky, row_objectives

from conftest import (
    DescentLog,
    coordinate_update,
    descend_row,
    random_cholesky,
    random_covariance,
    row_objective,
    ul_cholesky,
)


def report(num, detail):
    print(f"\n[criterion {num:2d}] PASS — {detail}")


def random_ds(p, rng, k=6):
    w = rng.dirichlet(np.ones(k))
    m = np.zeros((p, p))
    for wi in w:
        m[np.arange(p), rng.permutation(p)] += wi
    return m


def test_criterion_01_projection_correctness():
    """1000 random projections: gap <= 1e-8, feasibility, idempotence, < 10 s."""
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_idem = 0.0
    for trial in range(1000):
        p = int(rng.integers(2, 21))
        if trial % 10 == 0:
            p0 = random_ds(p, rng)  # already-feasible inputs: idempotence
            res = project_to_birkhoff(p0, eps=2e-9)
            worst_idem = max(worst_idem, float(np.abs(res.ds.m - p0).max()))
        else:
            p0 = rng.standard_normal((p, p))
            res = project_to_birkhoff(p0, eps=2e-9)
        assert res.converged
        assert res.gap <= 1e-8
        m = res.ds.m
        assert m.min() >= -1e-8
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-8
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-8
        worst_gap = max(worst_gap, res.gap)
    elapsed = time.perf_counter() - t0
    assert worst_idem <= 1e-8
    assert elapsed < 10.0
    report(1, f"1000 projections in {elapsed:.1f}s; worst gap {worst_gap:.1e}, "
              f"worst idempotence error {worst_idem:.1e}")


def test_criterion_02_frobenius_norm_bounds():
    """1 <= ||P||_F <= sqrt(p) on 1000 random convex combinations; ends exact."""
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p = int(rng.integers(2, 13))
        nrm = float(np.linalg.norm(random_ds(p, rng)))
        assert 1.0 - 1e-9 <= nrm <= np.sqrt(p) + 1e-9
    for p in range(2, 13):
        assert abs(np.linalg.norm(np.full((p, p), 1.0 / p)) - 1.0) <= 1e-14
        perm = np.eye(p)[np.random.default_rng(p).permutation(p)]
        assert np.linalg.norm(perm) == np.sqrt(p)
    report(2, "1000 convex combinations inside [1, sqrt(p)]; center and "
              "vertex norms exact")


def test_criterion_03_center_optimum_mu_zero():
    """mu = 0, L = c I, n > p: gradient projection lands on J/p within 1e-4."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 11))
        s = random_covariance(p, 3 * p + 5, rng)
        c = float(rng.uniform(0.5, 2.0))
        start = project_to_birkhoff(
            np.eye(p)[rng.permutation(p)] + 0.3 * rng.standard_normal((p, p))
        ).ds
        cfg = RelaxationConfig(mu=0.0, eps=1e-9, k_max=5000)
        res = gradient_projection(CholeskyFactor(c * np.eye(p)), s, cfg, start)
        worst = max(worst, float(np.linalg.norm(res.ds.m - 1.0 / p)))
    assert worst <= 1e-4
    report(3, f"50 runs; worst distance to the polytope center {worst:.1e}")


def test_criterion_04_concave_regime_vertex():
    """mu = 1.1 lambda_max lambda_max: output snaps to a permutation >= 45/50."""
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(50):
        p = int(rng.integers(3, 9))
        s = random_covariance(p, 3 * p, rng)
        l = random_cholesky(p, rng)
        _, _, concave = convexity_thresholds(l, s)
        cfg = RelaxationConfig(mu=1.1 * concave, eps=1e-10, k_max=3000)
        res = gradient_projection(l, s, cfg, DoublyStochastic.center(p))
        r = np.rint(res.ds.m)
        if (
            (r.sum(axis=0) == 1.0).all()
            and (r.sum(axis=1) == 1.0).all()
            and r.min() == 0.0
            and np.abs(res.ds.m - r).max() < 1e-3
        ):
            hits += 1
    assert hits >= 45
    report(4, f"vertex snap on {hits}/50 concave instances")


def test_criterion_05_mle_permutation_invariance():
    """Maximized likelihood agrees across 20 orderings, 20 datasets, 1e-8."""
    rng = np.random.default_rng(5)
    p, n = 10, 200
    worst = 0.0
    for _ in range(20):
        s = random_covariance(p, n, rng)
        vals = []
        for _ in range(20):
            perm = Permutation(rng.permutation(p))
            sp = perm.apply_to_matrix(s.s)
            l_hat = CholeskyFactor(ul_cholesky(np.linalg.inv(sp)))
            vals.append(
                neg_log_likelihood(l_hat, Permutation.identity(p), SampleCovariance(sp))
            )
        worst = max(worst, max(vals) - min(vals))
    assert worst <= 1e-8
    report(5, f"20 datasets x 20 orderings; worst value spread {worst:.1e}")


def test_criterion_06_coordinate_descent_properties(monkeypatch):
    """Monotone steps, fixed points, global bound, grid oracle at k <= 4.

    Each subproblem is the last row of ``estimate_cholesky`` at the
    identity ordering on its block; only the polishing of the grid start
    points runs the serial reference ``descend_row``.
    """
    rng = np.random.default_rng(6)
    n_oracle = 0
    oracle_hits = 0
    settings = SolverSettings(eps=1e-11, k_max=3000)
    log = DescentLog(monkeypatch)
    for trial in range(200):
        k = int(rng.integers(2, 11))
        g = rng.standard_normal((k + 4, k))
        a = g.T @ g / (k + 4)
        gamma = max(2.0, 1.2 / (2.0 * np.diag(a).min()))
        params = McpParams(0.15, gamma)
        perm, s = Permutation.identity(k), SampleCovariance(a)
        # converged fixed point, reached by steps that each leave every
        # row's h no higher (checked after the loop)
        est = estimate_cholesky(perm, s, params, settings)
        assert est.converged[-1]
        x = est.l.l[-1]
        for j in range(k):
            assert abs(coordinate_update(a, x, j, params) - x[j]) <= 1e-8
        h = row_objectives(est.l, a, params)[-1]
        assert h >= -2 * k  # decoupled objective stays above -2p
        if k <= 4:
            n_oracle += 1
            span = max(1.5, 1.5 * np.abs(x).max())
            vals = np.linspace(-span, span, 5)
            dvals = np.linspace(0.1, span, 4)
            best = np.inf
            for combo in itertools.product(*([vals] * (k - 1) + [dvals])):
                xo, *_ = descend_row(a, params, np.array(combo), SolverSettings(k_max=400))
                best = min(best, row_objective(a, xo, params))
            if h <= best + 1e-6:
                oracle_hits += 1
    log.assert_descends()
    steps = sum(log.kinds.values()) - log.kinds["start"]
    assert len(log.solves) == 200 and log.kinds["block"] > 0 and log.jumped > 0
    # full-factor global lower bound on random instances
    for _ in range(25):
        p = int(rng.integers(2, 9))
        s = random_covariance(p, 4 * p, rng)
        perm = Permutation(rng.permutation(p))
        params = McpParams(0.2, 2.0)
        est = estimate_cholesky(perm, s, params)
        sp = perm.apply_to_matrix(s.s)
        assert row_objectives(est.l, sp, params).sum() >= -2 * p
        assert penalized_score(est.l, perm, s, score_params(params)).total >= -2 * p
    assert oracle_hits >= 0.95 * n_oracle
    report(6, f"200 subproblems monotone over {steps} steps with exact fixed points; grid oracle "
              f"matched on {oracle_hits}/{n_oracle} (k <= 4); bound >= -2p held")


def test_criterion_07_gradient_checks():
    """The relaxed objective's gradient in P matches central finite
    differences, rel err <= 1e-6."""
    rng = np.random.default_rng(7)
    worst = 0.0
    h = 1e-5
    for trial in range(50):
        p = int(rng.integers(2, 9))
        s = random_covariance(p, 5 * p, rng)
        l = random_cholesky(p, rng)
        cfg = RelaxationConfig(mu=0.7)
        m = random_ds(p, rng)
        gp = relaxed_gradient(m, l, s, cfg)
        for i in range(p):
            for j in range(p):
                mp, mm = m.copy(), m.copy()
                mp[i, j] += h
                mm[i, j] -= h
                fd = (relaxed_objective(mp, l, s, cfg) - relaxed_objective(mm, l, s, cfg)) / (2 * h)
                err = abs(fd - gp[i, j]) / max(1.0, abs(gp[i, j]))
                worst = max(worst, err)
    assert worst <= 1e-6
    report(7, f"50 instances, relaxed gradient; worst relative error {worst:.1e}")


def test_criterion_08_small_instance_permutation_oracle():
    """p = 4: final score within 1% of the 24-permutation oracle, >= 16/20."""
    t0 = time.perf_counter()
    lam, gam = 0.2, 2.0
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        inst = generate_dag(4, 3, rng)
        x = sample_data(inst, 500, rng)
        res = fit(x, RrcfConfig(mcp=McpParams(lam, gam), seed=seed, outer_k_max=12))
        s = sample_covariance(x)
        oracle = min(
            penalized_score(
                estimate_cholesky(Permutation(np.array(pp)), s, McpParams(lam, gam)).l,
                Permutation(np.array(pp)),
                s,
                score_params(McpParams(lam, gam)),
            ).total
            for pp in itertools.permutations(range(4))
        )
        if res.best_score <= oracle + 0.01 * abs(oracle):
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 16
    assert elapsed < 60.0
    report(8, f"{hits}/20 seeds within 1% of the exhaustive oracle in {elapsed:.0f}s")


def test_criterion_09_benchmark_trend():
    """(100, 100) and (100, 200) at n = 150: wide-tolerance Table-1 trend."""
    t0 = time.perf_counter()
    spec = BenchmarkSpec(
        settings=((100, 100), (100, 200)),
        n=150,
        reps=10,
        grid=TuningGrid(lambdas=(0.3, 0.4, 0.5, 0.6, 0.7), gammas=(2.0,)),
        seed=9,
        outer_k_max=12,
    )
    rows = run_benchmark(spec)
    assert all(r["status"] == "ok" for r in rows)
    means = {(r["setting_p"], r["setting_s"]): r for r in rows if r["rep"] == "mean"}
    m100 = means[(100, 100)]
    m200 = means[(100, 200)]
    elapsed = time.perf_counter() - t0
    assert 0.45 <= m100["tpr"] <= 0.75
    assert m100["fpr"] <= 0.01
    assert m100["scaled_frob"] <= 10.0
    assert m200["tpr"] >= m100["tpr"] - 0.05
    assert elapsed / 20 <= 600.0  # stated budget: 10 minutes per replicate
    report(9, f"(100,100): TPR {m100['tpr']:.3f} (reference 0.603), FPR {m100['fpr']:.4f} "
              f"(reference 0.001), frob {m100['scaled_frob']:.3f} (reference 6.868); "
              f"(100,200) TPR {m200['tpr']:.3f}; {elapsed/20:.0f}s per replicate")


def test_criterion_10_rounding_consistency():
    """Sampling reproduces permutation inputs; LAP recovers noisy permutations."""
    rng = np.random.default_rng(10)
    for _ in range(10):
        p = int(rng.integers(2, 12))
        perm = Permutation(rng.permutation(p))
        ds = DoublyStochastic(perm.matrix())
        for cand in sample_permutations(ds, 50, rng):
            assert np.array_equal(cand.pi, perm.pi)
    recovered = 0
    for _ in range(100):
        p = int(rng.integers(3, 15))
        perm = Permutation(rng.permutation(p))
        noisy = perm.matrix() + rng.uniform(-0.05, 0.05, (p, p))
        got = round_hungarian(DoublyStochastic(project_to_birkhoff(noisy).ds.m))
        if np.array_equal(got.pi, perm.pi):
            recovered += 1
    assert recovered == 100
    report(10, "permutation inputs reproduced for all samples; 100/100 noisy "
               "permutations recovered by assignment rounding")


def test_criterion_11_ebic_behavior():
    """Classical BIC at gamma 0; monotone in gamma; empty support when tuned."""
    rng = np.random.default_rng(11)
    # gamma_bic = 0 reproduces the classical BIC exactly
    for _ in range(50):
        nll = float(rng.uniform(-100, 100))
        s_size = int(rng.integers(0, 30))
        n = int(rng.integers(2, 1000))
        p = int(rng.integers(2, 200))
        assert ebic(nll, s_size, n, p, 0.0) == pytest.approx(
            2.0 * nll + s_size * np.log(n), abs=1e-12
        )
        # nondecreasing in gamma_bic for s > 0
        if s_size > 0:
            vals = [ebic(nll, s_size, n, p, g) for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
    # tuned lambda empties the support on independent data
    hits = 0
    for seed in range(20):
        data = DataMatrix(np.random.default_rng(900 + seed).standard_normal((300, 10)))
        best, _ = tune(data, TuningGrid(lambdas=(0.05, 0.1, 0.2, 0.4), gammas=(2.0,)))
        res = fit(data, RrcfConfig(mcp=McpParams(best["lam"], best["gamma"]), outer_k_max=6))
        if res.l_hat.support_size() == 0:
            hits += 1
    assert hits >= 18
    report(11, f"classical-BIC identity and monotonicity exact; empty support "
               f"on {hits}/20 independent-data seeds")


def test_criterion_12_benchmark_determinism(tmp_path):
    """cmd_benchmark: byte-identical CSV across runs and thread counts 1 and 8."""
    spec = {
        "settings": [[10, 10]],
        "n": 150,
        "reps": 2,
        "seed": 12,
        "grid": {"lambdas": [0.2, 0.4], "gammas": [2.0]},
        "outer_k_max": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for name, threads in (("r1.csv", 1), ("r2.csv", 1), ("r8.csv", 8)):
        out = tmp_path / name
        rc = cli_main(["--threads", str(threads), "benchmark",
                       "--spec", str(spec_path), "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report(12, "benchmark CSV byte-identical across two runs and thread "
               "counts 1 and 8")
