import itertools

import numpy as np
import pytest

from birkdag import solver
from birkdag.pipeline import TuningGrid, tune
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
    SolverSettings,
    check_lower_bounds,
    diagonal_step,
    estimate_cholesky,
    estimate_cholesky_path,
    offdiagonal_step,
    row_objectives,
)

from conftest import (
    DescentLog,
    assert_same_cyclic_iterates,
    coordinate_update,
    cyclic_pass,
    descend_row,
    exact_row,
    random_covariance,
    region,
    row_objective,
)


def serial_cholesky(perm, s, params, settings=SolverSettings()):
    """Reference factor solved row by row with ``descend_row``.

    Row 1 has the closed form 1/sqrt(S^P_11); row i descends on the
    leading (i+1) x (i+1) block of S^P from zero off-diagonals and the
    diagonal 1/sqrt(S^P_ii).
    """
    sp = perm.apply_to_matrix(s.s)
    p = sp.shape[0]
    l = np.diag(1.0 / np.sqrt(np.diag(sp)))
    sweeps = np.zeros(p, dtype=int)
    converged = np.ones(p, dtype=bool)
    exact = np.zeros(p, dtype=bool)
    for i in range(1, p):
        block, row = sp[: i + 1, : i + 1], l[i, : i + 1]
        _, converged[i], sweeps[i], exact[i] = descend_row(block, params, row, settings)
    return CholeskyEstimate(CholeskyFactor(l), sweeps, converged, exact)


def random_block(k, rng, lam=0.1, gamma=2.0):
    """A random k x k row-subproblem block and MCP cell within the convexity guard."""
    g = rng.standard_normal((k + 3, k))
    a = g.T @ g / (k + 3)
    # keep the configuration inside the strict-convexity guard
    gamma = max(gamma, 1.2 / (2.0 * np.diag(a).min()), 1.01)
    return a, McpParams(lam, gamma)


def solve_block(a, params, settings=SolverSettings()):
    """``estimate_cholesky`` at the identity ordering on block a; its last
    row is the solution of the row subproblem on a."""
    return estimate_cholesky(Permutation.identity(len(a)), SampleCovariance(a), params, settings)


def grid_polish_oracle(a, params, span):
    """Dense grid start points, each polished to a local minimum."""
    k = len(a)
    vals = np.linspace(-span, span, 5)
    dvals = np.linspace(0.1, span, 4)
    best = np.inf
    for combo in itertools.product(*([vals] * (k - 1) + [dvals])):
        x, *_ = descend_row(a, params, np.array(combo), SolverSettings(k_max=300))
        best = min(best, row_objective(a, x, params))
    return best


class TestOffdiagonalUpdate:
    def test_zero_crosstalk_gives_zero(self):
        assert offdiagonal_step(0.0, 1.0, 0.5, 2.0) == 0.0

    def test_inner_branch_hand_value(self):
        # A_jj = 1, gamma = 2, lambda = 0.5, z = 1 -> S_0.5(1) / (2 - 0.5) = 1/3
        assert offdiagonal_step(1.0, 1.0, 0.5, 2.0) == pytest.approx(1.0 / 3.0)

    def test_flat_branch_hand_value(self):
        # z = 4 with A_jj = 1: |z|/2 = 2 >= gamma lambda = 1, so x = z/2 = 2
        assert offdiagonal_step(4.0, 1.0, 0.5, 2.0) == pytest.approx(2.0)

    def test_flat_branch_beats_inner_candidate(self):
        # both branch formulas evaluated in h: the flat one must win where
        # the rule selects it
        a, params = np.array([[1.0, -2.0], [-2.0, 4.2]]), McpParams(0.5, 2.0)
        z = 4.0  # -2 * A_01 * x_1 at x_1 = 1
        xs = offdiagonal_step(z, 1.0, 0.5, 2.0)
        inner = np.sign(z) * max(z - 0.5, 0) / (2 - 1 / 2.0)
        h_flat = row_objective(a, np.array([xs, 1.0]), params)
        h_inner = row_objective(a, np.array([inner, 1.0]), params)
        assert h_flat <= h_inner

    def test_guard_error(self):
        # 2 * 0.2 - 1/1.5 < 0: the coordinate update would divide by a
        # negative curvature, and the solve refuses it up front
        s = SampleCovariance(np.array([[0.2, 0.0], [0.0, 1.0]]))
        with pytest.raises(ConvexityGuardError, match="gamma"):
            estimate_cholesky(Permutation.identity(2), s, McpParams(0.1, 1.5))

    def test_lasso_limit(self):
        # gamma -> inf reduces the update to soft-thresholding
        rng = np.random.default_rng(0)
        for _ in range(50):
            a01 = rng.uniform(-1, 1)
            ajj = rng.uniform(0.5, 2.0)
            z = -2 * a01 * rng.uniform(-2, 2)
            got = offdiagonal_step(z, ajj, 0.3, 1e8)
            want = np.sign(z) * max(abs(z) - 0.3, 0.0) / (2 * ajj)
            if want != 0.0:
                assert abs(got - want) <= 1e-6 * abs(want)
            else:
                assert abs(got) <= 1e-12 or abs(z) / (2 * ajj) >= 1e8 * 0.3


class TestDiagonalUpdate:
    def test_uncoupled(self):
        # A_kk = 4, no coupling: 1/sqrt(4)
        assert diagonal_step(0.0, 4.0) == pytest.approx(0.5)

    def test_golden_ratio_case(self):
        # A_kk = 1, coupling sum 1: positive root of t^2 + t - 1
        assert diagonal_step(1.0, 1.0) == pytest.approx((-1 + np.sqrt(5)) / 2)

    def test_negative_coupling(self):
        # A_kk = 2, coupling sum -3: (3 + sqrt(17)) / 4
        assert diagonal_step(-3.0, 2.0) == pytest.approx((3 + np.sqrt(17)) / 4)

    def test_always_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, params = random_block(4, rng)
            x = rng.standard_normal(4)
            x[-1] = abs(x[-1]) + 0.1
            assert coordinate_update(a, x, 3, params) > 0


class TestMinimizeRow:
    """Each row subproblem, minimized by ``estimate_cholesky`` as the last
    row of the factor on its block."""

    def test_identity_block_lambda_zero(self):
        est = solve_block(np.eye(4), McpParams(0.0, 2.0))
        assert est.all_converged
        assert np.allclose(est.l.l[-1], [0, 0, 0, 1.0], atol=1e-12)

    def test_scalar_row_one_sweep(self):
        est = solve_block(np.array([[4.0]]), McpParams(0.3, 2.0))
        assert est.all_converged and np.allclose(est.l.l, [[0.5]])
        assert est.sweeps.max() <= 2

    def test_monotone_descent_per_sweep(self, monkeypatch):
        # every column sweep, block sweep and exact step of each solve
        log = DescentLog(monkeypatch)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, params = random_block(5, rng, lam=0.2)
            solve_block(a, params)
        log.assert_descends()
        assert len(log.solves) == 20 and log.kinds["column"] > 0 and log.kinds["block"] > 0

    def test_fixed_point_at_convergence(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, params = random_block(5, rng)
            est = solve_block(a, params, SolverSettings(eps=1e-12, k_max=2000))
            assert est.all_converged
            x = est.l.l[-1]
            for j in range(len(x)):
                assert abs(coordinate_update(a, x, j, params) - x[j]) <= 1e-8

    def test_grid_polish_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            a, params = random_block(k, rng)
            est = solve_block(a, params)
            x = est.l.l[-1]
            h = row_objectives(est.l, a, params)[-1]
            span = max(1.5, 1.5 * np.abs(x).max())
            assert h <= grid_polish_oracle(a, params, span) + 1e-6


class TestSolverSettings:
    def test_k_max_must_be_an_integer(self):
        for bad in (20000.0, 2.5, True, np.bool_(True)):
            with pytest.raises(ValueError, match="k_max must be an integer"):
                SolverSettings(k_max=bad)
        assert type(SolverSettings(k_max=np.int64(3)).k_max) is int


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
            # the same tighter settings on both paths
            settings = SolverSettings(eps=1e-10, k_max=2000)
            a = estimate_cholesky(perm, s, params, settings)
            b = serial_cholesky(perm, s, params, settings)
            assert np.abs(a.l.l - b.l.l).max() <= 1e-9

    def test_default_sweep_cap_covers_slow_rows(self):
        # the 12th (p=200, s=200, n=300) instance drawn from seed 2000 has
        # a row that needs 734 cyclic sweeps at lambda 0.2, gamma 2 and its
        # true ordering, and 152 with the exact steps; the default cap must
        # not leave it unconverged
        rng = np.random.default_rng(2000)
        for _ in range(12):
            inst = generate_dag(200, 200, rng)
            x = sample_data(inst, 300, rng)
        est = estimate_cholesky(inst.ordering, sample_covariance(x), McpParams(0.2, 2.0))
        assert est.all_converged
        assert est.sweeps.max() == 152

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
            x = est.l.l[i, : i + 1]
            for j in range(i + 1):
                assert abs(coordinate_update(sp[: i + 1, : i + 1], x, j, params) - x[j]) <= 1e-8

    def test_guard_raises(self, rng):
        s = SampleCovariance(np.diag([0.2, 0.3]))
        with pytest.raises(ConvexityGuardError):
            estimate_cholesky(Permutation.identity(2), s, McpParams(0.1, 1.2))

    def test_rows_independent_of_schedule(self, rng):
        # each row is a function of its leading block of the permuted
        # covariance alone, so a solve of that block on its own ends in the
        # same sweep at the same row, up to the rounding of shorter products
        p = 6
        s = random_covariance(p, 40, rng)
        perm = Permutation(rng.permutation(p))
        params = McpParams(0.2, 2.0)
        sp = perm.apply_to_matrix(s.s)
        full = estimate_cholesky(perm, s, params)
        for i in range(1, p):
            alone = solve_block(sp[: i + 1, : i + 1], params)
            assert np.abs(alone.l.l[-1] - full.l.l[i, : i + 1]).max() <= 1e-12
            assert alone.sweeps[-1] == full.sweeps[i]


PATH_CELLS = [McpParams(lam, gamma) for lam in (0.0, 0.2, 0.7) for gamma in (2.0, 3.0)]


def path_problem(p, seed, n=None):
    """Permuted covariance problem at p: a random SEM at p >= 30 (n samples,
    default p + 50), else Gaussian noise."""
    rng = np.random.default_rng(seed)
    if p >= 30:
        x = sample_data(generate_dag(p, p, rng), p + 50 if n is None else n, rng)
        s = sample_covariance(x)
    else:
        s = random_covariance(p, 4 * p, rng)
    return Permutation(rng.permutation(p)), s


def assert_same_estimate(a, b):
    assert np.array_equal(a.l.l, b.l.l)
    assert np.array_equal(a.sweeps, b.sweeps)
    assert np.array_equal(a.converged, b.converged)


class TestEstimateCholeskyPath:
    @pytest.mark.parametrize("p", [2, 3, 8, 30, 100])
    def test_cells_equal_one_cell_solves(self, p):
        perm, s = path_problem(p, p)
        for settings in (SolverSettings(k_max=1), SolverSettings()):
            path = estimate_cholesky_path(perm, s, PATH_CELLS, settings)
            assert len(path) == len(PATH_CELLS)
            for params, est in zip(PATH_CELLS, path):
                assert_same_estimate(est, estimate_cholesky(perm, s, params, settings))

    @pytest.mark.parametrize("p", [30, 100])
    def test_one_sweep_is_one_cyclic_pass(self, p):
        # the column sweep writes the diagonals after the last column; each
        # row's iterate is still one cyclic pass, off-diagonals ascending
        # and then the diagonal
        perm, s = path_problem(p, p)
        sp = perm.apply_to_matrix(s.s)
        start = np.diag(1.0 / np.sqrt(np.diag(sp)))
        path = estimate_cholesky_path(perm, s, PATH_CELLS, SolverSettings(k_max=1))
        for params, est in zip(PATH_CELLS, path, strict=True):
            assert est.l.l[0, 0] == 1.0 / np.sqrt(sp[0, 0])
            for i in range(1, p):
                x = start[i, : i + 1].copy()
                for j in range(i + 1):
                    x[j] = coordinate_update(sp[: i + 1, : i + 1], x, j, params)
                assert np.abs(est.l.l[i, : i + 1] - x).max() <= 1e-12

    def test_cells_match_serial(self):
        settings = SolverSettings(eps=1e-10, k_max=2000)
        for seed in range(3):
            perm, s = path_problem(7, seed)
            path = estimate_cholesky_path(perm, s, PATH_CELLS, settings)
            for params, est in zip(PATH_CELLS, path):
                ref = serial_cholesky(perm, s, params, settings)
                assert np.abs(est.l.l - ref.l.l).max() <= 1e-9

    def test_empty_path(self, rng):
        assert estimate_cholesky_path(Permutation.identity(3), random_covariance(3, 20, rng), []) == []

    def test_guard_checked_for_every_cell_in_order(self):
        s = SampleCovariance(np.diag([0.2, 0.3, 1.0]))
        perm = Permutation.identity(3)
        ok, bad, worse = McpParams(0.1, 3.0), McpParams(0.1, 2.0), McpParams(0.1, 1.5)
        with pytest.raises(ConvexityGuardError) as one_cell:
            estimate_cholesky(perm, s, bad)
        with pytest.raises(ConvexityGuardError) as path:
            estimate_cholesky_path(perm, s, [ok, bad, worse])
        assert str(path.value) == str(one_cell.value)


# SETTLED_SHARE at the switch's two extremes: no count of changed rows is
# at most a negative share, so every sweep stays on the stacked path; every
# count is at most all active rows, so each cell takes the block path from
# its second sweep on
COLUMN_ONLY, BLOCK_FROM_SWEEP_2 = -1, 1


class TestBlockTail:
    @pytest.mark.parametrize("p", [2, 3, 8, 30, 100, 200])
    def test_block_and_column_sweeps_agree(self, p, monkeypatch):
        perm, s = path_problem(p, p, n=2 * p)
        for settings in (SolverSettings(k_max=2), SolverSettings()):
            paths = []
            for share in (COLUMN_ONLY, BLOCK_FROM_SWEEP_2):
                monkeypatch.setattr(solver, "SETTLED_SHARE", share)
                paths.append(estimate_cholesky_path(perm, s, PATH_CELLS, settings))
            for column, block in zip(*paths, strict=True):
                assert_same_cyclic_iterates(column, block)

    def test_straggler_rows_take_the_block_path(self, monkeypatch):
        p = 30
        column_counts, events, jumped = [], [], []
        column_sweep, block_sweep, exact_step = solver._column_sweep, solver._block_sweep, solver._exact_step

        def column_counted(stack):
            # the leaving rule counts the rows active before the sweep's
            # exact step, if it had one
            before = (stack.active.sum(axis=1) + sum(jumped)).tolist()
            jumped.clear()
            moved, changed = column_sweep(stack)
            column_counts.append((before, changed.tolist()))
            events.append("column")
            return moved, changed

        def block_counted(*args):
            events.append("block")
            return block_sweep(*args)

        def exact_counted(*args):
            on = exact_step(*args)
            jumped.append(len(on))
            events.append("exact")
            return on

        monkeypatch.setattr(solver, "_column_sweep", column_counted)
        monkeypatch.setattr(solver, "_block_sweep", block_counted)
        monkeypatch.setattr(solver, "_exact_step", exact_counted)
        perm, s = path_problem(p, p)
        est = estimate_cholesky(perm, s, McpParams(0.2, 2.0))
        assert est.all_converged
        # the cell sweeps by columns until the pattern of at most the
        # settled share of its active rows changed, then by blocks for good;
        # every EXACT_EVERY-th sweep starts with an exact step, and a sweep
        # whose exact step stops every row left ends there
        share = solver.SETTLED_SHARE
        *before, (last_active, last_changed) = column_counts
        assert all(changed[0] > share * active[0] for active, changed in before)
        assert last_changed[0] <= share * last_active[0]
        want = []
        for sweep in range(1, est.sweeps.max() + 1):
            want += ["exact"] * (sweep % solver.EXACT_EVERY == 0)
            want.append("column" if sweep <= len(column_counts) else "block")
        assert events == want or (want[-2] == "exact" and events == want[:-1])
        assert "block" in events and "exact" in events
        # in a path each cell switches on its own rows: block sweeps of the
        # settled cells run while the others still sweep by columns
        column_counts.clear()
        events.clear()
        estimate_cholesky_path(perm, s, PATH_CELLS)
        assert "block" in events[: events.index("column", events.index("block"))]
        assert any(len(active) < len(PATH_CELLS) for active, _ in column_counts)

    def test_pattern_changes_fall_back_to_the_cyclic_pass(self, monkeypatch):
        # from sweep 2 on the supports still change, so some batched row
        # steps must be refused; each keeps the coordinates before the first
        # one refused and the scalar cyclic pass goes on from there
        steps, fallbacks, verified = [], [], []
        block_sweep, batch_step, cyclic_row = solver._block_sweep, solver._batch_step, solver._cyclic_row
        exact_step = solver._exact_step
        live = []

        def block_logged(cov, slab, active, *rest):
            live[:] = [active]
            return block_sweep(cov, slab, active, *rest)

        def exact_logged(*args):
            # the exact step's verification is a batched step too, and its
            # refused rows keep their values: no cyclic pass follows
            live[:] = [None]
            return exact_step(*args)

        def step_logged(cov, x, batch, lam, gamma):
            before = x.copy()
            kept = batch_step(cov, x, batch, lam, gamma)
            if live[0] is None:
                verified.append(kept)
                return kept
            for r, (row, held) in enumerate(zip(batch.rows.tolist(), kept.tolist())):
                if live[0][row]:
                    steps.append((row, held, before[r, : row + 1]))
            return kept

        def cyclic_checked(sp, dl, x, lam, gamma, start):
            row = len(x) - 1
            held, before = next((held, before) for r, held, before in reversed(steps) if r == row)
            assert start == held and held < row
            cyclic_row(sp, dl, x, lam, gamma, start)
            full = before.copy()
            cyclic_row(sp, dl, full, lam, gamma)
            assert np.abs(x - full).max() <= 1e-12
            fallbacks.append((row, start))

        monkeypatch.setattr(solver, "_block_sweep", block_logged)
        monkeypatch.setattr(solver, "_batch_step", step_logged)
        monkeypatch.setattr(solver, "_cyclic_row", cyclic_checked)
        monkeypatch.setattr(solver, "_exact_step", exact_logged)
        perm, s = path_problem(30, 30)
        params = McpParams(0.2, 2.0)
        monkeypatch.setattr(solver, "SETTLED_SHARE", BLOCK_FROM_SWEEP_2)
        block = estimate_cholesky(perm, s, params)
        refused = [(row, held) for row, held, _ in steps if held < row]
        assert fallbacks == refused and len(refused) > 0
        assert any(start > 0 for _, start in fallbacks)
        assert len(steps) > len(refused)
        assert verified
        monkeypatch.setattr(solver, "SETTLED_SHARE", COLUMN_ONLY)
        column = estimate_cholesky(perm, s, params)
        assert_same_cyclic_iterates(column, block)

    def test_batched_step_equals_scalar_cyclic_passes(self, monkeypatch):
        # one batched step over rows of unequal support width, one of them
        # empty, equals one scalar cyclic pass on each row; a row refused
        # part way finishes by the cyclic pass from the refused coordinate
        p = 30
        perm, s = path_problem(p, p)
        sp = perm.apply_to_matrix(s.s)
        params = McpParams(0.3, 2.0)
        slab = np.tril(estimate_cholesky(perm, s, params, SolverSettings(k_max=3)).l.l)
        slab[20, 4] = 0.5  # a coordinate far from its next value
        rows = np.array([3, 13, 18, 20, 21, 23, 29])  # row 3 has an empty support
        active = np.zeros(p, dtype=bool)
        active[rows] = True
        starts = {}
        cyclic_row = solver._cyclic_row

        def cyclic_logged(sp, dl, x, lam, gamma, start):
            starts[len(x) - 1] = start
            cyclic_row(sp, dl, x, lam, gamma, start)

        monkeypatch.setattr(solver, "_cyclic_row", cyclic_logged)
        m = -2.0 * sp
        np.fill_diagonal(m, 0.0)
        cov = solver._BlockCov.of(sp, m)
        batch = solver._batch(cov, slab, rows, params.lam, params.gamma)
        widths = np.count_nonzero(batch.s < p, axis=1)
        assert 0 in widths and len(set(widths.tolist())) > 2
        out = slab.copy()
        moved, _ = solver._block_sweep(cov, out, active, params.lam, params.gamma, batch)
        assert 20 in starts and starts[20] > 0
        # the empty row and at least two others take the batched step whole
        accepted = set(rows.tolist()) - set(starts)
        assert 3 in accepted and len(accepted) > 2
        for i in range(p):
            if not active[i]:
                assert np.array_equal(out[i], slab[i]) and moved[i] == 0.0
                continue
            x = slab[i, : i + 1].copy()
            refused = None
            for j in range(i + 1):
                x[j] = coordinate_update(sp[: i + 1, : i + 1], x, j, params)
                if refused is None and j < i and region(x[j], params) != region(slab[i, j], params):
                    refused = j
            assert np.abs(out[i, : i + 1] - x).max() <= 1e-12
            assert starts.get(i) == refused
            assert moved[i] == pytest.approx(np.linalg.norm(x - slab[i, : i + 1]), rel=1e-9, abs=1e-14)


class TestExactStep:
    """Every ``solver.EXACT_EVERY``-th sweep first jumps each active row to
    the fixed point of its pattern, kept only where verified."""

    def test_exact_rows_are_fixed_points(self):
        settings = SolverSettings()
        found = 0
        for p, params in ((100, McpParams(0.2, 2.0)), (100, McpParams(0.5, 3.0)), (200, McpParams(0.3, 2.0))):
            perm, s = path_problem(p, p + 7, n=p + 100)
            sp = perm.apply_to_matrix(s.s)
            est = estimate_cholesky(perm, s, params, settings)
            assert (est.sweeps[est.exact] % solver.EXACT_EVERY == 0).all()
            for i in np.flatnonzero(est.exact).tolist():
                x = est.l.l[i, : i + 1].copy()
                y, converged, _, _ = descend_row(sp[: i + 1, : i + 1], params, x.copy(), SolverSettings(k_max=1))
                assert converged and np.linalg.norm(y - x) < settings.eps
                assert np.array_equal(y != 0.0, x != 0.0)
                found += 1
        assert found > 100

    def test_exact_step_does_not_raise_h(self):
        # sweep 8 starts with the exact step: no row ends it higher than
        # sweep 7 left it
        jumped = 0
        for seed in range(50):
            p = 10 + seed % 5 * 10
            perm, s = path_problem(p, 500 + seed, n=p + 20 + seed)
            sp = perm.apply_to_matrix(s.s)
            params = McpParams((0.1, 0.2, 0.4)[seed % 3], 2.0 + seed % 2)
            before = estimate_cholesky(perm, s, params, SolverSettings(k_max=7))
            after = estimate_cholesky(perm, s, params, SolverSettings(k_max=8))
            h7, h8 = row_objectives(before.l, sp, params), row_objectives(after.l, sp, params)
            assert (h8 <= h7 + 1e-13 * np.abs(h7)).all()
            jumped += np.count_nonzero(after.exact)
        assert jumped > 100

    def test_indefinite_pattern_is_refused(self):
        # row 2 with both off-diagonals inner and negative: K = 2 A_SS - I/gamma
        # is indefinite, yet the pattern's stationary point lies in the
        # pattern and one cyclic pass keeps it; only the definiteness test
        # stops the jump to a saddle
        a = np.array([[1.0, 0.9, 0.78], [0.9, 1.0, 0.87], [0.78, 0.87, 1.7]])
        params = McpParams(0.5, 2.0)
        k = 2.0 * a[:2, :2] - np.eye(2) / params.gamma
        assert np.linalg.eigvalsh(k)[0] < 0.0 < np.linalg.eigvalsh(a)[0]
        alpha = np.linalg.solve(k, [params.lam, params.lam])
        beta = np.linalg.solve(k, -2.0 * a[:2, 2])
        t = diagonal_step(a[2, :2] @ alpha, a[2, 2] + a[2, :2] @ beta)
        saddle = np.append(alpha + beta * t, t)
        x = np.array([-0.5, -0.1, 1.0])
        assert np.array_equal(region(saddle[:2], params), region(x[:2], params))
        y = saddle.copy()
        cyclic_pass(a, params, y)
        assert np.linalg.norm(y - saddle) < 1e-12
        assert exact_row(a, params, x.copy(), 1e-8) is None
        m = -2.0 * a
        np.fill_diagonal(m, 0.0)
        slab = np.diag(1.0 / np.sqrt(np.diag(a)))
        slab[2] = x
        active = np.array([False, False, True])
        on = solver._exact_step(solver._BlockCov.of(a, m), slab, active, params.lam, params.gamma, 1e-8)
        assert on.size == 0 and active[2] and np.array_equal(slab[2], x)

    def test_singular_pattern_that_passes_cholesky_is_refused(self):
        # n < p, standardized, gamma near the guard: at some sweep past 100
        # a K of rank-deficient A_SS factors in rounding but is singular to
        # the solve; its row is refused, and the rest of the batch goes on
        rng = np.random.default_rng(77)
        for _ in range(6):
            inst = generate_dag(60, 60, rng)
            x = sample_data(inst, 40, rng)
        s = sample_covariance(x).s
        scale = 1.0 / np.sqrt(np.diag(s))
        s = SampleCovariance(s * scale[:, None] * scale[None, :])
        params = McpParams(0.1, 1.05)
        est = estimate_cholesky(inst.ordering, s, params, SolverSettings(k_max=400))
        assert est.exact.any() and est.converged[est.exact].all()

    @pytest.mark.parametrize("p", [30, 100])
    def test_refused_steps_change_no_bit(self, p, monkeypatch):
        # every attempt runs and is refused (eps 0: no step moves a row
        # less); the solves must equal those without attempts, bit for bit,
        # over 40 sweeps of five attempts in the stack and in ``_finish``
        settings = SolverSettings(k_max=40)
        perm, s = path_problem(p, p + 3)
        exact_step, attempts = solver._exact_step, []

        def refused(cov, slab, active, lam, gamma, eps):
            attempts.append(np.count_nonzero(active))
            on = exact_step(cov, slab, active, lam, gamma, 0.0)
            assert on.size == 0
            return on

        monkeypatch.setattr(solver, "_exact_step", refused)
        tried = estimate_cholesky_path(perm, s, PATH_CELLS, settings)
        monkeypatch.setattr(solver, "_exact_step", exact_step)
        monkeypatch.setattr(solver, "EXACT_EVERY", 10**9)
        off = estimate_cholesky_path(perm, s, PATH_CELLS, settings)
        for a, b in zip(tried, off, strict=True):
            assert_same_estimate(a, b)
            assert not a.exact.any()
        assert sum(attempts) > 0


class TestCellLifecycle:
    def test_cells_leave_the_stack_and_finish_alone(self, monkeypatch):
        # each cell is named by its (lambda, gamma): column sweeps log the
        # cells of the stack, block sweeps the one cell they advance
        events = []
        column_sweep, block_sweep = solver._column_sweep, solver._block_sweep

        def column_logged(stack):
            events.append(("column", list(zip(stack.lam[:, 0].tolist(), stack.gamma[:, 0].tolist()))))
            return column_sweep(stack)

        def block_logged(cov, slab, active, lam, gamma, batch):
            events.append(("block", (lam, gamma)))
            return block_sweep(cov, slab, active, lam, gamma, batch)

        monkeypatch.setattr(solver, "_column_sweep", column_logged)
        monkeypatch.setattr(solver, "_block_sweep", block_logged)
        perm, s = path_problem(30, 30)
        estimate_cholesky_path(perm, s, PATH_CELLS)
        stacks = [cells for kind, cells in events if kind == "column"]
        assert all(len(after) <= len(before) for before, after in zip(stacks, stacks[1:]))
        assert len(stacks[-1]) < len(stacks[0]) == len(PATH_CELLS)
        finished = 0
        for params in PATH_CELLS:
            cell = (params.lam, params.gamma)
            blocks = [k for k, (kind, arg) in enumerate(events) if kind == "block" and arg == cell]
            columns = [k for k, (kind, arg) in enumerate(events) if kind == "column" and cell in arg]
            assert columns and columns[0] == 0
            if blocks:
                # one contiguous run, after the cell's last column sweep
                assert blocks == list(range(blocks[0], blocks[-1] + 1))
                assert blocks[0] > columns[-1]
                finished += any(kind == "column" for kind, _ in events[blocks[-1] :])
        # some cell finishes while others still sweep by columns
        assert finished > 0


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


def coordinate_gap(est, sp, params):
    """Largest |t*_j - L_ij| over the factor, where t*_j minimizes row i's
    objective in coordinate j with the row's other entries fixed."""
    gaps = [abs(coordinate_update(sp[: i + 1, : i + 1], est.l.l[i, : i + 1], j, params)
                - est.l.l[i, j])
            for i in range(est.l.p) for j in range(i + 1)]
    return max(gaps)


# Measured before this bound was fixed: over 1,700 random instances (p 2-30,
# lambda 0-1, gamma 0.05-3 above the guard) at the default settings, the
# largest gap was 0.81 eps with the exact step and 0.81 eps without it.
GAP_BOUND = 2.0


class TestCoordinatewiseMinimum:
    """The paper's convergence claim (Tseng 2001, Thm 5.1): cyclic coordinate
    descent on each row ends at a coordinate-wise minimum."""

    @staticmethod
    def instances(n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            p = int(rng.integers(2, 31))
            s = random_covariance(p, int(rng.integers(p + 1, 4 * p)), rng)
            perm = Permutation(rng.permutation(p))
            gamma = solver.gamma_guard(s) + float(rng.uniform(0.05, 3.0))
            yield perm, s, McpParams(float(rng.uniform(0.0, 1.0)), gamma)

    @pytest.mark.parametrize("exact", [True, False])
    def test_converged_rows_are_coordinatewise_minima(self, exact, monkeypatch):
        settings = SolverSettings()
        if not exact:
            monkeypatch.setattr(solver, "EXACT_EVERY", settings.k_max + 1)
        jumped = 0
        for perm, s, params in self.instances(40, 31):
            est = estimate_cholesky(perm, s, params, settings)
            assert est.all_converged
            jumped += int(est.exact.sum())
            assert coordinate_gap(est, perm.apply_to_matrix(s.s), params) <= GAP_BOUND * settings.eps
        assert (jumped > 0) == exact

    def test_one_sweep_exceeds_the_bound(self):
        # the check can fail: one sweep leaves rows far from their minima
        settings = SolverSettings(k_max=1)
        perm, s = path_problem(20, 7)
        params = McpParams(0.2, solver.gamma_guard(s) + 1.0)
        est = estimate_cholesky(perm, s, params, settings)
        assert not est.all_converged
        assert coordinate_gap(est, perm.apply_to_matrix(s.s), params) > GAP_BOUND * settings.eps

    @pytest.mark.parametrize("p", [30, 100])
    def test_tune_grid_descends_at_every_step(self, p, monkeypatch):
        # tune's five-cell grid on a (p, p) instance at n 150, on the
        # schedule tune runs: no column sweep, block sweep or exact step
        # raises any row's h
        rng = np.random.default_rng(p)
        x = sample_data(generate_dag(p, p, rng), 150, rng)
        log = DescentLog(monkeypatch)
        tune(x, TuningGrid(lambdas=(0.3, 0.4, 0.5, 0.6, 0.7), gammas=(2.0,)))
        assert len(log.solves) == 1 and len(log.solves[0]) == 5
        assert log.left and log.kinds["block"] > 0 and log.jumped > 0
        log.assert_descends()
