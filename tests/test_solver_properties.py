"""Property tests for the batched L-step (hypothesis)."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings as hyp_settings, strategies as st

from birkdag import solver
from birkdag.scoring import McpParams
from birkdag.sem import Permutation
from birkdag.solver import SolverSettings, estimate_cholesky, estimate_cholesky_path

from conftest import assert_same_cyclic_iterates, random_covariance

cells = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 3.0)), min_size=1, max_size=6
)


@hyp_settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    cells=cells,
    k_max=st.sampled_from([1, 3, 20000]),
)
def test_path_cells_equal_one_cell_solves(p, seed, cells, k_max):
    rng = np.random.default_rng(seed)
    s = random_covariance(p, 3 * p, rng)
    perm = Permutation(rng.permutation(p))
    # gammas are drawn as offsets above the convexity guard
    guard = max(1.0 / (2.0 * np.diag(s.s).min()), 1.0)
    params = [McpParams(lam, guard + offset) for lam, offset in cells]
    settings = SolverSettings(k_max=k_max)
    # the default switch, every sweep on the stacked path, every sweep from
    # the second on the block path: at each, the path equals one-cell
    # solves bit for bit
    by_share = []
    for share in (solver.SETTLED_SHARE, -1, 1):
        with mock.patch.object(solver, "SETTLED_SHARE", share):
            path = estimate_cholesky_path(perm, s, params, settings)
            for cell, est in zip(params, path, strict=True):
                one = estimate_cholesky(perm, s, cell, settings)
                assert np.array_equal(est.l.l, one.l.l)
                assert np.array_equal(est.sweeps, one.sweeps)
                assert np.array_equal(est.converged, one.converged)
        by_share.append(path)
    # across the switch the sweeps differ only in rounding
    for column, others in zip(by_share[1], zip(by_share[0], by_share[2], strict=True)):
        for other in others:
            assert_same_cyclic_iterates(column, other)
