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

from conftest import random_covariance

cells = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 3.0)), min_size=1, max_size=6
)


@hyp_settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    p=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    cells=cells,
    k_max=st.sampled_from([1, 3, 20000]),
    warm=st.booleans(),
)
def test_path_cells_equal_one_cell_solves(p, seed, cells, k_max, warm):
    rng = np.random.default_rng(seed)
    s = random_covariance(p, 3 * p, rng)
    perm = Permutation(rng.permutation(p))
    # gammas are drawn as offsets above the convexity guard
    guard = max(1.0 / (2.0 * np.diag(s.s).min()), 1.0)
    params = [McpParams(lam, guard + offset) for lam, offset in cells]
    settings = SolverSettings(k_max=k_max)
    l0 = estimate_cholesky(perm, s, McpParams(0.3, guard + 1.0)).l if warm else None
    path = estimate_cholesky_path(perm, s, params, settings, l0)
    # every sweep on the stacked path, then every sweep on the scalar path
    by_cutoff = []
    for cutoff in (0, 10**9):
        with mock.patch.object(solver, "SCALAR_TAIL_PAIRS", cutoff):
            by_cutoff.append(estimate_cholesky_path(perm, s, params, settings, l0))
    for cell, est, column, scalar in zip(params, path, *by_cutoff, strict=True):
        one = estimate_cholesky(perm, s, cell, settings, l0)
        for other in (one, column, scalar):
            assert np.array_equal(est.l.l, other.l.l)
            assert np.array_equal(est.sweeps, other.sweeps)
            assert np.array_equal(est.converged, other.converged)
