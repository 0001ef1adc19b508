"""The fixed-L ordering subproblem as a quadratic assignment problem.

At a fixed factor L the ordering step ranks candidates by
``trace_objective`` = 1/2 tr(L P S P^t L^t) = 1/2 tr(L^t L P S P^t), a
Koopmans-Beckmann quadratic assignment problem with A = L^t L and B = S.
Two facts about it are pinned here: at lambda = 0 no ordering beats the
incumbent, and SciPy's QAP solver reads the problem in the same index
convention as ``trace_objective``, so that its orderings can be compared
with the step's.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import quadratic_assignment

from birkdag.birkhoff import trace_objective
from birkdag.scoring import McpParams
from birkdag.sem import Permutation
from birkdag.solver import SolverSettings, estimate_cholesky

from conftest import random_covariance


def fitted(p, seed, lam):
    """A covariance, an ordering and the L-step factor at that ordering."""
    rng = np.random.default_rng(seed)
    s = random_covariance(p, 4 * p, rng)
    perm = Permutation(rng.permutation(p))
    gamma = 2.0 * max(1.0 / (2.0 * np.diag(s.s).min()), 1.0) + 1.0
    est = estimate_cholesky(perm, s, McpParams(lam, gamma), SolverSettings(eps=1e-12))
    assert est.all_converged
    return s, perm, est.l


@pytest.mark.parametrize("seed", range(20))
def test_incumbent_minimizes_the_trace_at_lambda_zero(seed):
    # at lambda = 0 the L-step solves L S^P L^t = I, so the incumbent's
    # trace is p/2, and by AM-GM tr(L S^Q L^t) >= p for every ordering Q
    # because det(L S^Q L^t) = 1
    p = 3 + seed % 4
    s, perm, l = fitted(p, 1000 + seed, 0.0)
    incumbent = trace_objective(l, perm, s)
    assert abs(incumbent - p / 2) <= 1e-10
    orderings = (Permutation(np.array(q)) for q in itertools.permutations(range(p)))
    best = min(trace_objective(l, q, s) for q in orderings)
    assert best >= incumbent - 1e-10


@pytest.mark.parametrize("p", [5, 8, 12, 20])
def test_quadratic_assignment_fun_is_twice_the_trace(p):
    # scipy minimizes tr(A^T P B P^T) with P[i, col_ind[i]] = 1, the
    # convention of Permutation, so fun / 2 is trace_objective there
    for seed in range(3):
        s, _, l = fitted(p, 100 * p + seed, 0.2)
        a = l.l.T @ l.l
        options = {"rng": np.random.default_rng(seed)}
        res = quadratic_assignment(a, s.s, method="faq", options=options)
        trace = trace_objective(l, Permutation(res.col_ind), s)
        assert res.fun / 2 == pytest.approx(trace, rel=1e-12, abs=1e-12)
