"""Population identifiability of the penalized score at p = 5.

With S = Sigma = (I - B)^-1 Omega (I - B)^-t exactly, every ordering fits
a complete DAG, so the unpenalized score cannot tell orderings apart:
any ordering signal comes from the penalty (the sparsest-permutation
principle, Raskutti & Uhler 2018).  These tests pin both halves over
all 120 orderings of fixed-seed ``generate_dag`` instances: the score's
spread at lambda = 0, and how often the exhaustive minimizer lies in the
truth's Markov equivalence class (same skeleton and v-structures) as
lambda grows and MCP's bias erodes that signal.
"""

import itertools

import numpy as np
import pytest

from birkdag.pipeline import score_params
from birkdag.scoring import McpParams, penalized_score
from birkdag.sem import Permutation, SampleCovariance, generate_dag
from birkdag.solver import estimate_cholesky

P = 5
ORDERINGS = [Permutation(np.array(q)) for q in itertools.permutations(range(P))]


def population(seed):
    """A p = 5 instance with 5 expected edges and its exact covariance."""
    inst = generate_dag(P, 5, np.random.default_rng(seed))
    ib = np.linalg.inv(np.eye(P) - inst.adjacency.b)
    return inst, SampleCovariance(ib @ np.diag(inst.noise.omega2) @ ib.T)


def l_step_scores(s, lam):
    """(score, ordering, factor) of the L-step at every ordering, scored as
    ``fit`` scores its iterates."""
    mcp = McpParams(lam, 2.0)
    out = []
    for perm in ORDERINGS:
        l = estimate_cholesky(perm, s, mcp).l
        out.append((penalized_score(l, perm, s, score_params(mcp)).total, perm, l))
    return out


def markov_class(edges):
    """Skeleton and v-structures a -> c <- b (a, b not adjacent) of k -> j pairs."""
    skeleton = {frozenset(e) for e in edges}
    v = {(frozenset((a, b)), c) for (a, c), (b, d) in itertools.permutations(edges, 2)
         if c == d and frozenset((a, b)) not in skeleton}
    return skeleton, v


@pytest.mark.parametrize("seed", range(5))
def test_unpenalized_score_is_equal_across_orderings(seed):
    _, s = population(seed)
    totals = [total for total, _, _ in l_step_scores(s, 0.0)]
    assert max(totals) - min(totals) <= 1e-10


# seeds (of 20) whose exhaustive minimizer is in the truth's class, as measured
@pytest.mark.parametrize("lam, in_class", [(0.005, 20), (0.1, 18)])
def test_exhaustive_minimizer_is_in_the_truths_class(lam, in_class):
    hits = 0
    for seed in range(20):
        inst, s = population(seed)
        _, perm, l = min(l_step_scores(s, lam), key=lambda t: t[0])
        rows, cols = np.nonzero(np.tril(l.l, -1))
        fitted = {(int(perm.pi[j]), int(perm.pi[i])) for i, j in zip(rows, cols)}
        truth = {(int(k), int(j)) for j, k in zip(*np.nonzero(inst.adjacency.b))}
        hits += markov_class(fitted) == markov_class(truth)
    assert hits == in_class
