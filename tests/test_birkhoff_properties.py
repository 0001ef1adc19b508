"""Property tests for the Birkhoff projection (hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from birkdag.birkhoff import DualVariables, project_to_birkhoff

TOL = 1e-9

inputs = st.tuples(
    st.integers(2, 15),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-4, 0.1, 1.0, 10.0, 1e4]),
)


def draw(p, seed, scale):
    rng = np.random.default_rng(seed)
    return rng, rng.standard_normal((p, p)) * scale


def project(x):
    res = project_to_birkhoff(x)
    assert res.converged
    return res.ds.m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inputs, st.integers(1, 6))
def test_idempotent_on_doubly_stochastic_input(case, k):
    p, seed, scale = case
    rng, x = draw(p, seed, scale)
    # a convex combination of k permutation matrices, and a projected point
    ds = np.zeros((p, p))
    for w in rng.dirichlet(np.ones(k)):
        ds[np.arange(p), rng.permutation(p)] += w
    assert np.abs(project(ds) - ds).max() <= TOL
    once = project(x)
    assert np.abs(project(once) - once).max() <= TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inputs, st.floats(-5.0, 5.0))
def test_invariant_under_adding_constant_matrix(case, c):
    # <P, J> = p on the polytope, so adding cJ only shifts the objective
    p, seed, scale = case
    _, x = draw(p, seed, scale)
    assert np.abs(project(x + c) - project(x)).max() <= TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inputs)
def test_permutation_equivariant(case):
    p, seed, scale = case
    rng, x = draw(p, seed, scale)
    pi = np.eye(p)[rng.permutation(p)]
    sigma = np.eye(p)[rng.permutation(p)]
    assert np.abs(project(pi @ x @ sigma) - pi @ project(x) @ sigma).max() <= TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(inputs, st.floats(0.0, 10.0))
def test_warm_start_from_random_duals_gives_cold_projection(case, spread):
    p, seed, scale = case
    rng, x = draw(p, seed, scale)
    spread *= max(scale, 1.0)
    duals = DualVariables(spread * rng.standard_normal(p), spread * rng.standard_normal(p))
    warm = project_to_birkhoff(x, duals0=duals)
    assert warm.converged
    assert np.abs(warm.ds.m - project(x)).max() <= TOL
