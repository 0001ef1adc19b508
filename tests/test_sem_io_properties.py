"""Property tests for the Permutation algebra and the CSV/JSON round trips
(hypothesis)."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from birkdag import io as bio
from birkdag.metrics import BenchmarkSpec
from birkdag.pipeline import TuningGrid
from birkdag.sem import Permutation, generate_dag

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

permutations = st.integers(1, 12).flatmap(lambda p: st.permutations(range(p))).map(
    lambda pi: Permutation(np.array(pi, dtype=int))
)


def square(p, elements=st.floats(allow_nan=False, allow_infinity=False)):
    return arrays(np.float64, (p, p), elements=elements)


perm_and_matrix = permutations.flatmap(lambda perm: st.tuples(st.just(perm), square(perm.p)))


@SETTINGS
@given(perm_and_matrix)
def test_apply_to_matrix_is_conjugation(case):
    perm, a = case
    m = perm.matrix()
    assert np.array_equal(perm.apply_to_matrix(a), m @ a @ m.T)


@SETTINGS
@given(perm_and_matrix)
def test_inverse_undoes_apply_to_matrix(case):
    perm, a = case
    inv = perm.inverse()
    assert np.array_equal(inv.apply_to_matrix(perm.apply_to_matrix(a)), a)
    assert np.array_equal(perm.apply_to_matrix(inv.apply_to_matrix(a)), a)


@SETTINGS
@given(permutations)
def test_inverse_is_an_involution(perm):
    assert np.array_equal(perm.inverse().inverse().pi, perm.pi)
    assert np.array_equal(perm.matrix() @ perm.inverse().matrix(), np.eye(perm.p))


@SETTINGS
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats())
    )
)
def test_matrix_csv_round_trip_exact(a):
    back = bio.matrix_from_csv(bio.matrix_to_csv(a))
    assert back.shape == a.shape
    assert np.array_equal(back, a, equal_nan=True)
    # signed zeros survive too (a NaN's sign bit carries no value)
    num = ~np.isnan(a)
    assert np.array_equal(np.signbit(back[num]), np.signbit(a[num]))


@SETTINGS
@given(permutations)
def test_permutation_csv_round_trip(perm):
    text = bio.permutation_to_csv(perm)
    assert np.array_equal(bio.permutation_from_csv(text).pi, perm.pi)


@SETTINGS
@given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_instance_json_round_trip(p, density, seed):
    s = int(density * p * (p - 1) // 2)
    inst = generate_dag(p, s, np.random.default_rng(seed))
    back = bio.instance_from_json(bio.instance_to_json(inst, seed=seed))
    assert np.array_equal(back.adjacency.b, inst.adjacency.b)
    assert np.array_equal(back.noise.omega2, inst.noise.omega2)
    assert np.array_equal(back.ordering.pi, inst.ordering.pi)
    assert back.expected_edges == s


# every finite lambda >= 0 and every finite gamma > 1: the MCP domain
lambdas = st.floats(min_value=0.0, allow_infinity=False)
gammas = st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
grid_docs = st.fixed_dictionaries(
    {},
    optional={
        "lambdas": st.lists(lambdas, min_size=1, max_size=6),
        "gammas": st.lists(gammas, min_size=1, max_size=4),
        "gamma_bic": st.floats(0.0, 1.0),
    },
)


def grid_of(doc) -> TuningGrid:
    return TuningGrid(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


@SETTINGS
@given(grid_docs)
def test_grid_json_round_trip(doc):
    grid = grid_of(doc)
    assert bio.grid_from_json(json.dumps(doc)) == grid
    full = {"lambdas": list(grid.lambdas), "gammas": list(grid.gammas),
            "gamma_bic": grid.gamma_bic}
    assert bio.grid_from_json(json.dumps(full)) == grid


settings_lists = st.lists(
    st.integers(2, 200).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p * (p - 1) // 2))),
    min_size=1,
    max_size=4,
    unique=True,
)
spec_docs = st.fixed_dictionaries(
    {"settings": settings_lists.map(lambda ss: [list(s) for s in ss])},
    optional={
        "n": st.integers(1, 10**6),
        "reps": st.integers(1, 100),
        "seed": st.integers(0, 2**32 - 1),
        "outer_k_max": st.integers(1, 100),
        "grid": grid_docs,
        "measure_runtime": st.booleans(),
    },
)


@SETTINGS
@given(spec_docs)
def test_spec_json_round_trip(doc):
    fields = dict(doc)
    fields["settings"] = tuple(tuple(s) for s in doc["settings"])
    if "grid" in doc:
        fields["grid"] = grid_of(doc["grid"])
    spec = BenchmarkSpec(**fields)
    assert bio.spec_from_json(json.dumps(doc)) == spec
