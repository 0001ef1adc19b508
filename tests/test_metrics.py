import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from birkdag import metrics
from birkdag.metrics import (
    CSV_HEADER,
    BenchmarkSpec,
    EdgeSet,
    benchmark_csv,
    extract_edges,
    run_benchmark,
    scaled_frobenius,
    structure_metrics,
)
from birkdag.pipeline import TuningGrid
from birkdag.sem import WeightedAdjacency


def adj(p, entries):
    b = np.zeros((p, p))
    for (j, k), v in entries.items():
        b[j, k] = v
    return WeightedAdjacency(b)


def edge_set(p, pairs):
    return EdgeSet(edges=frozenset(pairs), p=p)


class TestExtractEdges:
    def test_empty(self):
        assert extract_edges(adj(4, {})).edges == frozenset()

    def test_single_edge_parent_child_convention(self):
        # b[1, 0] = 0.5 is the edge 0 -> 1, stored as the pair (0, 1)
        es = extract_edges(adj(3, {(1, 0): 0.5}))
        assert es.edges == frozenset({(0, 1)})

    def test_threshold(self):
        a = adj(3, {(1, 0): 0.5})
        assert extract_edges(a, threshold=0.6).edges == frozenset()
        assert extract_edges(a, threshold=0.4).edges == frozenset({(0, 1)})

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            extract_edges(adj(2, {}), threshold=-1.0)


class TestStructureMetrics:
    def test_perfect(self):
        e = edge_set(4, {(0, 1), (1, 2)})
        assert structure_metrics(e, e) == (1.0, 0.0, 0)

    def test_single_reversal(self):
        truth = edge_set(4, {(0, 1), (1, 2)})
        est = edge_set(4, {(0, 1), (2, 1)})
        tpr, fpr, shd = structure_metrics(est, truth)
        assert shd == 1
        assert tpr == pytest.approx(0.5)          # the reversed edge is missed
        assert fpr == pytest.approx(1 / (12 - 2))  # and counts as one false pair

    def test_disjoint_sets(self):
        truth = edge_set(5, {(0, 1), (1, 2), (2, 3)})
        est = edge_set(5, {(4, 0), (3, 0)})
        _, _, shd = structure_metrics(est, truth)
        assert shd == 5

    def test_empty_truth_conventions(self):
        truth = edge_set(3, set())
        est = edge_set(3, {(0, 1)})
        tpr, fpr, shd = structure_metrics(est, truth)
        assert tpr == 1.0
        assert fpr == pytest.approx(1 / 6)
        assert shd == 1

    def test_symmetry_of_shd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = 5
            a = edge_set(p, {(int(i), int(j)) for i, j in rng.integers(0, p, (4, 2)) if i != j})
            b = edge_set(p, {(int(i), int(j)) for i, j in rng.integers(0, p, (4, 2)) if i != j})
            _, _, s1 = structure_metrics(a, b)
            _, _, s2 = structure_metrics(b, a)
            assert s1 == s2
            assert s1 <= len(a.edges) + len(b.edges)
            assert (s1 == 0) == (a.edges == b.edges)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = 6
            a = edge_set(p, {(int(i), int(j)) for i, j in rng.integers(0, p, (6, 2)) if i != j})
            b = edge_set(p, {(int(i), int(j)) for i, j in rng.integers(0, p, (6, 2)) if i != j})
            tpr, fpr, _ = structure_metrics(a, b)
            assert 0.0 <= tpr <= 1.0 and 0.0 <= fpr <= 1.0


class TestScaledFrobenius:
    def test_zero_on_equal(self):
        a = adj(3, {(1, 0): 0.5})
        assert scaled_frobenius(a, a) == 0.0

    def test_single_unit_entry(self):
        a = adj(2, {(1, 0): 1.0})
        b = adj(2, {})
        assert scaled_frobenius(a, b) == pytest.approx(0.5)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        m1 = np.tril(rng.standard_normal((5, 5)), -1)
        m2 = np.tril(rng.standard_normal((5, 5)), -1)
        got = scaled_frobenius(WeightedAdjacency(m1), WeightedAdjacency(m2))
        acc = 0.0
        for i in range(5):
            for j in range(5):
                acc += (m1[i, j] - m2[i, j]) ** 2
        assert abs(got - np.sqrt(acc) / 5) <= 1e-12


class TestEdgeSetValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            edge_set(3, {(1, 1)})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            edge_set(3, {(0, 3)})


TINY_GRID = TuningGrid(lambdas=(0.2, 0.4), gammas=(2.0,))


def tiny_spec(**kw):
    args = dict(settings=((8, 8),), n=120, reps=1, grid=TINY_GRID, seed=3, outer_k_max=4)
    args.update(kw)
    return BenchmarkSpec(**args)


class TestRunBenchmark:
    def test_row_structure_and_finiteness(self):
        rows = run_benchmark(tiny_spec())
        assert len(rows) == 2  # one replicate + one mean row
        assert rows[0]["rep"] == 0 and rows[1]["rep"] == "mean"
        for key in ("tpr", "fpr", "shd", "scaled_frob", "ebic"):
            assert np.isfinite(rows[0][key])
        assert rows[0]["status"] == "ok"
        assert rows[0]["runtime_seconds"] == 0.0

    def test_deterministic_bytes(self):
        a = benchmark_csv(run_benchmark(tiny_spec()))
        b = benchmark_csv(run_benchmark(tiny_spec()))
        assert a == b
        assert a.splitlines()[0] == CSV_HEADER

    def test_replicate_row_does_not_depend_on_run_size(self):
        # a replicate draws only from its own derived seed, so the
        # replicates run after it leave its row unchanged
        one = run_benchmark(tiny_spec(reps=1))
        two = run_benchmark(tiny_spec(reps=2))
        assert benchmark_csv(two[:1]) == benchmark_csv(one[:1])

    def test_replicates_run_once_each_in_order_on_the_calling_thread(self, monkeypatch):
        # run_benchmark finds _run_replicate in the module globals at call
        # time, where a wrapper (such as a tracer's op root) is patched in
        calls = []

        def recording(spec, si, rep):
            calls.append((si, rep, threading.get_ident()))
            p, s = spec.settings[si]
            return {"setting_p": p, "setting_s": s, "rep": rep, "seed": 0, "status": "ok",
                    "tpr": float(rep), "fpr": 0.0, "shd": si, "scaled_frob": 0.0,
                    "ebic": 0.0, "runtime_seconds": 0.0}

        monkeypatch.setattr(metrics, "_run_replicate", recording)
        rows = run_benchmark(tiny_spec(settings=((8, 8), (8, 4)), reps=3))
        me = threading.get_ident()
        assert calls == [(si, rep, me) for si in range(2) for rep in range(3)]
        assert [(r["setting_s"], r["rep"]) for r in rows] == [
            (8, 0), (8, 1), (8, 2), (8, "mean"), (4, 0), (4, 1), (4, 2), (4, "mean")]
        assert [r["tpr"] for r in rows if r["rep"] == "mean"] == [1.0, 1.0]
        assert [r["shd"] for r in rows if r["rep"] == "mean"] == [0.0, 1.0]

    def test_scipy_optimize_loads_before_the_first_replicate(self):
        # a fresh interpreter: importing birkdag leaves scipy.optimize out,
        # and run_benchmark loads it before the first replicate's timer
        # starts, so rep 0's runtime_seconds does not include that import
        code = """
import sys
from birkdag import metrics
print('scipy.optimize' in sys.modules)
seen = []
def first(spec, si, rep):
    seen.append('scipy.optimize' in sys.modules)
    return {"status": "error"}
metrics._run_replicate = first
metrics.run_benchmark(metrics.BenchmarkSpec(settings=((4, 4),), reps=2))
print(seen)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "[True, True]"]

    def test_mean_row_values(self):
        spec = tiny_spec(reps=3)
        rows = run_benchmark(spec)
        reps = [r for r in rows if r["rep"] != "mean"]
        mean = rows[-1]
        assert mean["tpr"] == pytest.approx(np.mean([r["tpr"] for r in reps]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(settings=((1, 0),))
        with pytest.raises(ValueError):
            BenchmarkSpec(settings=((5, 100),))
        with pytest.raises(ValueError):
            BenchmarkSpec(reps=0)
        with pytest.raises(ValueError, match="distinct"):
            BenchmarkSpec(settings=((6, 4), (6, 4)))

    def test_csv_numeric_cells_parse_as_floats(self):
        text = benchmark_csv(run_benchmark(tiny_spec(reps=2)))
        lines = text.splitlines()
        cols = lines[0].split(",")
        for line in lines[1:]:
            for col, cell in zip(cols, line.split(",")):
                if cell and col not in ("rep", "status"):
                    float(cell)
