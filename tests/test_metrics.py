import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from birkdag import cli, metrics
from birkdag.metrics import (
    CSV_HEADER,
    BenchmarkSpec,
    EdgeSet,
    benchmark_csv,
    csv_cell,
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

    def test_keeps_every_exact_nonzero(self):
        # no threshold: a weight of 1e-300 is an edge, -0.0 is not
        a = adj(3, {(1, 0): 1e-300, (2, 1): -0.0, (2, 0): -0.5})
        assert extract_edges(a).edges == frozenset({(0, 1), (0, 2)})


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


def fake_replicate(spec, si, rep):
    p, s = spec.settings[si]
    return {"setting_p": p, "setting_s": s, "rep": rep, "seed": 0, "status": "ok",
            "tpr": float(rep), "fpr": 0.0, "shd": si, "scaled_frob": 0.0,
            "ebic": 0.0, "runtime_seconds": 0.0}


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
            return fake_replicate(spec, si, rep)

        monkeypatch.setattr(metrics, "_run_replicate", recording)
        rows = run_benchmark(tiny_spec(settings=((8, 8), (8, 4)), reps=3))
        me = threading.get_ident()
        assert calls == [(si, rep, me) for si in range(2) for rep in range(3)]
        assert [(r["setting_s"], r["rep"]) for r in rows] == [
            (8, 0), (8, 1), (8, 2), (8, "mean"), (4, 0), (4, 1), (4, 2), (4, "mean")]
        assert [r["tpr"] for r in rows if r["rep"] == "mean"] == [1.0, 1.0]
        assert [r["shd"] for r in rows if r["rep"] == "mean"] == [0.0, 1.0]

    def test_runs_where_the_platform_cannot_fork(self, monkeypatch):
        # the caller runs every replicate, and no fork context is asked for
        def no_fork(*args):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(metrics, "_run_replicate", fake_replicate)
        rows = run_benchmark(tiny_spec(reps=3), 4)
        assert [r["rep"] for r in rows] == [0, 1, 2, "mean"]

    def test_scipy_optimize_loads_before_the_first_replicate(self):
        # a fresh interpreter: importing birkdag leaves scipy.optimize and
        # multiprocessing out, and run_benchmark loads scipy.optimize before
        # the first replicate's timer starts, so rep 0's runtime_seconds does
        # not include that import
        code = """
import sys
from birkdag import metrics
print('scipy.optimize' in sys.modules, 'multiprocessing' in sys.modules)
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
        assert proc.stdout.splitlines() == ["False False", "[True, True]"]

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
        # a truthy string used to be accepted and stamp runtimes
        for bad in ("no", 0, np.bool_(False)):
            with pytest.raises(ValueError, match="measure_runtime must be a bool"):
                BenchmarkSpec(measure_runtime=bad)

    def test_grid_must_be_a_tuning_grid(self):
        # a dict used to pass here and turn every replicate into an error row
        for bad in ({"lambdas": [0.3]}, (0.3, 0.4), None):
            with pytest.raises(ValueError, match="grid must be a TuningGrid"):
                BenchmarkSpec(settings=((8, 8),), reps=1, grid=bad)

    def test_counts_must_be_integers(self):
        # a float count used to pass here and fail every replicate later
        for field in ("n", "reps", "seed", "outer_k_max"):
            for bad in (30.5, 30.0, True, np.bool_(False)):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    BenchmarkSpec(**{field: bad})
        spec = BenchmarkSpec(n=np.int64(30), reps=np.uint8(2), seed=np.int32(0),
                             outer_k_max=np.int16(3))
        assert all(type(getattr(spec, f)) is int for f in ("n", "reps", "seed", "outer_k_max"))

    def test_settings_must_be_integers(self):
        # int() used to truncate these: (8.7, 3.9) ran as (8, 3)
        for bad in (((8.7, 3.9),), ((8, 3.0),), ((True, 1),), ((8, np.bool_(False)),), ((8, "3"),)):
            with pytest.raises(ValueError, match="settings must hold integer"):
                BenchmarkSpec(settings=bad)
        spec = BenchmarkSpec(settings=((np.int64(8), np.uint8(3)),))
        assert spec.settings == ((8, 3),)
        assert all(type(v) is int for v in spec.settings[0])

    def test_float_cells_are_written_as_plain_floats(self):
        # numpy 2 reprs np.float64(0.5) as "np.float64(0.5)"; the cell is "0.5"
        row = {c: None for c in CSV_HEADER.split(",")}
        row.update(setting_p=np.int64(5), rep="mean", tpr=np.float64(0.5), ebic=0.1 + 0.2,
                   status="ok")
        line = benchmark_csv([row]).splitlines()[1]
        assert line == "5,,mean,,0.5,,,,0.30000000000000004,,ok"
        assert [csv_cell(v) for v in (np.float64(-0.0), 1e-300, 3, None)] == [
            "-0.0", "1e-300", "3", ""]

    def test_csv_numeric_cells_parse_as_floats(self):
        text = benchmark_csv(run_benchmark(tiny_spec(reps=2)))
        lines = text.splitlines()
        cols = lines[0].split(",")
        for line in lines[1:]:
            for col, cell in zip(cols, line.split(",")):
                if cell and col not in ("rep", "status"):
                    float(cell)


class TestWorkerCount:
    def test_min_of_request_replicates_and_cpus(self):
        # only the helper runs: a huge request starts no process
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert metrics._worker_count(10**6, 10**6) == cpus
        assert metrics._worker_count(10**6, 1) == 1
        assert metrics._worker_count(1, 10**6) == 1
        assert metrics._worker_count(2, 3) == min(2, cpus)
        assert metrics._worker_count(8, 2) == min(2, cpus)

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert metrics._worker_count(10**6, 10**6) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert metrics._worker_count(10**6, 10**6) == 1

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert metrics._worker_count(10**6, 10**6) == 1


@pytest.mark.skipif(metrics._worker_count(2, 2) < 2, reason="needs fork and two usable CPUs")
class TestWorkerProcesses:
    def test_same_csv_and_the_caller_runs_every_second_replicate(self, monkeypatch):
        spec = tiny_spec(settings=((8, 8), (8, 4)), reps=3)
        serial = benchmark_csv(run_benchmark(spec))
        original = metrics._run_replicate
        caller = os.getpid()
        calls = []

        def recording(spec, si, rep):
            # in a worker, the append goes to the worker's copy of the list
            calls.append((si, rep, os.getpid()))
            return original(spec, si, rep)

        monkeypatch.setattr(metrics, "_run_replicate", recording)
        assert benchmark_csv(run_benchmark(spec, 2)) == serial
        assert multiprocessing.active_children() == []
        # replicates 0, 2 and 4 of the (setting, rep) order
        assert calls == [(0, 0, caller), (0, 2, caller), (1, 1, caller)]

    def test_an_interrupted_run_leaves_no_worker(self, monkeypatch):
        caller = os.getpid()

        def stuck(spec, si, rep):
            if os.getpid() != caller:
                time.sleep(60)  # a worker still busy when the caller stops
            elif rep == 2:
                raise KeyboardInterrupt
            return fake_replicate(spec, si, rep)

        monkeypatch.setattr(metrics, "_run_replicate", stuck)
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(tiny_spec(reps=3), 2)
        assert multiprocessing.active_children() == []

    # the first and the last replicate of the worker's share
    @pytest.mark.parametrize("dies", [(0, 1), (1, 2)])
    def test_a_dying_worker_costs_only_its_replicate(self, monkeypatch, tmp_path, capsys, dies):
        caller = os.getpid()

        def fragile(spec, si, rep):
            if (si, rep) == dies and os.getpid() != caller:
                os._exit(3)
            return fake_replicate(spec, si, rep)

        # patched before the fork, so the workers inherit it
        monkeypatch.setattr(metrics, "_run_replicate", fragile)
        spec = tmp_path / "spec.json"
        spec.write_text('{"settings": [[8, 8], [8, 4]], "reps": 3}')
        out = tmp_path / "out.csv"
        rc = cli.main(["--threads", "2", "benchmark", "--spec", str(spec), "--out", str(out)])
        assert rc == 4
        assert multiprocessing.active_children() == []
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        replicates = [(int(r[1]), int(r[2]), r[-1]) for r in rows if r[2] != "mean"]
        s_of = {0: 8, 1: 4}
        assert replicates == [(s_of[si], rep, "error" if (si, rep) == dies else "ok")
                              for si in range(2) for rep in range(3)]
        err = capsys.readouterr().err
        assert f"rep {dies[1]} seed" in err and "worker process exited with code 3" in err
        assert "1 replicate(s) failed" in err
