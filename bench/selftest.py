#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at toy size through run.py, timed and traced, and
asserts that each declared metric (BENCHMARK.json) is emitted with its
unit, plus the extra ones the report lines carry.  Then feeds the output
checkers results that must fail: an infeasible matrix, non-converged
projection and L-step results, a failed replicate row, a wrong CSV header
and an exact-repeat mismatch.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from run import check_results, source_digest  # noqa: E402
from birkdag import birkhoff, scoring, solver  # noqa: E402

QUALITY = ("tpr", "fpr", "shd", "scaled_frob", "ebic")


# Per-layer metrics that must be non-zero on a workload (the wrappers saw the
# calls) and ones that must stay zero (the layer does no work there).
LAYER_WORK = {
    "table1_p100": ("birkhoff.project.calls", "birkhoff.gp.calls", "birkhoff.objgrad.calls",
                    "birkhoff.round.candidates", "birkhoff.order.steps", "solver.lstep.calls",
                    "pipeline.fit.calls", "pipeline.fit.outer_iters", "pipeline.tune.cells",
                    "pipeline.thresholds.busy_s", "scoring.busy_s", "sem.generate.busy_s",
                    "sem.covariance.busy_s", "metrics.replicate.overlap", "cli.cpu_per_wall",
                    "cli.self_s", "other.self_s"),
    "project_cold": ("birkhoff.project.calls", "birkhoff.project.iters", "other.self_s"),
    "known_order_path": ("solver.lstep.calls", "solver.lstep.sweeps", "scoring.busy_s",
                         "other.self_s"),
}
LAYER_IDLE = {
    "table1_p100": (),
    "project_cold": ("birkhoff.gp.calls", "solver.lstep.calls", "pipeline.fit.calls",
                     "birkhoff.round.candidates", "cli.self_s"),
    "known_order_path": ("birkhoff.project.calls", "birkhoff.gp.calls", "pipeline.fit.calls"),
}


def run_toy(workload: str, trace: int, expect_rc: int = 0) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == expect_rc, (workload, trace, done.stdout[-2000:],
                                          done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_metrics_emitted():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in W.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = run_toy(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            names = {d["name"]: d["unit"] for d in declared[key]}
            assert set(result["metrics"]) == set(names), (workload, trace)
            for name, unit in names.items():
                value = result["metrics"][name]
                assert value["unit"] == unit and isinstance(value["value"], (int, float))
                assert f"{workload} {name} = " in stdout, (workload, name)
            extras = ["fail_frac"]
            if trace == 0 and workload != "project_cold":
                extras += list(QUALITY)
            if trace == 0 and workload == "project_cold":
                extras.append("op_s_p90")
            for name in extras:
                line = next((ln for ln in stdout.splitlines()
                             if ln.startswith(f"{workload} {name} = ")), None)
                assert line is not None and "better" in line, (workload, name)
            if trace == 1:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                assert all(values[k] > 0 for k in LAYER_WORK[workload]), (workload, values)
                assert all(values[k] == 0 for k in LAYER_IDLE[workload]), (workload, values)
                assert abs(values["trace.self_sum_s"] - values["trace.op_wall_s"]) < 1e-6
            print(f"ok  {workload} trace={trace}: {len(names)} declared metrics emitted")


def test_exact_repeat_mismatch_fails():
    """A count that differs from an earlier run of the same sources is a failure."""
    run_toy("project_cold", 1)
    path = BENCH_DIR / "out" / "toy" / "repeat" / f"{source_digest()[:16]}-project_cold-7.json"
    saved = path.read_text()
    try:
        doc = json.loads(saved)
        doc["counts"]["birkhoff.project.iters"] += 1
        path.write_text(json.dumps(doc))
        result, stdout = run_toy("project_cold", 1, expect_rc=1)
        assert not result["correct"] and result["failed"] >= 1
        assert "exact-repeat mismatch" in stdout
    finally:
        path.write_text(saved)
    print("ok  an exact-repeat mismatch counts as a failure")


def _failed(wl, inputs, step, output):
    r = W.Step([0.1], [None], 0.1, output)
    attempted, failed, problems = check_results(wl, inputs, [(step, r)])
    return attempted, failed, problems


def test_checkers_count_failures():
    rng = np.random.default_rng(0)
    wl = W.ProjectCold(W.ProjectSize(pool=1))

    bad = SimpleNamespace(ds=SimpleNamespace(m=np.array([[1.5, -0.5], [-0.5, 1.5]])),
                          gap=0.0, converged=True)
    inputs = [(np.eye(2), True)]
    assert _failed(wl, inputs, 0, bad)[:2] == (1, 1)

    p0 = rng.standard_normal((8, 8))
    res = birkhoff.project_to_birkhoff(p0, eps=2e-9, k_max=2)
    assert not res.converged
    attempted, failed, problems = _failed(wl, [(p0, False)], 0, res)
    assert (attempted, failed) == (1, 1) and any("not converged" in p for p in problems)

    good = birkhoff.project_to_birkhoff(p0, eps=2e-9)
    assert _failed(wl, [(p0, False)], 0, good)[:2] == (1, 0)
    print("ok  project checker counts an infeasible matrix and a non-converged projection")

    kw = W.KnownOrderPath(W.TOY_SIZES["known_order_path"])
    inputs = kw.make_inputs(3, BENCH_DIR / "out" / "toy" / "work")
    inst = inputs[0]
    params = scoring.McpParams(0.3, 2.0)
    ch = solver.estimate_cholesky(inst.inst.ordering, inst.cov, params,
                                  solver.SolverSettings(k_max=1))
    assert not ch.all_converged
    nll = scoring.neg_log_likelihood(ch.l, inst.inst.ordering, inst.cov)
    attempted, failed, problems = _failed(kw, inputs, (0, 0.3), (ch, nll, 1.0))
    assert (attempted, failed) == (1, 1) and any("converge" in p for p in problems)
    attempted, failed, _ = _failed(kw, inputs, (0, 0.3), (ch, float("nan"), 1.0))
    assert failed == 1
    print("ok  factor checker counts a non-converged L-step and a non-finite score")

    rows, problems = W.parse_benchmark_csv("p,s\n1,2\n", reps=1)
    assert problems and not rows
    header = W.EXPECTED_CSV_HEADER
    text = header + "\n100,100,0,0,,,,,,0.5,error\n100,100,mean,,,,,,,,error\n"
    rows, problems = W.parse_benchmark_csv(text, reps=1)
    assert not problems and W.check_replicate(rows[0])
    print("ok  table1 checker counts a wrong CSV header and a failed replicate row")


if __name__ == "__main__":
    test_checkers_count_failures()
    test_metrics_emitted()
    test_exact_repeat_mismatch_fails()
    print("selftest passed")
