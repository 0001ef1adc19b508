import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from birkdag import io as bio
from birkdag.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"
TRAJECTORY = ROOT / "tools" / "trajectory.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_commands_parse_and_inputs_load():
    # the output set keeps up with the CLI: every command parses, and the
    # grid and specs it writes are accepted
    tool = load_tool()
    parser = build_parser()
    for args in tool.commands():
        parser.parse_args(args)
    bio.grid_from_json(json.dumps(tool.GRID))
    for spec in tool.SPECS.values():
        bio.spec_from_json(json.dumps(spec))


def test_same_outputs_commands_read_only_files_that_exist(tmp_path, monkeypatch):
    # each file a command reads is written by write_inputs or by an earlier
    # command, such as the projected matrix that sample-perms reads
    tool = load_tool()
    monkeypatch.chdir(tmp_path)
    tool.write_inputs()
    written = []
    for args in tool.commands():
        for flag in ("--data", "--matrix", "--spec", "--grid"):
            if flag in args:
                path = args[args.index(flag) + 1]
                assert Path(path).is_file() or any(
                    path == out or path.startswith(out + "/") for out in written), (args, path)
        written += [args[i + 1] for i, a in enumerate(args) if a in ("--out", "--out-dir")]
    assert "projected.csv" in written


def test_same_outputs_pins_blas_to_one_thread():
    # the benchmark CSVs depend on the BLAS thread count: loading the
    # script sets it before numpy loads, whatever the caller's environment
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = ("import importlib.util, os, sys\n"
            f"spec = importlib.util.spec_from_file_location('same_outputs', {str(TOOL)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "assert 'numpy' not in sys.modules\n"
            "import numpy\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


def test_trajectory_at_toy_size_fills_every_count(tmp_path):
    out = tmp_path / "trajectory.json"
    done = subprocess.run([sys.executable, str(TRAJECTORY), "--toy", "--out", str(out)],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert list(doc) == ["counts", "timings", "runs", "meta"]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert list(doc["counts"]) == list(doc["timings"]) == workloads
    named = ("solver.lstep.sweeps", "birkhoff.project.iters", "birkhoff.gp.iters",
             "birkhoff.round.candidates", "birkhoff.order.steps", "birkhoff.order.changed")
    for counts in doc["counts"].values():
        assert set(named) <= set(counts)
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in counts.values())
    assert doc["counts"]["table1_p100"]["birkhoff.gp.iters"] > 0
    for timings in doc["timings"].values():
        assert set(timings) == {"ops_per_s", "op_s_p50", "setup_s"}
        for t in timings.values():
            assert len(t["runs"]) == 3 and t["q1"] <= t["median"] <= t["q3"]
    assert [(r["seed"], r["trace"]) for r in doc["runs"][:4]] == [
        (401, 0), (402, 0), (403, 0), (401, 1)]
    assert all(r["exit"] == 0 and r["failed"] == 0 for r in doc["runs"])
    assert doc["meta"]["toy"] is True
    assert doc["meta"]["nproc"] >= 1 and doc["meta"]["numpy"] and doc["meta"]["source_sha256"]
