"""Run the benchmark over a fixed set of runs and write one trajectory file.

Usage: python3 tools/trajectory.py --out BENCH_<n>.json [--toy]

Runs ``bench/run.py`` as a subprocess for each workload in
BENCHMARK.json: seeds 401, 402 and 403 timed (``--trace 0``), then seed
401 traced (``--trace 1``), and reads each run's record under
``bench/out/results/`` (``bench/out/toy/results/`` with ``--toy``, which
passes ``--toy`` on at toy sizes for one second each).  The file it
writes holds, in this order:

* ``counts``: per workload, the traced run's machine-independent counts
  (the exact-repeat counts of ``bench/tracing.py``: L-step sweeps,
  projection and GP iterations, exact candidate evaluations, ordering
  steps and moves, ...) and its result quality;
* ``timings``: per workload, the median and quartiles of ``ops_per_s``,
  ``op_s_p50`` and ``setup_s`` over the three timed runs, with each run's
  value;
* ``runs``: each run's exit code and its attempted and failed ops;
* ``meta``: git sha, source sha256, nproc, Python, numpy, scipy and the
  loaded OpenBLAS libraries, from the first run's record.

The counts of two runs of this script on the same sources agree; the
timings do not.  Exits 1 if a run reports a failed op or check, after
writing the file, and 2 if a run cannot start.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TIMED_SEEDS = (401, 402, 403)
TRACED_SEED = 401
TIMINGS = ("ops_per_s", "op_s_p50", "setup_s")
# run length of a toy run, as in bench/selftest.py
TOY_SECONDS = 1.0
RUN_TIMEOUT_S = 1800


class TrajectoryError(Exception):
    """A benchmark run did not start or left no record."""


def run_once(workload: str, seed: int, trace: int, seconds: float, toy: bool) -> dict:
    """One bench/run.py run; returns its record with the exit code added."""
    results = BENCH / "out" / ("toy" if toy else "") / "results"
    record_path = results / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--toy"] if toy else [])
    started = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    print(f"exit {done.returncode}: {' '.join(cmd[1:])}", file=sys.stderr)
    if done.returncode not in (0, 1):
        raise TrajectoryError(f"{workload} seed {seed} trace {trace} exited "
                              f"{done.returncode}: {done.stderr.strip()[-500:]}")
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        raise TrajectoryError(f"cannot read {record_path}: {exc}") from exc
    # a record left by an earlier run would be read as this run's
    if record["meta"]["started_unix_s"] < started:
        raise TrajectoryError(f"{record_path} was not written by this run")
    record["exit"] = done.returncode
    return record


def spread(values: list[float]) -> dict:
    """Median and quartiles of values, and the values in run order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def trajectory(toy: bool) -> dict:
    sys.path.insert(0, str(BENCH))
    from tracing import COUNT_METRICS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = TOY_SECONDS if toy else float(declared["run_seconds"])
    units = {d["name"]: d["unit"] for d in declared["end_to_end"]}
    counts, timings, runs, meta = {}, {}, [], None
    for workload in (w["name"] for w in declared["workloads"]):
        timed = [run_once(workload, seed, 0, seconds, toy) for seed in TIMED_SEEDS]
        traced = run_once(workload, TRACED_SEED, 1, seconds, toy)
        m = traced["metrics"]
        counts[workload] = {k: m[k] for k in COUNT_METRICS}
        counts[workload].update({k: v for k, v in m.items() if k.startswith("quality.")})
        timings[workload] = {k: {"unit": units[k], **spread([r["metrics"][k] for r in timed])}
                             for k in TIMINGS}
        for r in (*timed, traced):
            runs.append({"workload": workload, "seed": r["meta"]["seed"],
                         "trace": r["meta"]["trace"], "exit": r["exit"],
                         "attempted": r["result"]["attempted"],
                         "failed": r["result"]["failed"]})
            if meta is None:
                meta = r["meta"]
            elif r["meta"]["source_sha256"] != meta["source_sha256"]:
                raise TrajectoryError("the sources changed between runs")
    keep = ("git", "source_sha256", "nproc", "python", "numpy", "scipy", "openblas",
            "openblas_num_threads_env", "birkdag_threads", "toy", "run_seconds")
    return {"counts": counts, "timings": timings, "runs": runs,
            "meta": {k: meta.get(k) for k in keep}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    ap.add_argument("--toy", action="store_true", help="toy sizes, one second per run")
    args = ap.parse_args(argv)
    try:
        doc = trajectory(args.toy)
    except (TrajectoryError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    failed = [r for r in doc["runs"] if r["exit"] != 0 or r["failed"]]
    for r in failed:
        print(f"failed: {r}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
