#!/usr/bin/env python3
"""birkdag benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table1_p100 --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and defined in workloads.py.  With
``--trace 0`` the run is a timed closed loop and reports the end-to-end
metrics; with ``--trace 1`` it runs each step of the pass untraced and
traced, back to back, and reports the per-layer metrics (tracing.py) and
the tracing overhead.  Every output is checked; a failed check counts in
``failed`` and the run exits 1.  Metric names, units and directions come
from BENCHMARK.json.

Report lines go to standard output, then a ``meta`` line, then one JSON
result line.  The full record (metadata, every metric and every problem
found) is written under ``bench/out/results/``; the spans of a traced run
under ``bench/out/spans/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads: the default pool used a second
# core for no gain in wall time, so `--threads` would exceed nproc.
_BLAS_BEFORE = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed, scale  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Set-up is timed this many times before the timed section and after it.
# Single set-up times spread by about a third from one to the next, and
# the host drifts over a run, so the median is taken over both groups.
SETUP_REPEATS = (3, 4)
SETUP_TIMEOUT_S = 120

# Reported alongside the declared metrics, in the report lines and the record.
EXTRA_UNITS = {
    "fail_frac": ("ratio", "lower"),
    "op_s_p90": ("s", "lower"),
    "ops_per_s_raw": ("1/s", "higher"),
    "op_s_p50_raw": ("s", "lower"),
    "op_s_p90_raw": ("s", "lower"),
    "host_ref_s_median": ("s", "lower"),
    "tpr": ("ratio", "higher"),
    "fpr": ("ratio", "lower"),
    "shd": ("edges", "lower"),
    "scaled_frob": ("norm", "lower"),
    "ebic": ("score", "lower"),
}
P90_MIN_OPS = 100
# Reference-kernel timing (hostspeed.py): after about REF_EVERY_S of op time,
# with one repeat per second of op time since the last one, at most
# MAX_REF_REPEATS; FIRST_REF_REPEATS before the first step.
REF_EVERY_S = 0.25
MAX_REF_REPEATS = 25
FIRST_REF_REPEATS = 5
# A step longer than this is not normalized: the short reference timings on
# either side of it do not represent the host's speed during it.
NORMALIZE_MAX_STEP_S = 2.0


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_declaration() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def import_program():
    if not (SRC / "birkdag" / "__init__.py").is_file():
        raise BenchmarkError(f"the birkdag sources are missing under {SRC}")
    sys.path.insert(0, str(SRC))
    import birkdag

    if Path(birkdag.__file__).resolve().parent != (SRC / "birkdag").resolve():
        raise BenchmarkError(f"imported birkdag from {birkdag.__file__}, not from {SRC}")
    return birkdag


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ------------------------------------------------------------------ metadata


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_info() -> dict:
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"sha": None, "dirty": None}
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"sha": _git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def source_digest() -> str:
    """sha256 over the program and benchmark sources: the exact-repeat key."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def blas_info() -> list[dict]:
    """Version and thread count in effect of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    out = []
    for lib in libs:
        info = {"library": Path(lib).name}
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("scipy_", ""), ("", "64_")):
            get_threads = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(handle, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            info["threads"] = int(get_threads())
            info["config"] = get_config().decode(errors="replace")
            break
        out.append(info)
    return out


def run_metadata(args, n_cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "git": git_info(),
        "source_sha256": source_digest(),
        "nproc": n_cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "openblas_num_threads_env": {"pinned_to": "1", "was": _BLAS_BEFORE},
        "started_unix_s": time.time(),
    }


# -------------------------------------------------------------------- set-up


def measure_setup(args, repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters that import birkdag and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"] + (["--toy"] if args.toy else [])
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"set-up took over {SETUP_TIMEOUT_S} s") from exc
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up failed: {done.stderr.strip()[-500:]}")
    return samples


# --------------------------------------------------------------------- loops


def _run_step(wl, inputs, step, tracer=None):
    t0 = time.perf_counter()
    try:
        return wl.run_step(inputs, step, tracer)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        from workloads import Step

        return Step([math.nan], [False], time.perf_counter() - t0, None,
                    (f"raised {type(exc).__name__}: {exc}",))


def _qualities(wl, inputs, passes):
    return [wl.quality(inputs, p) for p in passes]


def _passes(results, n_steps, pass_len):
    """The complete passes in a cycle of n_steps steps: the first pass_len of each cycle."""
    return [results[i:i + pass_len] for i in range(0, len(results) - pass_len + 1, n_steps)]


def run_timed(wl, inputs, seconds):
    """Closed loop over the workload's steps, cycling, until the time is used.

    The pass (the first ``wl.pass_len`` steps) always completes; after it, a
    step starts only if a typical step still fits in the time left.  The
    reference kernel runs between steps, after about REF_EVERY_S of op time,
    and each step up to NORMALIZE_MAX_STEP_S long is normalized by the
    reference timings on either side of it.
    """
    steps = list(wl.steps(inputs))
    speed = HostSpeed()
    refs = [speed.measure(FIRST_REF_REPEATS)]
    results, segment = [], []
    since_ref = 0.0
    t_start = time.perf_counter()
    while True:
        step = steps[len(results) % len(steps)]
        r = _run_step(wl, inputs, step)
        results.append((step, r))
        segment.append(len(refs) - 1)
        since_ref += r.wall
        done = False
        if len(results) >= wl.pass_len:
            elapsed = time.perf_counter() - t_start
            done = elapsed * (1 + 1 / len(results)) > seconds
        if since_ref >= REF_EVERY_S or done:
            refs.append(speed.measure(max(1, min(MAX_REF_REPEATS, round(since_ref)))))
            since_ref = 0.0
        if done:
            break
    for (_, r), i in zip(results, segment):
        f = scale(1.0, refs[i], refs[i + 1]) if r.wall <= NORMALIZE_MAX_STEP_S else 1.0
        r.norm_durations = [d * f for d in r.durations]
        r.norm_wall = r.wall * f
    passes = _passes(results, len(steps), wl.pass_len)
    return {"results": results, "elapsed": time.perf_counter() - t_start,
            "ref_samples": speed.samples, "qualities": _qualities(wl, inputs, passes)}


def run_traced(wl, inputs, seconds):
    """Run every step untraced and traced back to back, pass after pass.

    The order within a pair alternates from step to step, so slow drift of
    the host's speed cancels out of the tracing overhead.  One tracer
    collects the spans of one pass.
    """
    from tracing import Tracer, installed, pass_metrics

    steps = list(wl.steps(inputs))[:wl.pass_len]
    passes, plain_walls, traced_walls, per_pass, span_passes = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        tracer = Tracer()
        plain, traced = [], []
        for i, step in enumerate(steps):
            for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
                if use_tracer:
                    with installed(tracer):
                        traced.append((step, _run_step(wl, inputs, step, tracer)))
                else:
                    plain.append((step, _run_step(wl, inputs, step)))
        passes += [plain, traced]
        plain_walls.append(sum(r.wall for _, r in plain))
        traced_walls.append(sum(r.wall for _, r in traced))
        per_pass.append(pass_metrics(tracer.spans))
        span_passes.append(tracer.spans)
        if time.perf_counter() - t_start + plain_walls[-1] + traced_walls[-1] > seconds:
            break
    return {"results": [r for p in passes for r in p],
            "elapsed": time.perf_counter() - t_start,
            "plain_walls": plain_walls, "traced_walls": traced_walls,
            "per_pass": per_pass, "span_passes": span_passes,
            "qualities": _qualities(wl, inputs, passes)}


# ------------------------------------------------------------------- results


def check_results(wl, inputs, results):
    attempted = failed = 0
    problems = []
    for step, r in results:
        if r.output is not None:
            wl.check(inputs, step, r)
        attempted += len(r.ok)
        failed += sum(1 for ok in r.ok if not ok)
        problems += [f"step {step!r}: {p}" for p in r.problems]
    return attempted, failed, problems


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def repeat_check(out: Path, digest: str, workload: str, seed: int, record: dict) -> list[str]:
    """Compare exact values with earlier runs of the same sources, workload and seed."""
    path = out / "repeat" / f"{digest[:16]}-{workload}-{seed}.json"
    previous = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for section, values in record.items():
        before = previous.get(section)
        if before is not None and before != values:
            diff = {k: (before.get(k), values.get(k)) for k in set(before) | set(values)
                    if before.get(k) != values.get(k)}
            problems.append(f"exact-repeat mismatch in {section}: {diff}")
        previous[section] = values
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_safe(previous), indent=1, sort_keys=True) + "\n")
    return problems


def timed_metrics(run, setup, n_ops, quality):
    """End-to-end metrics, normalized to NOMINAL_S host speed, and their raw values."""
    results = [r for _, r in run["results"]]
    m = {"setup_s": statistics.median(setup)}
    for suffix, durations_of, wall_of in (
            ("", lambda r: r.norm_durations, lambda r: r.norm_wall),
            ("_raw", lambda r: r.durations, lambda r: r.wall)):
        durations = [d for r in results for d in durations_of(r) if math.isfinite(d)]
        m["ops_per_s" + suffix] = n_ops / sum(wall_of(r) for r in results)
        m["op_s_p50" + suffix] = statistics.median(durations) if durations else math.nan
        if len(durations) >= P90_MIN_OPS:
            m["op_s_p90" + suffix] = statistics.quantiles(durations, n=10, method="inclusive")[8]
    m["host_ref_s_median"] = statistics.median(run["ref_samples"])
    m.update(quality)
    return m, len(durations)


def traced_metrics(run, quality):
    from tracing import combine_passes

    m, mismatches = combine_passes(run["per_pass"])
    for p in run["per_pass"]:
        if abs(p["trace.self_sum_s"] - p["trace.op_wall_s"]) > 1e-9 * (1 + p["trace.spans"]):
            mismatches.append(f"layer self times sum to {p['trace.self_sum_s']!r} s, "
                              f"ops took {p['trace.op_wall_s']!r} s")
    m["trace.overhead_frac"] = (
        statistics.median(run["traced_walls"]) / statistics.median(run["plain_walls"]) - 1.0)
    m["trace.passes"] = len(run["per_pass"])
    for key in ("tpr", "fpr", "shd", "scaled_frob", "ebic"):
        # 0 where the workload estimates no DAG (project_cold)
        m[f"quality.{key}"] = quality.get(key, 0.0)
    return m, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import birkdag, make the inputs and exit (times set-up)")
    ap.add_argument("--toy", action="store_true",
                    help="toy input sizes and a separate output directory (self-test)")
    args = ap.parse_args(argv)
    out = OUT / "toy" if args.toy else OUT

    try:
        declared = load_declaration()
        import_program()
        from workloads import make_workload

        n_cpu = nproc()
        wl = make_workload(args.workload, n_cpu, toy=args.toy)
        workdir = out / "work" / f"{args.workload}-{args.seed}"
        if args.setup_only:
            wl.make_inputs(args.seed, workdir)
            return 0
        setup = measure_setup(args, SETUP_REPEATS[0])
    except (BenchmarkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    meta = run_metadata(args, n_cpu)
    meta["setup_samples_s"] = setup
    if hasattr(wl, "threads"):
        meta["birkdag_threads"] = wl.threads
    inputs = wl.make_inputs(args.seed, workdir)
    run = (run_traced if args.trace else run_timed)(wl, inputs, args.seconds)
    meta["elapsed_s"] = run["elapsed"]
    if not args.trace:
        try:
            setup += measure_setup(args, SETUP_REPEATS[1])
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    attempted, failed, problems = check_results(wl, inputs, run["results"])

    # Checks on the run as a whole; each one that fails counts as one failure.
    run_problems = []
    quality = run["qualities"][0]
    if any(q != quality for q in run["qualities"][1:]):
        run_problems.append(f"result quality differs between passes: {run['qualities']}")
    record = {"quality": quality}
    if args.trace:
        from tracing import COUNT_METRICS, write_spans

        metrics, mismatches = traced_metrics(run, quality)
        run_problems += mismatches
        record["counts"] = {k: metrics[k] for k in COUNT_METRICS}
        spans_path = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        write_spans(spans_path, run["span_passes"])
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
        declared_metrics = declared["per_layer"]
        n_samples = len(run["per_pass"])
    else:
        metrics, n_samples = timed_metrics(run, setup, attempted, quality)
        declared_metrics = declared["end_to_end"]
    run_problems += repeat_check(out, meta["source_sha256"], args.workload, args.seed, record)
    missing = [d["name"] for d in declared_metrics if d["name"] not in metrics]
    if missing:
        run_problems.append(f"declared metrics not measured: {missing}")
    problems += run_problems
    failed = min(attempted, failed + len(run_problems))
    metrics["fail_frac"] = failed / attempted

    units = dict(EXTRA_UNITS)
    units.update({d["name"]: (d["unit"], d["better"]) for d in declared_metrics})
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{args.workload} {name} = {value!r} {unit} ({better} is better, n={n_samples})")
    for p in problems[:20]:
        print(f"problem: {p}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared_metrics if d["name"] in metrics},
    }
    record_path = out / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(_json_safe(
        {"meta": meta, "result": result, "metrics": metrics, "problems": problems}),
        indent=1) + "\n")
    print("meta " + json.dumps(_json_safe(meta)))
    print(json.dumps(_json_safe(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
