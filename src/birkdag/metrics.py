"""Structure-recovery metrics and the simulation benchmark harness."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from birkdag.pipeline import RrcfConfig, TuningGrid, fit, tune
from birkdag.scoring import McpParams
from birkdag.sem import WeightedAdjacency, generate_dag, sample_data


@dataclass(frozen=True)
class EdgeSet:
    """Directed edges as ordered pairs (k, j) meaning k -> j, 0-based."""

    edges: frozenset
    p: int

    def __post_init__(self):
        for k, j in self.edges:
            if k == j:
                raise ValueError(f"self-loop ({k}, {j}) is not a valid edge")
            if not (0 <= k < self.p and 0 <= j < self.p):
                raise ValueError(f"edge ({k}, {j}) out of range for p={self.p}")
        object.__setattr__(self, "edges", frozenset(self.edges))


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark run: settings x replicates with eBIC tuning.

    ``measure_runtime`` stamps wall-clock seconds into the rows; it is
    off by default so that identical (spec, seed) runs produce
    byte-identical output.
    """

    settings: tuple = ((100, 100), (100, 200))
    n: int = 150
    reps: int = 20
    grid: TuningGrid = TuningGrid()
    seed: int = 0
    outer_k_max: int = 12
    measure_runtime: bool = False

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.outer_k_max < 1:
            raise ValueError("outer_k_max must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        settings = tuple((int(p), int(s)) for p, s in self.settings)
        if len(set(settings)) != len(settings):
            raise ValueError(f"settings must be distinct, got {settings}")
        for p, s in settings:
            if p < 2:
                raise ValueError(f"settings require p >= 2, got p={p}")
            if not 0 <= s <= p * (p - 1) // 2:
                raise ValueError(f"setting (p={p}, s={s}) has s out of range")
        object.__setattr__(self, "settings", settings)


def extract_edges(b: WeightedAdjacency, threshold: float = 0.0) -> EdgeSet:
    """Edges with |weight| > threshold; the default keeps exact nonzeros."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    rows, cols = np.nonzero(np.abs(b.b) > threshold)
    return EdgeSet(edges=frozenset((int(k), int(j)) for j, k in zip(rows, cols)), p=b.p)


def structure_metrics(estimated: EdgeSet, truth: EdgeSet) -> tuple[float, float, int]:
    """(TPR, FPR, SHD) of an estimated edge set against the truth.

    TPR is 1 when the truth is empty; the FPR universe is all ordered
    non-edges.  SHD counts insertions and deletions at cost 1, with a
    reversed edge collapsing one insertion + one deletion into a single
    operation.
    """
    if estimated.p != truth.p:
        raise ValueError("edge sets live on different node counts")
    p = truth.p
    inter = estimated.edges & truth.edges
    extra = estimated.edges - truth.edges
    missing = truth.edges - estimated.edges
    tpr = len(inter) / len(truth.edges) if truth.edges else 1.0
    denom = p * (p - 1) - len(truth.edges)
    fpr = len(extra) / denom if denom > 0 else 0.0
    reversals = sum(1 for (k, j) in extra if (j, k) in missing)
    shd = len(extra) + len(missing) - reversals
    return tpr, fpr, shd


def scaled_frobenius(b_hat: WeightedAdjacency, b: WeightedAdjacency) -> float:
    """(1/p) * Frobenius norm of B_hat - B."""
    if b_hat.p != b.p:
        raise ValueError("adjacency dimensions disagree")
    return float(np.linalg.norm(b_hat.b - b.b) / b.p)


CSV_HEADER = "setting_p,setting_s,rep,seed,tpr,fpr,shd,scaled_frob,ebic,runtime_seconds,status"


def _replicate_seed(base: int, setting_index: int, rep: int) -> int:
    return base * 1_000_000 + setting_index * 10_000 + rep


def _replicate_row(spec: BenchmarkSpec, setting_index: int, rep: int) -> dict:
    p, s = spec.settings[setting_index]
    return {
        "setting_p": p,
        "setting_s": s,
        "rep": rep,
        "seed": _replicate_seed(spec.seed, setting_index, rep),
        "status": "ok",
    }


def _mark_error(row: dict, text: str) -> dict:
    row.update(status="error", error=text, tpr=None, fpr=None, shd=None, scaled_frob=None,
               ebic=None)
    return row


def _run_replicate(spec: BenchmarkSpec, setting_index: int, rep: int) -> dict:
    p, s = spec.settings[setting_index]
    row = _replicate_row(spec, setting_index, rep)
    seed = row["seed"]
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(seed)
        inst = generate_dag(p, s, rng)
        data = sample_data(inst, spec.n, rng)
        best, _ = tune(data, spec.grid)
        res = fit(data, RrcfConfig(
            mcp=McpParams(best["lam"], best["gamma"]),
            seed=seed,
            gamma_bic=spec.grid.gamma_bic,
            outer_k_max=spec.outer_k_max,
        ))
        est = extract_edges(res.b_hat)
        true = extract_edges(inst.adjacency)
        tpr, fpr, shd = structure_metrics(est, true)
        row.update(
            tpr=tpr,
            fpr=fpr,
            shd=shd,
            scaled_frob=scaled_frobenius(res.b_hat, inst.adjacency),
            ebic=res.ebic_value,
        )
    except Exception as exc:  # error rows keep the run going
        _mark_error(row, f"{type(exc).__name__}: {exc}")
    row["runtime_seconds"] = time.perf_counter() - t0 if spec.measure_runtime else 0.0
    return row


def _worker_count(requested: int, jobs: int) -> int:
    """Processes for ``jobs`` replicates: min(requested, jobs, usable CPUs),
    at least 1, and 1 where the platform cannot fork."""
    if min(requested, jobs) <= 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(requested, jobs, cpus or 1)


def _worker(conn, spec: BenchmarkSpec, jobs: list) -> None:
    # Body of a forked worker: it looks _run_replicate up in this module's
    # globals, as inherited from the caller, and sends each row when done.
    for si, rep in jobs:
        conn.send(_run_replicate(spec, si, rep))


def _run_forked(spec: BenchmarkSpec, jobs: list, n: int) -> list[dict]:
    """Rows of ``jobs``, run by the caller and n - 1 forked workers.

    The caller runs jobs 0, n, 2n, ...; worker w runs jobs w, w + n, ...
    in order.  A worker that dies costs only the job it was running: that
    job gets an error row naming the exit code, and a new worker takes
    over the jobs it had left.  No worker outlives the call.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    # fork, not spawn: a worker starts with the caller's loaded modules and
    # module globals, and this function starts no thread a fork could split.
    ctx = multiprocessing.get_context("fork")
    rows = {}
    running = {}  # read end of a worker's pipe -> (process, jobs not yet received)

    def start(share):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker, args=(send, spec, share), daemon=True)
        proc.start()
        send.close()
        running[recv] = (proc, share)

    def receive(timeout):
        for conn in wait(list(running), timeout):
            proc, share = running.pop(conn)
            try:
                row = conn.recv()
            except EOFError:  # the worker exited
                conn.close()
                proc.join()
                if share:  # before it sent the row of share[0]
                    rows[share[0]] = _mark_error(
                        _replicate_row(spec, *share[0]),
                        f"worker process exited with code {proc.exitcode}")
                    if share[1:]:
                        start(share[1:])
            else:
                rows[share[0]] = row
                running[conn] = (proc, share[1:])

    try:
        for w in range(1, n):
            start(jobs[w::n])
        for si, rep in jobs[::n]:
            rows[si, rep] = _run_replicate(spec, si, rep)
            receive(0)  # keep the workers' pipes from filling up
        while running:
            receive(None)
    finally:
        for conn, (proc, _) in running.items():
            proc.terminate()
            proc.join()
            conn.close()
    return [rows[job] for job in jobs]


def run_benchmark(spec: BenchmarkSpec, workers: int = 1) -> list[dict]:
    """Run every (setting, replicate) cell and append per-setting means.

    Replicates are independent jobs with derived per-replicate seeds, so
    no row depends on where or when its replicate ran.  With ``workers``
    1 they run one at a time, in (setting, rep) order, on the caller's
    thread.  Otherwise n = min(workers, replicates, usable CPUs)
    processes share them (see ``_worker_count``): the caller runs
    replicates 0, n, 2n, ... of the (setting, rep) order itself, through
    the module-global ``_run_replicate``, and n - 1 workers forked for
    this call run the rest.  Processes, not threads, because replicates
    are CPU-bound numpy work that holds the GIL.  A worker process that
    dies turns only the replicate it was running into an error row.
    """
    import importlib

    # The ordering step's rounding loads scipy.optimize on first use (about
    # 0.2 s), and ``import birkdag`` leaves it out: load it before the first
    # replicate's timer starts, so that every replicate times the same work.
    # Workers inherit it.
    importlib.import_module("scipy.optimize")
    jobs = [(si, rep) for si in range(len(spec.settings)) for rep in range(spec.reps)]
    n = _worker_count(workers, len(jobs))
    if n == 1:
        rows = [_run_replicate(spec, si, rep) for si, rep in jobs]
    else:
        rows = _run_forked(spec, jobs, n)
    out = []
    for si, (p, s) in enumerate(spec.settings):
        block = rows[si * spec.reps:(si + 1) * spec.reps]
        out.extend(block)
        ok = [r for r in block if r["status"] == "ok"]
        mean_row = {"setting_p": p, "setting_s": s, "rep": "mean", "seed": "", "status": "ok" if ok else "error"}
        for key in ("tpr", "fpr", "shd", "scaled_frob", "ebic", "runtime_seconds"):
            mean_row[key] = float(np.mean([r[key] for r in ok])) if ok else None
        out.append(mean_row)
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def benchmark_csv(rows: list[dict]) -> str:
    """Render benchmark rows in the fixed column order, full precision."""
    lines = [CSV_HEADER]
    cols = CSV_HEADER.split(",")
    for r in rows:
        lines.append(",".join(_fmt(r.get(c)) for c in cols))
    return "\n".join(lines) + "\n"
