"""Structure-recovery metrics and the simulation benchmark harness."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from birkdag.pipeline import RrcfConfig, TuningGrid, fit, tune
from birkdag.scoring import McpParams
from birkdag.sem import WeightedAdjacency, _as_setting, _check_counts, generate_dag, sample_data


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
        _check_counts(self, n=1, reps=1, seed=0, outer_k_max=1)
        try:
            settings = tuple(_as_setting(p, s) for p, s in self.settings)
        except ValueError as exc:
            raise ValueError(f"settings must hold integer (p, s) pairs that generate_dag "
                             f"accepts: {exc}") from exc
        if len(set(settings)) != len(settings):
            raise ValueError(f"settings must be distinct, got {settings}")
        object.__setattr__(self, "settings", settings)
        if not isinstance(self.grid, TuningGrid):
            raise ValueError(f"grid must be a TuningGrid, got {self.grid!r}")
        if not isinstance(self.measure_runtime, bool):
            raise ValueError(f"measure_runtime must be a bool, got {self.measure_runtime!r}")


def extract_edges(b: WeightedAdjacency) -> EdgeSet:
    """Edges with a nonzero weight; MCP estimates have exact zeros."""
    rows, cols = np.nonzero(b.b)
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


def _run_replicates(spec: BenchmarkSpec, jobs: list, n: int) -> list[dict]:
    """Rows of ``jobs``, run by the caller and n - 1 forked workers.

    The caller runs jobs 0, n, 2n, ... and worker w runs jobs w, w + n,
    ... in order, so with n = 1 the caller runs them all and no process
    starts.  A worker that dies costs only the job it was running: that
    job gets an error row naming the exit code, and a new worker takes
    over the jobs it had left.  No worker outlives the call.
    """
    rows = {}
    running = {}  # read end of a worker's pipe -> (process, jobs not yet received)

    def start(share):
        import multiprocessing

        # fork, not spawn: a worker starts with the caller's loaded modules and
        # module globals, and this function starts no thread a fork could split.
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker, args=(send, spec, share), daemon=True)
        proc.start()
        send.close()
        running[recv] = (proc, share)

    def receive(timeout):
        from multiprocessing.connection import wait

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
            if running:
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
    no row depends on where or when its replicate ran.  n = min(workers,
    replicates, usable CPUs) processes share them (see ``_worker_count``
    and ``_run_replicates``): the caller runs replicates 0, n, 2n, ... of
    the (setting, rep) order itself, on its own thread, through the
    module-global ``_run_replicate``, and n - 1 workers forked for this
    call run the rest.  Processes, not threads, because replicates
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
    rows = _run_replicates(spec, jobs, _worker_count(workers, len(jobs)))
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


def csv_cell(value) -> str:
    """A CSV cell of every table written: floats (numpy's too) by repr(float), None empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_table(rows: list[dict], columns: tuple) -> str:
    """Rows as a CSV table: one column per (header, row key) pair, in order,
    each cell by ``csv_cell``; a key the row lacks is an empty cell."""
    lines = [",".join(header for header, _ in columns)]
    lines.extend(",".join(csv_cell(r.get(key)) for _, key in columns) for r in rows)
    return "\n".join(lines) + "\n"


def benchmark_csv(rows: list[dict]) -> str:
    """Render benchmark rows in the fixed column order, full precision."""
    return csv_table(rows, tuple((c, c) for c in CSV_HEADER.split(",")))
