"""The three benchmark workloads: inputs from a seed, ops, output checks.

Every workload is a closed loop with one client: the next step starts only
after the previous one returned.  The timed loop cycles through a fixed,
seed-determined list of steps; a step yields one or more ops (a ``birkdag
benchmark`` command yields one op per replicate).  The first ``pass_len``
steps form the *pass*: repeating it repeats exactly the same work, which
is what makes the traced counts and the result quality exact.

Why these three (see also BENCHMARK.json):

* ``table1_p100`` is the paper's Table-1 setting and the only workload that
  runs every layer, including replicate-level ``--threads``; the ordering
  step (warm projections at p=100, GP) holds most of its busy time.
* ``project_cold`` isolates the dual-ascent projection kernel at small p
  and cold start, where per-iteration overhead dominates; nothing else
  runs.  A change that helps warm p=100 calls and hurts cold small ones
  shows as a gain on one and a loss on the other.
* ``known_order_path`` is the factor step alone (the L-step solver and the
  scores), at a larger p than in ``table1_p100``; an ordering-layer change
  should leave it unchanged.

Calls into birkdag go through module attributes (``birkhoff.project_to_
birkhoff``, ``solver.estimate_cholesky``, ...) so the traced pass sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from birkdag import birkhoff, cli, metrics, scoring, sem, solver
from birkdag.pipeline import score_params

# Header of the benchmark CSV, as the program must write it.
EXPECTED_CSV_HEADER = (
    "setting_p,setting_s,rep,seed,tpr,fpr,shd,scaled_frob,ebic,runtime_seconds,status"
)
QUALITY_KEYS = ("tpr", "fpr", "shd", "scaled_frob", "ebic")

PROJECTION_TOL = 1e-8


@dataclass
class Step:
    """Result of one step: its ops' durations and whether each op passed."""

    durations: list
    ok: list
    wall: float
    output: object = None
    problems: tuple = ()
    # filled in by the timed loop: the same times scaled to nominal host speed
    norm_durations: list | None = None
    norm_wall: float | None = None


# ---------------------------------------------------------------- project_cold


@dataclass(frozen=True)
class ProjectSize:
    pool: int = 2000
    pass_len: int = 500
    p_min: int = 2
    p_max: int = 20
    eps: float = 2e-9


def _random_doubly_stochastic(p, rng, k=6):
    # convex combination of k permutation matrices, as in acceptance criterion 1
    w = rng.dirichlet(np.ones(k))
    m = np.zeros((p, p))
    for wi in w:
        m[np.arange(p), rng.permutation(p)] += wi
    return m


def check_projection(p0, res, feasible_input: bool) -> list[str]:
    """Problems with one projection result; empty when it passes."""
    problems = []
    m = np.asarray(res.ds.m)
    if not res.converged:
        problems.append("not converged")
    if not res.gap <= PROJECTION_TOL:
        problems.append(f"gap {res.gap!r} > {PROJECTION_TOL}")
    if not m.min() >= -PROJECTION_TOL:
        problems.append(f"min entry {m.min()!r} < -{PROJECTION_TOL}")
    marg = max(np.abs(m.sum(axis=0) - 1.0).max(), np.abs(m.sum(axis=1) - 1.0).max())
    if not marg <= PROJECTION_TOL:
        problems.append(f"marginal error {marg!r} > {PROJECTION_TOL}")
    if feasible_input:
        idem = float(np.abs(m - p0).max())
        if not idem <= PROJECTION_TOL:
            problems.append(f"idempotence error {idem!r} > {PROJECTION_TOL}")
    return problems


class ProjectCold:
    """Cold projections (no warm duals) at p in [2, 20]; one op is one call."""

    def __init__(self, size: ProjectSize = ProjectSize()):
        self.size = size

    def make_inputs(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        pool = []
        for i in range(self.size.pool):
            p = int(rng.integers(self.size.p_min, self.size.p_max + 1))
            feasible = i % 10 == 0  # one in ten is already doubly stochastic
            p0 = _random_doubly_stochastic(p, rng) if feasible else rng.standard_normal((p, p))
            pool.append((p0, feasible))
        return pool

    def steps(self, inputs):
        return range(len(inputs))

    @property
    def pass_len(self) -> int:
        return self.size.pass_len

    def run_step(self, inputs, i, tracer=None) -> Step:
        p0, _ = inputs[i]
        t0 = time.perf_counter()
        if tracer is None:
            res = birkhoff.project_to_birkhoff(p0, eps=self.size.eps)
        else:
            res = tracer.op(birkhoff.project_to_birkhoff, p0, eps=self.size.eps)
        wall = time.perf_counter() - t0
        return Step([wall], [None], wall, res)

    def check(self, inputs, i, step: Step):
        p0, feasible = inputs[i]
        step.problems = tuple(check_projection(p0, step.output, feasible))
        step.ok = [not step.problems]

    def quality(self, inputs, first_pass):
        return {}


# ------------------------------------------------------------ known_order_path


@dataclass(frozen=True)
class KnownOrderSize:
    instances: int = 16
    pass_instances: int = 3
    p: int = 200
    s: int = 200
    n: int = 300
    lambdas: tuple = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    gamma: float = 2.0
    gamma_bic: float = 0.5
    # Sweep cap per row.  The solver's default of 500 is too small for a few
    # rows at this size: on seed 2000, instance 11 at lambda 0.2 has a row
    # that converges after 734 sweeps.  The op is a fit run to convergence,
    # so the cap is raised; a row still unconverged at the cap is a failure.
    sweep_cap: int = 20000


@dataclass
class _Instance:
    inst: sem.SemInstance
    cov: sem.SampleCovariance
    n: int


def check_factor(ch, nll, ebic_value, perm, cov, params) -> list[str]:
    """Problems with one L-step fit at a fixed ordering; empty when it passes."""
    problems = []
    if not ch.all_converged:
        problems.append(f"{int((~ch.converged).sum())} row(s) did not converge")
    if not (math.isfinite(nll) and math.isfinite(ebic_value)):
        problems.append(f"non-finite score: nll={nll!r} ebic={ebic_value!r}")
        return problems
    total = scoring.penalized_score(ch.l, perm, cov, score_params(params)).total
    sp = perm.apply_to_matrix(cov.s)
    if not solver.check_lower_bounds(ch.l, sp, params, total):
        problems.append("check_lower_bounds failed")
    return problems


class KnownOrderPath:
    """L-step at the true ordering over a lambda path; one op is one lambda fit."""

    def __init__(self, size: KnownOrderSize = KnownOrderSize()):
        self.size = size

    def make_inputs(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.size.instances):
            inst = sem.generate_dag(self.size.p, self.size.s, rng)
            x = sem.sample_data(inst, self.size.n, rng)
            out.append(_Instance(inst, sem.sample_covariance(x), x.n))
        return out

    def steps(self, inputs):
        # The pass (whole lambda paths of the first instances) comes first.
        # The other fits follow in a fixed shuffled order, so that a run
        # that ends early still samples every instance and every lambda.
        steps = [(k, lam) for k in range(len(inputs)) for lam in self.size.lambdas]
        rest = steps[self.pass_len:]
        order = np.random.default_rng(0).permutation(len(rest))
        return steps[:self.pass_len] + [rest[i] for i in order]

    @property
    def pass_len(self) -> int:
        # the timed loop averages over all instances; quality and the traced
        # pass use the first few
        return self.size.pass_instances * len(self.size.lambdas)

    def _fit(self, inst: _Instance, lam: float):
        perm = inst.inst.ordering
        ch = solver.estimate_cholesky(perm, inst.cov, scoring.McpParams(lam, self.size.gamma),
                                      solver.SolverSettings(k_max=self.size.sweep_cap))
        nll = scoring.neg_log_likelihood(ch.l, perm, inst.cov)
        value = scoring.ebic(inst.n * nll, ch.l.support_size(), inst.n, inst.cov.p,
                             self.size.gamma_bic)
        return ch, float(nll), float(value)

    def run_step(self, inputs, step, tracer=None) -> Step:
        k, lam = step
        t0 = time.perf_counter()
        if tracer is None:
            out = self._fit(inputs[k], lam)
        else:
            out = tracer.op(self._fit, inputs[k], lam)
        wall = time.perf_counter() - t0
        return Step([wall], [None], wall, out)

    def check(self, inputs, step, result: Step):
        k, lam = step
        ch, nll, value = result.output
        inst = inputs[k]
        result.problems = tuple(check_factor(
            ch, nll, value, inst.inst.ordering, inst.cov,
            scoring.McpParams(lam, self.size.gamma)))
        result.ok = [not result.problems]

    def quality(self, inputs, first_pass):
        """Means over instances at each instance's eBIC-selected lambda."""
        best = {}
        for (k, lam), result in first_pass:
            ch, _, value = result.output
            if k not in best or value < best[k][1]:
                best[k] = (ch, value)
        rows = []
        for k, (ch, value) in sorted(best.items()):
            inst = inputs[k].inst
            b_perm, _ = sem.cholesky_to_adjacency(ch.l)
            b_hat = sem.WeightedAdjacency(inst.ordering.inverse().apply_to_matrix(b_perm.b))
            tpr, fpr, shd = metrics.structure_metrics(
                metrics.extract_edges(b_hat), metrics.extract_edges(inst.adjacency))
            rows.append({"tpr": tpr, "fpr": fpr, "shd": shd,
                         "scaled_frob": metrics.scaled_frobenius(b_hat, inst.adjacency),
                         "ebic": value})
        return {key: float(np.mean([r[key] for r in rows])) for key in QUALITY_KEYS}


# ----------------------------------------------------------------- table1_p100


@dataclass(frozen=True)
class Table1Size:
    p: int = 100
    s: int = 100
    n: int = 150
    lambdas: tuple = (0.3, 0.4, 0.5, 0.6, 0.7)
    gammas: tuple = (2.0,)
    outer_k_max: int = 12
    max_threads: int = 2
    # Replicates per thread in one command: two, so that every run measures
    # one whole command of 2T replicates and no run stops after half of it.
    reps_per_thread: int = 2


_NP_FLOAT_REPR = re.compile(r"^np\.float64\((.*)\)$")


def _parse_float(cell: str) -> float:
    # the ebic column is written as "np.float64(x)" under numpy 2; accept both
    m = _NP_FLOAT_REPR.match(cell)
    return float(m.group(1) if m else cell)


def parse_benchmark_csv(text: str, reps: int):
    """(replicate rows, problems) of a ``birkdag benchmark`` CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != EXPECTED_CSV_HEADER:
        return [], [f"CSV header is {lines[0] if lines else ''!r}"]
    cols = EXPECTED_CSV_HEADER.split(",")
    rows, problems = [], []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            problems.append(f"CSV row has {len(cells)} cells: {line!r}")
            continue
        row = dict(zip(cols, cells))
        if row["rep"] != "mean":
            rows.append(row)
    if len(rows) != reps:
        problems.append(f"{len(rows)} replicate rows, expected {reps}")
    return rows, problems


def check_replicate(row: dict) -> list[str]:
    problems = []
    if row["status"] != "ok":
        problems.append(f"replicate {row['rep']} status={row['status']}")
        return problems
    try:
        runtime = float(row["runtime_seconds"])
        for key in QUALITY_KEYS:
            _parse_float(row[key])
    except ValueError as exc:
        return [f"replicate {row['rep']}: unparsable cell ({exc})"]
    if not runtime > 0:
        problems.append(f"replicate {row['rep']} runtime_seconds={runtime!r}")
    return problems


class Table1:
    """``birkdag --threads T benchmark`` on the Table-1 (100, 100) setting.

    One step is one command with 2T replicates (T = min(nproc, max_threads));
    one op is one replicate: generate, tune over the lambda grid, then fit.
    The op time is the replicate's own ``runtime_seconds``.
    """

    def __init__(self, size: Table1Size = Table1Size(), nproc: int = 1):
        self.size = size
        self.threads = max(1, min(nproc, size.max_threads))
        self.reps = self.threads * size.reps_per_thread

    def make_inputs(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        spec = {
            "settings": [[self.size.p, self.size.s]],
            "n": self.size.n,
            "reps": self.reps,
            "seed": seed,
            "grid": {"lambdas": list(self.size.lambdas), "gammas": list(self.size.gammas)},
            "outer_k_max": self.size.outer_k_max,
            "measure_runtime": True,
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec) + "\n")
        return {"spec": spec_path, "csv": workdir / "out.csv"}

    def steps(self, inputs):
        return [0]

    pass_len = 1

    def run_step(self, inputs, step, tracer=None) -> Step:
        argv = ["--threads", str(self.threads), "benchmark",
                "--spec", str(inputs["spec"]), "--out", str(inputs["csv"])]
        inputs["csv"].unlink(missing_ok=True)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
        text = inputs["csv"].read_text() if inputs["csv"].exists() else ""
        rows, problems = parse_benchmark_csv(text, self.reps)
        if rc != 0:
            problems.append(f"exit code {rc}: {sink.getvalue().strip()[-300:]}")
        durations = []
        for row in rows:
            try:
                durations.append(float(row["runtime_seconds"]))
            except ValueError:
                durations.append(math.nan)
        # ops that never produced a row still count as attempted
        durations += [math.nan] * (self.reps - len(durations))
        return Step(durations, [None] * self.reps, wall, rows, tuple(problems))

    def check(self, inputs, step, result: Step):
        rows = result.output
        command_ok = not result.problems
        per_row = [check_replicate(r) for r in rows]
        per_row += [["no row"]] * (self.reps - len(per_row))
        result.ok = [command_ok and not p for p in per_row]
        result.problems = result.problems + tuple(p for ps in per_row for p in ps)

    def quality(self, inputs, first_pass):
        rows = [r for _, result in first_pass for r in result.output]
        q = {}
        for key in QUALITY_KEYS:
            vals = []
            for r in rows:
                try:
                    vals.append(_parse_float(r[key]))
                except ValueError:
                    vals.append(math.nan)
            q[key] = float(np.mean(vals)) if vals else math.nan
        return q


# Toy sizes for the self-test: every layer still runs, in about a second.
TOY_SIZES = {
    "table1_p100": Table1Size(p=8, s=8, n=40, lambdas=(0.4, 0.6), outer_k_max=2,
                              reps_per_thread=1),
    "project_cold": ProjectSize(pool=40, pass_len=20, p_max=6),
    "known_order_path": KnownOrderSize(instances=3, pass_instances=2, p=12, s=12, n=60,
                                       lambdas=(0.3, 0.5)),
}


WORKLOADS = {"table1_p100": Table1, "project_cold": ProjectCold,
             "known_order_path": KnownOrderPath}


def make_workload(name: str, nproc: int, toy: bool = False):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    kwargs = {"size": TOY_SIZES[name]} if toy else {}
    if name == "table1_p100":
        kwargs["nproc"] = nproc
    return WORKLOADS[name](**kwargs)
