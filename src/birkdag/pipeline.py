"""The alternating estimation loop and eBIC-based tuning.

One outer iteration estimates an ordering for the current Cholesky
factor (relaxation + rounding), then re-estimates the factor for that
ordering (row-decoupled coordinate descent).  The loop keeps the best
iterate by penalized score and stops when an ordering step after the
first returns the ordering it started from.

A note on scales: the row solver minimizes, per row,
x^t A x - 2 log x_k + sum rho(|x_j|; lam, gamma), whose total over rows
is twice the likelihood part of the reported score plus the penalty.
Minimizing it is equivalent to minimizing
nll + sum rho(.; lam/2, 2 gamma), so score traces and best-iterate
comparisons use the MCP at (lam/2, 2 gamma): that is the single
objective the L-step actually descends, halved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from birkdag.birkhoff import (
    DoublyStochastic,
    RelaxationConfig,
    convexity_thresholds,
    estimate_permutation,
)
from birkdag.scoring import McpParams, ScoreBreakdown, ebic, neg_log_likelihood, penalized_score
from birkdag.sem import (
    CholeskyFactor,
    DataMatrix,
    NoiseVariances,
    Permutation,
    SampleCovariance,
    WeightedAdjacency,
    cholesky_to_adjacency,
    sample_covariance,
)
from birkdag.solver import SolverSettings, estimate_cholesky

# Each ordering step starts gradient projection from
# ANCHOR * (incumbent vertex) + (1 - ANCHOR) * (polytope center): an
# interior start that keeps the rounding candidates near the current
# ordering.  0 (a fresh center start) and 0.9 gave the same orderings as
# 0.5 at p = 30 and p = 100, so the value is fixed rather than tuned.
ANCHOR = 0.5


@dataclass(frozen=True)
class RrcfConfig:
    """Configuration of the alternating fit.

    ``init`` selects the starting ordering: "variance" sorts variables
    by ascending sample variance (the informative choice for models with
    comparable noise scales), "identity" keeps the input order.  When
    ``relax.mu`` is None (the default), each ordering step uses the
    largest convexity-preserving mu, max(centered threshold, 0), of the
    current factor; an explicit ``relax.mu`` is used as given.
    ``outer_k_max`` caps the number of ordering steps; the fit stops
    earlier once an ordering step returns its incumbent.
    """

    mcp: McpParams = McpParams(lam=0.2, gamma=2.0)
    relax: RelaxationConfig = RelaxationConfig()
    solver: SolverSettings = SolverSettings()
    outer_k_max: int = 20
    seed: int = 0
    gamma_bic: float = 0.5
    init: str = "variance"

    def __post_init__(self):
        if self.outer_k_max < 1:
            raise ValueError("outer_k_max must be at least 1")
        if self.init not in ("variance", "identity"):
            raise ValueError(f"init must be 'variance' or 'identity', got {self.init!r}")
        if not 0.0 <= self.gamma_bic <= 1.0:
            raise ValueError("gamma_bic must lie in [0, 1]")


@dataclass(frozen=True)
class FitResult:
    l_hat: CholeskyFactor
    perm_hat: Permutation
    b_hat: WeightedAdjacency
    omega_hat: NoiseVariances
    score_trace: list[ScoreBreakdown]
    ebic_value: float
    converged: bool
    diagnostics: dict

    @property
    def best_score(self) -> float:
        return min(b.total for b in self.score_trace)


def score_params(params: McpParams) -> McpParams:
    """MCP parameters under which the reported score is half the solver objective."""
    return McpParams(lam=0.5 * params.lam, gamma=2.0 * params.gamma)


def _initial_order(s: SampleCovariance, init: str) -> Permutation:
    if init == "variance":
        return Permutation(np.argsort(np.diag(s.s), kind="stable"))
    return Permutation.identity(s.p)


def fit(x: DataMatrix | np.ndarray, cfg: RrcfConfig = RrcfConfig()) -> FitResult:
    """Alternate ordering estimation and sparse factor estimation.

    Starts from the configured initial ordering with the diagonal factor
    L_aa = 1/sqrt(S^P_aa).  Each iteration estimates a permutation for
    the current factor (the incumbent ordering always stays in the
    candidate pool, so the ordering step never degrades the trace
    objective), then re-estimates the factor.  The L-step is
    deterministic in the ordering, so when an ordering step after the
    first returns its incumbent the fit has reached a fixed point and
    stops before re-running it; ``converged`` reports that.  Returns the
    iterate with the lowest penalized score seen.

    ``diagnostics`` holds one entry per ordering step under "mu",
    "thresholds", "gp_converged" and "snapped", and one per L-step under
    "solver_sweeps_max" and "solver_unconverged_rows", matching
    ``score_trace``; "n_outer" counts ordering steps, so a converged fit
    has n_outer - 1 L-steps.
    """
    if not isinstance(x, DataMatrix):
        x = DataMatrix(np.asarray(x, dtype=float))
    if x.p < 2:
        raise ValueError("fit requires at least two variables")
    s = sample_covariance(x)
    rng = np.random.default_rng(cfg.seed)
    sp_params = score_params(cfg.mcp)

    order = _initial_order(s, cfg.init)
    sp = order.apply_to_matrix(s.s)
    l = CholeskyFactor(np.diag(1.0 / np.sqrt(np.diag(sp))))

    score_trace: list[ScoreBreakdown] = []
    best_total = np.inf
    best: tuple[CholeskyFactor, Permutation] = (l, order)
    diag: dict = {
        "mu": [],
        "gp_converged": [],
        "snapped": [],
        "solver_sweeps_max": [],
        "solver_unconverged_rows": [],
        "thresholds": [],
        "n_outer": 0,
    }
    center = DoublyStochastic.center(s.p).m
    converged = False
    for k in range(cfg.outer_k_max):
        diag["n_outer"] += 1
        thresholds = convexity_thresholds(l, s)
        relax = cfg.relax
        if relax.mu is None:
            relax = replace(relax, mu=max(thresholds[1], 0.0))
        diag["mu"].append(relax.mu)
        diag["thresholds"].append(thresholds)

        p_init = DoublyStochastic(ANCHOR * order.matrix() + (1.0 - ANCHOR) * center)
        est = estimate_permutation(l, s, relax, rng, p_init=p_init, incumbent=order)
        diag["gp_converged"].append(est.gp_converged)
        diag["snapped"].append(est.snapped)
        if k > 0 and np.array_equal(est.perm.pi, order.pi):
            converged = True
            break
        order = est.perm

        ch = estimate_cholesky(order, s, cfg.mcp, cfg.solver)
        l = ch.l
        diag["solver_sweeps_max"].append(int(ch.sweeps.max()))
        diag["solver_unconverged_rows"].append(int((~ch.converged).sum()))

        breakdown = penalized_score(l, order, s, sp_params)
        score_trace.append(breakdown)
        if breakdown.total < best_total:
            best_total = breakdown.total
            best = (l, order)

    l_hat, perm_hat = best
    b_perm, omega_perm = cholesky_to_adjacency(l_hat)
    inv = perm_hat.inverse()
    b_hat = WeightedAdjacency(inv.apply_to_matrix(b_perm.b))
    omega = np.empty(s.p)
    omega[perm_hat.pi] = omega_perm.omega2
    nll_best = neg_log_likelihood(l_hat, perm_hat, s)
    ebic_value = ebic(x.n * nll_best, l_hat.support_size(), x.n, x.p, cfg.gamma_bic)
    return FitResult(
        l_hat=l_hat,
        perm_hat=perm_hat,
        b_hat=b_hat,
        omega_hat=NoiseVariances(omega),
        score_trace=score_trace,
        ebic_value=ebic_value,
        converged=converged,
        diagnostics=diag,
    )


@dataclass(frozen=True)
class TuningGrid:
    """Grid of tuning parameters searched by eBIC.

    mus extends the grid for the underdetermined regime n < p, where no
    convexity-preserving mu exists and mu becomes a free knob; with
    n >= p, or when mus is empty, every cell keeps the configured mu
    (automatic by default).
    """

    lambdas: tuple = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    gammas: tuple = (2.0,)
    mus: tuple = ()
    gamma_bic: float = 0.5

    def __post_init__(self):
        if len(self.lambdas) == 0 or len(self.gammas) == 0:
            raise ValueError("lambdas and gammas must be non-empty")
        if not 0.0 <= self.gamma_bic <= 1.0:
            raise ValueError("gamma_bic must lie in [0, 1]")

    def cells(self, n: int, p: int):
        """Grid cells in lexicographic order; mu varies only when n < p."""
        mus = self.mus if n < p and self.mus else (None,)
        return [
            {"lam": l, "gamma": g, "mu": m}
            for l, g, m in product(self.lambdas, self.gammas, mus)
        ]


def cell_config(cfg: RrcfConfig, cell: dict, **changes) -> RrcfConfig:
    """cfg with a grid cell's lam, gamma and (when not None) mu applied.

    ``changes`` are further RrcfConfig fields to replace.
    """
    relax = cfg.relax
    if cell["mu"] is not None:
        relax = replace(relax, mu=float(cell["mu"]))
    mcp = McpParams(lam=float(cell["lam"]), gamma=float(cell["gamma"]))
    return replace(cfg, mcp=mcp, relax=relax, **changes)


def tune(
    x: DataMatrix | np.ndarray,
    grid: TuningGrid = TuningGrid(),
    cfg: RrcfConfig = RrcfConfig(),
    outer_k_max: int = 1,
) -> tuple[dict, list[dict]]:
    """Select tuning parameters by eBIC over the grid.

    Each cell runs a short fit (one outer iteration by default) and is
    scored by the eBIC of the fitted factor on the full-data
    log-likelihood scale, 2 n nll + s log n + 4 s gamma_bic log p.
    Returns (best cell, table); the best cell is the eBIC argmin with
    ties resolved by grid order.
    """
    if not isinstance(x, DataMatrix):
        x = DataMatrix(np.asarray(x, dtype=float))
    table = []
    best = None
    for cell in grid.cells(x.n, x.p):
        res = fit(x, cell_config(cfg, cell, outer_k_max=outer_k_max, gamma_bic=grid.gamma_bic))
        row = dict(cell)
        row["ebic"] = res.ebic_value
        row["support"] = res.l_hat.support_size()
        table.append(row)
        if best is None or row["ebic"] < best["ebic"]:
            best = row
    return best, table
