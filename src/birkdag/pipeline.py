"""The alternating estimation loop and eBIC-based tuning.

One outer iteration estimates an ordering for the current Cholesky
factor (relaxation + rounding), then re-estimates the factor for that
ordering (row-decoupled coordinate descent).  The loop keeps the best
iterate by penalized score and stops when the ordering repeats with no
score improvement.

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


@dataclass(frozen=True)
class RrcfConfig:
    """Configuration of the alternating fit.

    ``init`` selects the starting ordering: "variance" sorts variables
    by ascending sample variance (the informative choice for models with
    comparable noise scales), "identity" keeps the input order.  When
    ``relax.mu`` is None (the default), each ordering step uses the
    largest convexity-preserving mu, max(centered threshold, 0), of the
    current factor; an explicit ``relax.mu`` is used as given.
    ``anchor`` sets the gradient-projection warm start to
    anchor * (incumbent vertex) + (1 - anchor) * (polytope center), so
    the rounding candidates stay local to the current ordering; 0 gives
    a fresh center start every iteration.
    """

    mcp: McpParams = McpParams(lam=0.2, gamma=2.0)
    relax: RelaxationConfig = RelaxationConfig()
    solver: SolverSettings = SolverSettings()
    outer_k_max: int = 20
    outer_eps: float = 1e-6
    seed: int = 0
    gamma_bic: float = 0.5
    init: str = "variance"
    anchor: float = 0.5

    def __post_init__(self):
        if self.outer_k_max < 1:
            raise ValueError("outer_k_max must be at least 1")
        if self.outer_eps < 0:
            raise ValueError("outer_eps must be nonnegative")
        if self.init not in ("variance", "identity"):
            raise ValueError(f"init must be 'variance' or 'identity', got {self.init!r}")
        if not 0.0 <= self.gamma_bic <= 1.0:
            raise ValueError("gamma_bic must lie in [0, 1]")
        if not 0.0 <= self.anchor <= 1.0:
            raise ValueError("anchor must lie in [0, 1]")


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
    objective), then re-estimates the factor.  Returns the iterate with
    the lowest penalized score seen; ``converged`` reports whether the
    ordering reached a fixed point with stagnant score before the
    iteration cap.
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
    prev_order = None
    prev_total = None
    converged = False
    for _ in range(cfg.outer_k_max):
        diag["n_outer"] += 1
        thresholds = convexity_thresholds(l, s)
        relax = cfg.relax
        if relax.mu is None:
            relax = replace(relax, mu=max(thresholds[1], 0.0))
        diag["mu"].append(relax.mu)
        diag["thresholds"].append(thresholds)

        p_init = DoublyStochastic(cfg.anchor * order.matrix() + (1.0 - cfg.anchor) * center)
        est = estimate_permutation(l, s, relax, rng, p_init=p_init, incumbent=order)
        order = est.perm
        diag["gp_converged"].append(est.gp_converged)
        diag["snapped"].append(est.snapped)

        ch = estimate_cholesky(order, s, cfg.mcp, cfg.solver)
        l = ch.l
        diag["solver_sweeps_max"].append(int(ch.sweeps.max()))
        diag["solver_unconverged_rows"].append(int((~ch.converged).sum()))

        breakdown = penalized_score(l, order, s, sp_params)
        score_trace.append(breakdown)
        if breakdown.total < best_total:
            best_total = breakdown.total
            best = (l, order)
        if (
            prev_order is not None
            and np.array_equal(order.pi, prev_order.pi)
            and abs(breakdown.total - prev_total) < cfg.outer_eps
        ):
            converged = True
            break
        prev_order, prev_total = order, breakdown.total

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

    mus and etas extend the grid for the underdetermined regime n < p,
    where no convexity-preserving mu exists and both become free knobs;
    with n >= p they default to the automatic rules and may be left
    empty.
    """

    lambdas: tuple = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    gammas: tuple = (2.0,)
    mus: tuple = ()
    etas: tuple = ()
    gamma_bic: float = 0.5

    def __post_init__(self):
        if len(self.lambdas) == 0 or len(self.gammas) == 0:
            raise ValueError("lambdas and gammas must be non-empty")
        if not 0.0 <= self.gamma_bic <= 1.0:
            raise ValueError("gamma_bic must lie in [0, 1]")

    def cells(self, n: int, p: int):
        """Grid cells in lexicographic order; (mu, eta) vary only when n < p."""
        if n < p and (self.mus or self.etas):
            mus = self.mus or (None,)
            etas = self.etas or (None,)
            return [
                {"lam": l, "gamma": g, "mu": m, "eta": e}
                for l, g, m, e in product(self.lambdas, self.gammas, mus, etas)
            ]
        return [
            {"lam": l, "gamma": g, "mu": None, "eta": None}
            for l, g in product(self.lambdas, self.gammas)
        ]


def cell_config(cfg: RrcfConfig, cell: dict, **changes) -> RrcfConfig:
    """cfg with a grid cell's lam, gamma and (when not None) mu, eta applied.

    ``changes`` are further RrcfConfig fields to replace.
    """
    relax = cfg.relax
    if cell["mu"] is not None:
        relax = replace(relax, mu=float(cell["mu"]))
    if cell["eta"] is not None:
        relax = replace(relax, eta=float(cell["eta"]))
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
