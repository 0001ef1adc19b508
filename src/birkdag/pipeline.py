"""The alternating estimation loop and eBIC-based tuning.

One outer iteration estimates the Cholesky factor for the current
ordering (row-decoupled coordinate descent), then estimates an ordering
for that factor (relaxation + rounding).  The loop keeps the best
iterate by penalized score and stops when an ordering step returns the
ordering it started from.

A note on scales: the row solver minimizes, per row,
x^t A x - 2 log x_k + sum rho(|x_j|; lam, gamma), whose total over rows
is twice the likelihood part of the reported score plus the penalty.
Minimizing it is equivalent to minimizing
nll + sum rho(.; lam/2, 2 gamma), so score traces and best-iterate
comparisons use the MCP at (lam/2, 2 gamma): that is the single
objective the L-step actually descends, halved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from birkdag.birkhoff import (
    DoublyStochastic,
    RelaxationConfig,
    convexity_thresholds,
    estimate_permutation,
)
from birkdag.scoring import (
    McpParams,
    ScoreBreakdown,
    _as_gamma_bic,
    ebic,
    neg_log_likelihood,
    penalized_score,
)
from birkdag.sem import (
    CholeskyFactor,
    DataMatrix,
    NoiseVariances,
    Permutation,
    SampleCovariance,
    WeightedAdjacency,
    _as_real,
    _check_counts,
    cholesky_to_adjacency,
    sample_covariance,
)
from birkdag.solver import estimate_cholesky, estimate_cholesky_path, gamma_guard, guard_error

# Each ordering step starts gradient projection from
# ANCHOR * (incumbent vertex) + (1 - ANCHOR) * (polytope center): an
# interior start that keeps the rounding candidates near the current
# ordering.  0 (a fresh center start) and 0.9 gave the same orderings as
# 0.5 at p = 30 and p = 100, so the value is fixed rather than tuned.
ANCHOR = 0.5


def _check_init(init: str):
    if init not in ("variance", "identity"):
        raise ValueError(f"init must be 'variance' or 'identity', got {init!r}")


@dataclass(frozen=True)
class RrcfConfig:
    """Configuration of the alternating fit.

    ``init`` selects the starting ordering: "variance" sorts variables
    by ascending sample variance (the informative choice for models with
    comparable noise scales), "identity" keeps the input order.  ``mu``
    is the relaxation weight of every ordering step; None (the default)
    means automatic, the largest convexity-preserving mu of each step's
    factor (see ``fit``).  ``outer_k_max`` caps the number of L-steps;
    the fit stops earlier once an ordering step returns its incumbent.
    The L-step and gradient projection are not configurable here: they
    run at the defaults of ``SolverSettings`` and ``RelaxationConfig``.
    """

    mcp: McpParams = McpParams(lam=0.2, gamma=2.0)
    mu: float | None = None
    outer_k_max: int = 20
    seed: int = 0
    gamma_bic: float = 0.5
    init: str = "variance"

    def __post_init__(self):
        if not isinstance(self.mcp, McpParams):
            raise ValueError(f"mcp must be an McpParams, got {self.mcp!r}")
        if self.mu is not None:
            object.__setattr__(self, "mu", RelaxationConfig(mu=self.mu).mu)
        _check_counts(self, outer_k_max=1, seed=0)
        _check_init(self.init)
        object.__setattr__(self, "gamma_bic", _as_gamma_bic(self.gamma_bic))


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


def _data_and_covariance(x, caller: str) -> tuple[DataMatrix, SampleCovariance]:
    if not isinstance(x, DataMatrix):
        x = DataMatrix(np.asarray(x, dtype=float))
    if x.p < 2:
        raise ValueError(f"{caller} requires at least two variables")
    return x, sample_covariance(x)


def _initial_order(s: SampleCovariance, init: str) -> Permutation:
    if init == "variance":
        return Permutation(np.argsort(np.diag(s.s), kind="stable"))
    return Permutation.identity(s.p)


def _ordering_step(
    l: CholeskyFactor, order: Permutation, s: SampleCovariance, mu: float | None,
    rng: np.random.Generator,
) -> dict:
    """One ordering step of ``fit`` for the factor l fitted at ``order``.

    Relaxes with ``mu`` (None: automatic, see ``fit``), starts gradient
    projection at ``ANCHOR`` between the incumbent's vertex and the
    polytope center, and ranks the rounding candidates with the
    incumbent first.  Returns the step's record: the ordering it picked
    under "perm", and "mu", "thresholds", "gp_converged", "gp_iters" and
    "snapped".
    """
    thresholds = convexity_thresholds(l, s)
    relax = RelaxationConfig(mu=max(thresholds[1], 0.0) if mu is None else mu)
    center = DoublyStochastic.center(s.p).m
    p_init = DoublyStochastic(ANCHOR * order.matrix() + (1.0 - ANCHOR) * center)
    est = estimate_permutation(l, s, relax, rng, p_init=p_init, incumbent=order)
    return {"perm": est.perm, "mu": relax.mu, "thresholds": thresholds,
            "gp_converged": est.gp_converged, "gp_iters": est.gp_iters, "snapped": est.snapped}


def fit(x: DataMatrix | np.ndarray, cfg: RrcfConfig = RrcfConfig()) -> FitResult:
    """Alternate sparse factor estimation and ordering estimation.

    Starts from the configured initial ordering.  Each iteration
    estimates the factor for the current ordering (the L-step), then,
    unless that was the last of ``outer_k_max`` L-steps, estimates a
    permutation for the new factor (the incumbent ordering always stays
    in the candidate pool, so the ordering step never degrades the trace
    objective).  The L-step is deterministic in the ordering, so when an
    ordering step returns its incumbent the fit has reached a fixed
    point and stops; ``converged`` reports that.  Returns the iterate
    with the lowest penalized score seen.

    Each ordering step relaxes with mu = ``cfg.mu`` or, when that is
    None, with max(centered convexity threshold, 0) of the step's factor
    (the second value of ``convexity_thresholds``).

    ``diagnostics`` is built once, at the end, from the loop's two lists.
    One record per ordering step (``_ordering_step``'s dict) gives "mu",
    "thresholds", "gp_converged", "gp_iters" (gradient projection
    iterations) and "snapped"; one entry per L-step gives
    "solver_sweeps_max", "solver_unconverged_rows" and
    "solver_exact_rows" (rows stopped at an exact step), matching
    ``score_trace``; "n_outer" counts ordering steps.  A converged fit
    has n_outer L-steps; a capped one has outer_k_max = n_outer + 1.
    """
    x, s = _data_and_covariance(x, "fit")
    rng = np.random.default_rng(cfg.seed)
    sp_params = score_params(cfg.mcp)

    order = _initial_order(s, cfg.init)
    # (ordering, CholeskyEstimate, score) per L-step, one record per ordering step
    l_steps, steps = [], []
    for k in range(cfg.outer_k_max):
        ch = estimate_cholesky(order, s, cfg.mcp)
        l_steps.append((order, ch, penalized_score(ch.l, order, s, sp_params)))
        if k == cfg.outer_k_max - 1:
            break
        steps.append(_ordering_step(ch.l, order, s, cfg.mu, rng))
        if np.array_equal(steps[-1]["perm"].pi, order.pi):
            break
        order = steps[-1]["perm"]

    # min keeps the first of equal scores
    perm_hat, best, best_breakdown = min(l_steps, key=lambda step: step[2].total)
    l_hat = best.l
    b_perm, omega_perm = cholesky_to_adjacency(l_hat)
    inv = perm_hat.inverse()
    b_hat = WeightedAdjacency(inv.apply_to_matrix(b_perm.b))
    omega = np.empty(s.p)
    omega[perm_hat.pi] = omega_perm.omega2
    ebic_value = ebic(x.n * best_breakdown.nll, l_hat.support_size(), x.n, x.p, cfg.gamma_bic)
    diag = {key: [step[key] for step in steps] for key in ("mu", "gp_converged", "gp_iters", "snapped")}
    diag.update(
        solver_sweeps_max=[int(ch.sweeps.max()) for _, ch, _ in l_steps],
        solver_unconverged_rows=[int((~ch.converged).sum()) for _, ch, _ in l_steps],
        solver_exact_rows=[int(ch.exact.sum()) for _, ch, _ in l_steps],
        thresholds=[step["thresholds"] for step in steps],
        n_outer=len(steps),
    )
    return FitResult(
        l_hat=l_hat,
        perm_hat=perm_hat,
        b_hat=b_hat,
        omega_hat=NoiseVariances(omega),
        score_trace=[score for _, _, score in l_steps],
        ebic_value=ebic_value,
        # the ordering step after the last L-step returned its incumbent
        converged=len(steps) == len(l_steps),
        diagnostics=diag,
    )


@dataclass(frozen=True)
class TuningGrid:
    """Grid of tuning parameters searched by eBIC.

    ``lambdas`` and ``gammas`` are stored as tuples of floats.  Each cell
    is one (lambda, gamma) pair and must be valid ``McpParams``;
    ``gamma_bic`` is the eBIC weight every cell is scored with.
    """

    lambdas: tuple = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    gammas: tuple = (2.0,)
    gamma_bic: float = 0.5

    def __post_init__(self):
        for name in ("lambdas", "gammas"):
            values = tuple(_as_real(v, f"{name} must hold finite reals")
                           for v in getattr(self, name))
            if not values:
                raise ValueError("lambdas and gammas must be non-empty")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "gamma_bic", _as_gamma_bic(self.gamma_bic))
        self.cells()

    def cells(self) -> list[McpParams]:
        """Grid cells in lexicographic order."""
        return [McpParams(lam, gamma) for lam, gamma in product(self.lambdas, self.gammas)]


def tune(
    x: DataMatrix | np.ndarray,
    grid: TuningGrid = TuningGrid(),
    *,
    init: str = "variance",
) -> tuple[dict, list[dict]]:
    """Select tuning parameters by eBIC over the grid.

    Each cell is one L-step at the ``init`` ordering (as in
    ``RrcfConfig``), the factor a fit with outer_k_max 1 would return;
    all cells are solved in one batched L-step
    (``estimate_cholesky_path`` at the default ``SolverSettings``).  A
    cell is scored by the eBIC of its factor on the full-data
    log-likelihood scale, 2 n nll + s log n + 4 s grid.gamma_bic log p.
    Each table row holds the cell's "lam" and "gamma", "ebic",
    "support", the cell's L-step "sweeps_max" and "unconverged_rows",
    and "status" "ok".  A cell whose gamma does not exceed the data's
    ``gamma_guard`` is not solved, and the other cells keep their bits:
    its row has "status" "guard", None for the four numbers, and the
    guard's message under "error".  Returns (best row, table); the best
    row is the eBIC argmin over the solved cells, with ties resolved by
    grid order.  Raises the first cell's ``ConvexityGuardError`` when no
    cell passes the guard.
    """
    _check_init(init)
    x, s = _data_and_covariance(x, "tune")
    cells = grid.cells()
    guard = gamma_guard(s)
    passed = [cell for cell in cells if cell.gamma > guard]
    if not passed:
        raise guard_error(cells[0], guard)
    order = _initial_order(s, init)
    solved = iter(estimate_cholesky_path(order, s, passed))
    table = []
    for cell in cells:
        row = {"lam": cell.lam, "gamma": cell.gamma}
        if cell.gamma <= guard:
            row.update(ebic=None, support=None, sweeps_max=None, unconverged_rows=None,
                       status="guard", error=str(guard_error(cell, guard)))
        else:
            ch = next(solved)
            support = ch.l.support_size()
            nll = neg_log_likelihood(ch.l, order, s)
            row.update(
                ebic=ebic(x.n * nll, support, x.n, x.p, grid.gamma_bic),
                support=support,
                sweeps_max=int(ch.sweeps.max()),
                unconverged_rows=int((~ch.converged).sum()),
                status="ok",
            )
        table.append(row)
    best = min((row for row in table if row["status"] == "ok"), key=lambda row: row["ebic"])
    return best, table
