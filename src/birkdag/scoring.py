"""Gaussian negative log-likelihood, MCP penalty, and the eBIC criterion.

For a lower-triangular factor L, an ordering P and a sample covariance
S, the negative log-likelihood (up to constants, per observation) is

    nll(L, P, S) = 1/2 tr(P S P^t L^t L) - sum_j log L_jj

(its trace term, ``trace_objective``, is what the ordering step
minimizes over permutations), and the penalized score adds the minimax
concave penalty over the strict lower triangle of L.  Diagonal entries
are never penalized: the row-decoupled solver subproblems penalize only
the regression coefficients, and the score used for reporting matches
the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance, _as_int, _as_real


class ConvexityGuardError(ValueError):
    """gamma is too small for the coordinate subproblems to be strictly convex.

    The off-diagonal update divides by 2 A_jj - 1/gamma; strict convexity
    in each coordinate requires gamma > max(1/(2 A_jj), 1).  ``McpParams``
    raises it for gamma <= 1 and the L-step for the data-dependent bound.
    Raise gamma (or rescale the data) and retry.
    """


@dataclass(frozen=True)
class McpParams:
    """Minimax concave penalty parameters (lambda >= 0, gamma > 1), stored
    as floats.

    A value that is not a finite real, or a negative lambda, is a
    ``ValueError``; a finite gamma <= 1 is a ``ConvexityGuardError``.
    """

    lam: float
    gamma: float

    def __post_init__(self):
        lam = _as_real(self.lam, "lambda must be a nonnegative real", 0.0)
        gamma = _as_real(self.gamma, "gamma must exceed 1")
        if gamma <= 1:
            raise ConvexityGuardError(f"gamma must exceed 1, got {gamma!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class ScoreBreakdown:
    """Penalized score split into likelihood and penalty parts."""

    nll: float
    penalty: float

    @property
    def total(self) -> float:
        return self.nll + self.penalty


def mcp(theta, params: McpParams):
    """MCP value rho(theta): lambda|t| - t^2/(2 gamma) inside |t| < gamma lambda,
    flat at gamma lambda^2 / 2 beyond.  Vectorized over theta."""
    t = np.abs(np.asarray(theta, dtype=float))
    inner = params.lam * t - t * t / (2.0 * params.gamma)
    flat = 0.5 * params.gamma * params.lam**2
    out = np.where(t < params.gamma * params.lam, inner, flat)
    return out if out.ndim else float(out)


def _permuted_cov(perm: Permutation, s: SampleCovariance) -> np.ndarray:
    if perm.p != s.p:
        raise ValueError("permutation and covariance dimensions disagree")
    return perm.apply_to_matrix(s.s)


def trace_objective(l: CholeskyFactor, perm: Permutation, s: SampleCovariance) -> float:
    """1/2 tr(L P S P^t L^t), the ordering part of the score at a vertex."""
    sp = perm.apply_to_matrix(s.s)
    return 0.5 * float(np.einsum("ij,ij->", l.l @ sp, l.l))


def neg_log_likelihood(l: CholeskyFactor, perm: Permutation, s: SampleCovariance) -> float:
    """1/2 tr(P S P^t L^t L) - sum_j log L_jj: ``trace_objective`` less the log-diagonal."""
    if not l.p == perm.p == s.p:
        raise ValueError("factor, permutation and covariance dimensions disagree")
    return trace_objective(l, perm, s) - float(np.log(np.diag(l.l)).sum())


def penalized_score(
    l: CholeskyFactor,
    perm: Permutation,
    s: SampleCovariance,
    params: McpParams,
) -> ScoreBreakdown:
    """Negative log-likelihood plus MCP over the strict lower triangle."""
    nll = neg_log_likelihood(l, perm, s)
    tl = np.tril_indices(l.p, -1)
    penalty = float(np.sum(mcp(l.l[tl], params)))
    return ScoreBreakdown(nll=nll, penalty=penalty)


def _as_gamma_bic(value) -> float:
    """The eBIC weight ``gamma_bic``, a real in [0, 1], as a float."""
    return _as_real(value, "gamma_bic must lie in [0, 1]", 0.0, 1.0)


def ebic(nll_value: float, support_size: int, n: int, p: int, gamma_bic: float) -> float:
    """Extended BIC: -2 Ln + s log n + 4 s gamma_bic log p.

    ``nll_value`` is the negative log-likelihood at the fitted factor, so
    the maximized log-likelihood is Ln = -nll_value and the first term is
    2 * nll_value.  Callers that want the criterion on the full-data
    scale pass n * neg_log_likelihood(...); see ``pipeline.tune``.
    ``gamma_bic = 0`` reproduces the classical BIC.
    """
    n, p, s = _as_int(n, "n", 1), _as_int(p, "p", 1), _as_int(support_size, "support size", 0)
    gamma_bic = _as_gamma_bic(gamma_bic)
    return float(2.0 * nll_value + s * np.log(n) + 4.0 * s * gamma_bic * np.log(p))
