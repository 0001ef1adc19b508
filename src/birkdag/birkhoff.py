"""Permutation-side machinery for the relaxed ordering search.

The ordering subproblem is relaxed from the set of permutation matrices
to its convex hull, the Birkhoff polytope of doubly stochastic matrices.
This module provides the four pieces of that pipeline:

* Euclidean projection onto the polytope, computed by block coordinate
  ascent on the dual with closed-form updates;
* gradient projection for the relaxed quadratic objective
  1/2 tr(L P S P^t L^t) - mu/2 ||T P||_F^2 with T = I - (1/p) 1 1^t.
  On the polytope ||T P||_F^2 = ||P||_F^2 - 1, so this is the paper's
  plain penalty -mu/2 ||P||_F^2 up to the constant mu/2, and both forms
  give the same iterates;
* convexity/concavity thresholds for mu from the spectra of S and L^t L;
* rounding back to permutations, either by rank-matching against random
  Gaussian vectors or by solving a linear assignment problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance

# Entrywise negativity / marginal-sum slack a doubly stochastic matrix is
# allowed; projection iterates must clear these before they are returned.
NEG_TOL = 1e-10
MARGIN_TOL = 1e-8


@dataclass(frozen=True)
class DoublyStochastic:
    """Nonnegative square matrix with unit row and column sums."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"m must be square, got shape {m.shape}")
        if m.min() < -NEG_TOL:
            raise ValueError(f"entries must be >= -{NEG_TOL}, min is {m.min()}")
        if np.abs(m.sum(axis=1) - 1.0).max() > MARGIN_TOL or np.abs(m.sum(axis=0) - 1.0).max() > MARGIN_TOL:
            raise ValueError("row and column sums must equal 1 within 1e-8")
        object.__setattr__(self, "m", m)

    @property
    def p(self) -> int:
        return self.m.shape[0]

    @staticmethod
    def center(p: int) -> "DoublyStochastic":
        """The matrix J/p, the center of the Birkhoff polytope."""
        return DoublyStochastic(np.full((p, p), 1.0 / p))

    @staticmethod
    def from_permutation(perm: Permutation) -> "DoublyStochastic":
        return DoublyStochastic(perm.matrix())


@dataclass(frozen=True)
class DualVariables:
    """Dual variables (u, v, U) for the polytope projection problem."""

    u: np.ndarray
    v: np.ndarray
    bigu: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        bigu = np.asarray(self.bigu, dtype=float)
        if bigu.min(initial=0.0) < 0:
            raise ValueError("U must be entrywise nonnegative")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "bigu", bigu)


@dataclass(frozen=True)
class ProjectionResult:
    ds: DoublyStochastic
    duals: DualVariables
    gap: float
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class RelaxationConfig:
    """Settings for the relaxed ordering subproblem.

    mu is the Frobenius-pull weight.  None (the default) means automatic:
    ``pipeline.fit`` replaces it each outer iteration by the centered
    convexity threshold of the current factor, and
    ``gradient_projection`` refuses it.  eps and k_max stop the gradient
    projection; n_samples is the number of rounding candidates drawn
    when the relaxed solution is not already a vertex.  The step size
    and the inner projection tolerances are not settable: see
    ``gradient_projection``.
    """

    mu: float | None = None
    eps: float = 1e-7
    k_max: int = 500
    n_samples: int = 150

    def __post_init__(self):
        if self.mu is not None and (self.mu < 0 or not np.isfinite(self.mu)):
            raise ValueError(f"mu must be a nonnegative real or None, got {self.mu}")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.k_max < 1 or self.n_samples < 1:
            raise ValueError("k_max and n_samples must be at least 1")


def project_to_birkhoff(
    p0: np.ndarray,
    eps: float = 1e-12,
    k_max: int = 50000,
    duals0: DualVariables | None = None,
) -> ProjectionResult:
    """Euclidean projection of p0 onto the Birkhoff polytope.

    Runs block coordinate ascent on the dual of
    min 1/2 ||P - P0||_F^2 s.t. P >= 0, P 1 = 1, P^t 1 = 1, with
    closed-form block updates

        U <- max(0, u 1^t + 1 v^t - P0)
        u <- (P0 1 - (v^t 1 + 1) 1 + U 1) / p
        v <- (P0^t 1 - (u^t 1 + 1) 1 + U^t 1) / p

    and primal recovery P = P0 - u 1^t - 1 v^t + U.  Iteration stops
    when the duality gap |f(P) - f*(u, v, U)| falls below eps *and* the
    primal iterate is feasible to within the doubly stochastic
    tolerances.  The gap alone is not a certificate: before the primal
    is feasible, f(P) - f* can cancel through the constraint-violation
    terms of the Lagrangian.

    The effective tolerance is floored at the float64 noise level of the
    gap computation, 4 eps_mach (1 + ||P0||_F^2), so large-scale inputs
    terminate once the gap is at machine precision.

    Parameters
    ----------
    p0 : square matrix to project.
    eps : duality-gap tolerance.
    k_max : iteration cap; on expiry the best iterate is returned with
        ``converged=False``.
    duals0 : optional warm start for (u, v); repeated projections of
        nearby points converge in a handful of iterations.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim != 2 or p0.shape[0] != p0.shape[1]:
        raise ValueError(f"p0 must be square, got shape {p0.shape}")
    if not np.isfinite(p0).all():
        raise ValueError("p0 contains non-finite entries")
    p = p0.shape[0]

    floor = 4.0 * np.finfo(float).eps * (1.0 + float((p0 * p0).sum()))
    tol = max(eps, floor)

    if duals0 is None:
        u = np.zeros(p)
        v = np.zeros(p)
    else:
        u = duals0.u.copy()
        v = duals0.v.copy()
    r0 = p0.sum(axis=1)
    c0 = p0.sum(axis=0)
    r0m1 = r0 - 1.0
    c0m1 = c0 - 1.0

    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    U = np.zeros((p, p))
    gap = np.inf
    converged = False
    n_iter = 0
    for k in range(k_max):
        n_iter = k + 1
        sv_old = v.sum()
        U = np.maximum(0.0, np.add.outer(u, v) - p0)
        u = (r0 - (sv_old + 1.0) + U.sum(axis=1)) / p
        v = (c0 - (u.sum() + 1.0) + U.sum(axis=0)) / p
        # the gap evaluation costs a third of an iteration; after a warm-up
        # it runs every other pass, which leaves the termination contract
        # (gap < tol on return) intact and only ever adds dual iterations
        if k >= 16 and (k & 1) == 0 and k != k_max - 1:
            continue
        M = np.add.outer(u, v) - U
        gap = abs(
            float(np.einsum("ij,ij->", M, M)) + float(np.einsum("ij,ij->", U, p0))
            - u @ r0m1 - v @ c0m1
        )
        if gap < tol:
            # column sums are exact by the v-update; the row-sum residual
            # is the scalar drift of sum(v) within this iteration; entrywise
            # negativity is checked on the recovered primal
            if abs(sv_old - v.sum()) <= MARGIN_TOL and (p0 - M).min() >= -NEG_TOL:
                converged = True
                break
    P = p0 - (np.add.outer(u, v) - U)
    return ProjectionResult(
        ds=DoublyStochastic(P) if converged else _force_feasible(P),
        duals=DualVariables(u=u, v=v, bigu=U),
        gap=gap,
        converged=converged,
        n_iter=n_iter,
    )


def _force_feasible(P: np.ndarray) -> DoublyStochastic:
    """Best-effort wrap of a non-converged primal iterate.

    Clips negatives and alternately rescales rows and columns until the
    doubly stochastic tolerances hold; only reached on k_max expiry, and
    the caller sees ``converged=False``.
    """
    Q = np.clip(P, 0.0, None)
    for _ in range(200):
        Q /= np.maximum(Q.sum(axis=1, keepdims=True), 1e-300)
        Q /= np.maximum(Q.sum(axis=0, keepdims=True), 1e-300)
        if np.abs(Q.sum(axis=1) - 1.0).max() <= 0.5 * MARGIN_TOL:
            break
    try:
        return DoublyStochastic(Q)
    except ValueError:
        return DoublyStochastic.center(P.shape[0])


def dual_objective(dv: DualVariables, p0: np.ndarray) -> float:
    """Dual objective of the projection problem at (u, v, U).

    -1/2 ||u 1^t + 1 v^t - U||_F^2 - tr(U^t P0)
    + u^t (P0 1 - 1) + v^t (P0^t 1 - 1)
    """
    p0 = np.asarray(p0, dtype=float)
    M = np.add.outer(dv.u, dv.v) - dv.bigu
    return float(
        -0.5 * (M * M).sum()
        - (dv.bigu * p0).sum()
        + dv.u @ (p0.sum(axis=1) - 1.0)
        + dv.v @ (p0.sum(axis=0) - 1.0)
    )


def _center_cols(m: np.ndarray) -> np.ndarray:
    """Apply T = I - (1/p) 1 1^t on the left: subtract column means."""
    return m - m.mean(axis=0, keepdims=True)


def relaxed_objective(
    pm: DoublyStochastic | np.ndarray,
    l: CholeskyFactor,
    s: SampleCovariance,
    cfg: RelaxationConfig,
) -> float:
    """1/2 tr(L P S P^t L^t) - mu/2 ||T P||_F^2, T = I - (1/p) 1 1^t."""
    P = pm.m if isinstance(pm, DoublyStochastic) else np.asarray(pm, dtype=float)
    lps = l.l @ P @ s.s
    quad = 0.5 * float(np.einsum("ij,ij->", lps, l.l @ P))
    TP = _center_cols(P)
    return quad - 0.5 * cfg.mu * float((TP * TP).sum())


def relaxed_gradient(
    pm: DoublyStochastic | np.ndarray,
    l: CholeskyFactor,
    s: SampleCovariance,
    cfg: RelaxationConfig,
) -> np.ndarray:
    """(L^t L) P S - mu T P."""
    P = pm.m if isinstance(pm, DoublyStochastic) else np.asarray(pm, dtype=float)
    g = (l.l.T @ l.l) @ P @ s.s
    return g - cfg.mu * _center_cols(P)


def convexity_thresholds(
    l: CholeskyFactor, s: SampleCovariance | np.ndarray
) -> tuple[float, float, float]:
    """mu thresholds governing the shape of the relaxed objective.

    Returns ``(plain_convex, centered_convex, concave)``: with the
    penalty written as ||P||_F^2 the problem is convex for
    mu <= lambda_1(S) lambda_1(L^t L), in the centered form used here
    for mu <= lambda_2(S) lambda_1(L^t L) (the automatic mu), and any
    mu > lambda_max(S) lambda_max(L^t L) makes the objective concave, so
    its minimum sits at a vertex (a permutation matrix).  Eigenvalues
    are taken in ascending order; lambda_2 is the second smallest, not
    the second smallest distinct.  ``s`` may be a plain symmetric PSD
    array; this is pure spectral analysis, not a solver input.
    """
    sm = s.s if isinstance(s, SampleCovariance) else np.asarray(s, dtype=float)
    ev_s = np.linalg.eigvalsh(sm)
    ev_l = np.linalg.eigvalsh(l.l.T @ l.l)
    second = ev_s[1] if sm.shape[0] > 1 else ev_s[0]
    return (
        float(ev_s[0] * ev_l[0]),
        float(second * ev_l[0]),
        float(ev_s[-1] * ev_l[-1]),
    )


@dataclass(frozen=True)
class GradientProjectionResult:
    ds: DoublyStochastic
    converged: bool
    n_iter: int
    objective: float
    objective_trace: tuple = ()


def gradient_projection(
    l: CholeskyFactor,
    s: SampleCovariance,
    cfg: RelaxationConfig,
    p_init: DoublyStochastic,
) -> GradientProjectionResult:
    """Minimize the relaxed ordering objective over the Birkhoff polytope.

    Iterates P_hat <- proj(P - eta grad) and P <- P + alpha (P_hat - P)
    with eta = 1/(concave threshold + mu), the inverse of a bound on the
    gradient's Lipschitz constant.  alpha comes from Armijo backtracking
    (start 1, halve, sufficient decrease 1e-4) along the feasible
    direction; it seldom shortens the step, but it is what stops the
    descent once the step reaches the noise floor of the inner
    projections and the slope is no longer negative.  Stops when the
    iterate moves less than cfg.eps in Frobenius norm or cfg.k_max is
    reached.  Inner projections run at the defaults of
    ``project_to_birkhoff`` and warm start their dual variables from the
    previous iteration, which keeps them to a handful of passes each.
    """
    if cfg.mu is None:
        raise ValueError(
            "cfg.mu is None; gradient_projection needs an explicit mu, e.g. "
            "replace(cfg, mu=max(convexity_thresholds(l, s)[1], 0.0))"
        )
    if not (l.p == s.p == p_init.p):
        raise ValueError("dimension mismatch between l, s and p_init")
    eta = 1.0 / (convexity_thresholds(l, s)[2] + cfg.mu + 1e-15)

    P = p_init.m.copy()
    fP = relaxed_objective(P, l, s, cfg)
    if not np.isfinite(fP):
        raise FloatingPointError("relaxed objective is not finite at the initial point")
    duals = None
    converged = False
    n_iter = 0
    trace = [fP]
    for k in range(cfg.k_max):
        n_iter = k + 1
        g = relaxed_gradient(P, l, s, cfg)
        proj = project_to_birkhoff(P - eta * g, duals0=duals)
        duals = proj.duals
        d = proj.ds.m - P
        slope = float((g * d).sum())
        alpha = 1.0
        f_new = fP
        while alpha > 1e-13:
            f_new = relaxed_objective(P + alpha * d, l, s, cfg)
            if f_new <= fP + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        P_new = P + alpha * d
        moved = float(np.linalg.norm(P_new - P))
        P, fP = P_new, f_new
        trace.append(fP)
        if not np.isfinite(fP):
            raise FloatingPointError("relaxed objective became non-finite")
        if moved <= cfg.eps:
            converged = True
            break
    return GradientProjectionResult(
        ds=DoublyStochastic(P),
        converged=converged,
        n_iter=n_iter,
        objective=fP,
        objective_trace=tuple(trace),
    )


def rank_vector(x) -> np.ndarray:
    """Ranks of x, 1-based: entry i is k when x_i is the kth smallest.

    Ties break by ascending index, so the result is always a valid
    permutation of 1..p.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError("x must be a non-empty vector")
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.shape[0], dtype=int)
    ranks[order] = np.arange(1, x.shape[0] + 1)
    return ranks


def _match_ranks(ds_m: np.ndarray, x: np.ndarray) -> Permutation:
    # permutation P with P r(x) = r(ds x): the position of the kth
    # smallest entry of ds x maps to the position of the kth smallest of x
    rx = np.argsort(x, kind="stable")
    rdx = np.argsort(ds_m @ x, kind="stable")
    pi = np.empty(x.shape[0], dtype=int)
    pi[rdx] = rx
    return Permutation(pi)


def sample_permutations(
    ds: DoublyStochastic, n_samples: int, rng: np.random.Generator
) -> list[Permutation]:
    """Round ds to permutations by matching ranks against Gaussian draws.

    Each sample draws x ~ N(0, I) and returns the permutation that acts
    on the ranks of x the way ds does: P r(x) = r(ds x).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    return [_match_ranks(ds.m, rng.standard_normal(ds.p)) for _ in range(n_samples)]


def round_hungarian(ds: DoublyStochastic) -> Permutation:
    """Nearest permutation in Frobenius norm, argmax_P tr(ds^t P).

    Solved exactly as a linear assignment problem; ties resolve
    deterministically (a constant matrix rounds to the identity).
    """
    _, cols = linear_sum_assignment(-ds.m)
    return Permutation(cols)


def _snap_to_permutation(ds_m: np.ndarray, tol: float = 1e-6) -> Permutation | None:
    r = np.rint(ds_m)
    if np.abs(ds_m - r).max() >= tol:
        return None
    if not ((r.sum(axis=0) == 1.0).all() and (r.sum(axis=1) == 1.0).all() and r.min() == 0.0):
        return None
    return Permutation(np.argmax(r, axis=1))


def trace_objective(l: CholeskyFactor, perm: Permutation, s: SampleCovariance) -> float:
    """1/2 tr(L P S P^t L^t), the ordering part of the score at a vertex."""
    sp = perm.apply_to_matrix(s.s)
    return 0.5 * float(np.einsum("ij,ij->", l.l @ sp, l.l))


@dataclass(frozen=True)
class PermutationEstimate:
    perm: Permutation
    relaxed: DoublyStochastic
    gp_converged: bool
    snapped: bool


def estimate_permutation(
    l: CholeskyFactor,
    s: SampleCovariance,
    cfg: RelaxationConfig,
    rng: np.random.Generator,
    p_init: DoublyStochastic | None = None,
    incumbent: Permutation | None = None,
) -> PermutationEstimate:
    """Solve the relaxed ordering problem and round to a permutation.

    Runs gradient projection from p_init (default: the polytope center).
    If the relaxed solution is already a vertex to within 1e-6, that
    vertex is the only candidate.  Otherwise the candidates are
    cfg.n_samples rank-matching draws followed by the linear-assignment
    rounding.  The candidate with the smallest 1/2 tr(L P S P^t L^t)
    wins; ties keep the earliest candidate.

    When an ``incumbent`` ordering is supplied (the alternating loop
    passes its current one) it goes first in the comparison, so the
    returned ordering never scores worse than the incumbent, the
    ordering step is monotone in the trace objective, and a tie keeps
    the incumbent.
    """
    if p_init is None:
        p_init = DoublyStochastic.center(s.p)
    gp = gradient_projection(l, s, cfg, p_init)
    snapped = _snap_to_permutation(gp.ds.m)
    if snapped is not None:
        candidates = [snapped]
    else:
        candidates = sample_permutations(gp.ds, cfg.n_samples, rng)
        candidates.append(round_hungarian(gp.ds))
    if incumbent is not None:
        candidates.insert(0, incumbent)
    perm = min(candidates, key=lambda cand: trace_objective(l, cand, s))
    return PermutationEstimate(
        perm=perm, relaxed=gp.ds, gp_converged=gp.converged, snapped=snapped is not None
    )
