"""Permutation-side machinery for the relaxed ordering search.

The ordering subproblem is relaxed from the set of permutation matrices
to its convex hull, the Birkhoff polytope of doubly stochastic matrices.
This module provides the four pieces of that pipeline:

* Euclidean projection onto the polytope, computed by semismooth Newton
  ascent on its dual, which converges in a few steps from a cold start
  and in about two from the dual solution of the previous projection;
* accelerated gradient projection (FISTA with function-value restart)
  for the relaxed quadratic objective
  1/2 tr(L P S P^t L^t) - mu/2 ||T P||_F^2 with T = I - (1/p) 1 1^t.
  On the polytope ||T P||_F^2 = ||P||_F^2 - 1, so this is the paper's
  plain penalty -mu/2 ||P||_F^2 up to the constant mu/2, and both forms
  give the same iterates.  It takes the fixed step 1/(curvature bound +
  mu) from an extrapolated point, restarts the momentum with a plain,
  descending step whenever the extrapolated step would raise the
  objective, and forms one gradient per accepted step.  It stops when
  an accepted step moves P by at most eps, or at its cap of 100
  iterations.  Each inner projection warm starts at the dual solution
  of the last accepted one;
* convexity/concavity thresholds for mu from the spectra of S and L^t L;
* rounding back to permutations, either by rank-matching against random
  Gaussian vectors or by solving a linear assignment problem.  An
  ordering step collects its candidates in one (K, p) int array, the
  incumbent first and each ordering once (``rounding_candidates``), and
  ranks them in one pass (``best_candidate``): a screen by the inner
  product of the cached L^t L with the permuted S rules out every row
  that provably cannot win, so the exact trace is evaluated only for
  the first row and the rows the screen leaves in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from birkdag.scoring import trace_objective
from birkdag.sem import CholeskyFactor, Permutation, SampleCovariance, _as_int, _as_real

# Entrywise negativity / marginal-sum slack a doubly stochastic matrix is
# allowed; projection iterates must clear these before they are returned.
NEG_TOL = 1e-10
MARGIN_TOL = 1e-8

# Semismooth Newton projection.  NEWTON_SHIFT goes on the diagonal of the
# Newton system.  It keeps empty mask rows and columns solvable, and it
# bounds the step along the null direction of every further connected
# component of the mask, where the right-hand side holds only the
# rounding error of that component's marginal sums: a shift of 1e-12
# turned that error into steps of 1e-4 that stalled the iteration.
# ARMIJO is the sufficient-ascent factor; MAX_HALVINGS caps the step
# halvings of one line search.
NEWTON_SHIFT = 1e-8
ARMIJO = 1e-4
MAX_HALVINGS = 60
_EPS_MACH = float(np.finfo(float).eps)

# Rank-matching draws per ordering step whose relaxed solution is no vertex.
N_SAMPLES = 150


@dataclass(frozen=True)
class DoublyStochastic:
    """Nonnegative square matrix with unit row and column sums."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"m must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("m contains non-finite entries")
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


@dataclass(frozen=True)
class DualVariables:
    """Marginal duals (u, v) of the projection; ``dual_objective`` derives U."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


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

    mu is the Frobenius-pull weight, a nonnegative real; it has no
    default (``pipeline.fit`` picks it per ordering step).  eps and k_max
    stop the gradient projection: eps bounds the Frobenius step between
    accepted iterates, and k_max caps the iterations.  The cap of 100 is
    about where the accelerated iteration passes the objective that plain
    gradient projection reaches in 500 iterations.  On the first ordering
    steps of 45 fits (p = 4 to 200, n = 150, lambda 0.3) it got there in
    47 to 105 iterations: 60 to 64 at p = 100 and 52 to 56 at p = 200.  At
    the cap it ended no higher in 44 of the 45; the other, at p = 30,
    ended 1.6e-5 (relative) above.  The step size, the inner projection
    tolerances and the number of rounding candidates (``N_SAMPLES``) are
    not settable: see ``gradient_projection`` and ``estimate_permutation``.
    """

    mu: float
    eps: float = 1e-7
    k_max: int = 100

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_real(self.mu, "mu must be a nonnegative real", 0.0))
        object.__setattr__(self, "eps", _as_real(self.eps, "eps must be positive", 0.0, above=True))
        object.__setattr__(self, "k_max", _as_int(self.k_max, "k_max", 1))


def project_to_birkhoff(
    p0: np.ndarray,
    eps: float = 1e-12,
    k_max: int = 50000,
    duals0: DualVariables | None = None,
) -> ProjectionResult:
    """Euclidean projection of p0 onto the Birkhoff polytope.

    Solves min 1/2 ||P - P0||_F^2 s.t. P >= 0, P 1 = 1, P^t 1 = 1 by
    semismooth Newton ascent on its dual in (u, v) (Li, Sun & Toh 2020).
    With W = P0 - u 1^t - 1 v^t the primal is P = max(W, 0), exactly
    nonnegative, and the dual -1/2 ||P||_F^2 - sum(u) - sum(v) is
    concave and piecewise quadratic with gradient (r, c), the marginal
    residuals r = P 1 - 1 and c = P^t 1 - 1.  Each step solves

        [[diag(O 1), O], [O^t, diag(O^t 1)]] (du, dv) = (r, c)

    with O = (W > 0), through its p x p Schur complement in dv.  The
    direction (1, -1) moves no entry of P and leaves the system singular,
    so it is removed exactly by pinning dv[-1] = 0.  A diagonal shift of
    NEWTON_SHIFT keeps empty mask rows and columns solvable and damps the
    null directions of a disconnected mask.  The step is halved until it
    either raises the dual value by the Armijo amount, and by more than
    its rounding error, or shrinks the largest marginal residual: near
    the solution the Armijo gain falls below that rounding error, and the
    residual test is what accepts the quadratically convergent steps.
    Without duals0 the start is the projection onto the affine hull
    {P 1 = 1, P^t 1 = 1}, whose rows and columns all have a positive
    entry; a warm start is first shifted along (1, -1) to sum(u) = sum(v).

    ``converged`` means the marginal sums are within the absolute
    ``MARGIN_TOL`` = 1e-8 of 1 (and within eps unless no step can shrink
    them) and the duality gap, |u^t r + v^t c| at P = max(W, 0), is below
    max(eps, 4 eps_mach (1 + ||P0||_F^2)).  MARGIN_TOL does not scale with
    P0, so once P's float64 noise nears it the marginals cannot be
    certified: on 8 x 8 inputs s N(0, 1) (seed 0), 20 of 20 converge at
    s = 1e6, 8 of 20 at 1e8 and none at 1e16.  Such inputs come back
    through ``_force_feasible`` with ``converged=False``.

    Parameters
    ----------
    p0 : non-empty square matrix to project.
    eps : positive, finite duality-gap tolerance; the marginals are held
        to it too, where float64 allows.
    k_max : iteration cap, an integer of at least 1; every iteration
        tests the current point and all but the last take one Newton
        step, so at most k_max - 1 steps are taken.  On expiry, or
        earlier when no step can improve the point any more, the iterate
        is made feasible by ``_force_feasible`` and returned with
        ``converged=False``.
    duals0 : optional warm start for (u, v), each finite and of shape
        (p,); repeated projections of nearby points converge in one or two
        Newton steps.
    """
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim != 2 or p0.shape[0] != p0.shape[1] or p0.shape[0] == 0:
        raise ValueError(f"p0 must be a non-empty square matrix, got shape {p0.shape}")
    # ||P0||_F^2 sets the gap floor.  As a sum of squares it is NaN or +inf
    # whenever p0 is not finite, so p0 itself is scanned only then: finite
    # entries whose squares overflow are still accepted.
    sq = float(np.add.reduce(p0 * p0, None))
    if not sq < np.inf and not np.isfinite(p0).all():
        raise ValueError("p0 contains non-finite entries")
    eps = _as_real(eps, "eps must be positive", 0.0, above=True)
    k_max = _as_int(k_max, "k_max", 1)
    p = p0.shape[0]
    if duals0 is not None:
        for name in ("u", "v"):
            shape = np.shape(getattr(duals0, name))
            if shape != (p,):
                raise ValueError(f"duals0.{name} must have shape ({p},), got {shape}")
    tol = max(eps, 4.0 * _EPS_MACH * (1.0 + sq))

    # At p <= 20 the per-call overhead of numpy, not arithmetic, sets the
    # cost of an iteration, so every numpy call counts.  (u, v), (r, c),
    # the mask sums and the Newton direction each live in one stacked
    # buffer; every work array and view is made once per call and written
    # in place; products go through np.dot, which reaches the same BLAS
    # routines as np.matmul with less dispatch; the current point and the
    # line-search trial write into two preallocated states that swap on
    # acceptance; and the dual value is evaluated only when the residual
    # test cannot accept a trial.  Each value is still computed by the
    # same floating-point operations as in the plain form of the loop.
    cur, trial = _NewtonState(p), _NewtonState(p)
    if duals0 is None:
        np.add.reduce(p0, 1, None, cur.u)
        np.add.reduce(p0, 0, None, cur.v)
        cur.uv -= 1.0
        cur.uv /= p
        cur.uv -= (float(np.add.reduce(p0, None)) - p) / (2.0 * p * p)
    else:
        a = (float(np.add.reduce(duals0.v)) - float(np.add.reduce(duals0.u))) / (2.0 * p)
        # a sum is finite only if every entry is, so a finite shift
        # certifies both vectors
        if not np.isfinite(a):
            for name in ("u", "v"):
                if not np.isfinite(getattr(duals0, name)).all():
                    raise ValueError(f"duals0.{name} contains non-finite entries")
            raise ValueError("duals0.u and duals0.v are too large: their sums overflow")
        np.add(duals0.u, a, out=cur.u)
        np.subtract(duals0.v, a, out=cur.v)
    cur.evaluate(p0)

    # One Newton step: the mask O = sign(P) and its shifted sums d1 = O 1,
    # d2 = O^t 1; the Schur complement diag(d2) - O^t D1^-1 O in schur; the
    # right-hand side c - O^t D1^-1 r, solved in place into dv by Cholesky
    # on the block that pins dv[-1] = 0; then du = D1^-1 (r - O dv).
    om = np.empty((p, p))
    od = np.empty((p, p))
    schur = np.empty((p, p))
    om_t, od_t, pinned = om.T, od.T, schur[:-1, :-1]
    diag = schur.reshape(-1)[:: p + 1]
    dd = np.empty(2 * p)
    d1, d2 = dd[:p], dd[p:]
    d1_col = d1[:, None]
    d = np.zeros(2 * p)
    du, dv = d[:p], d[p:]
    dv_pinned = dv[:-1]
    converged = stuck = False
    n_iter = 0
    for k in range(k_max):
        n_iter = k + 1
        if cur.res <= MARGIN_TOL and (cur.res <= eps or stuck):
            gap = cur.gap()
            if gap < tol:
                converged = True
                break
        if stuck or k == k_max - 1:
            break
        np.sign(cur.P, out=om)
        np.add.reduce(om, 1, None, d1)
        np.add.reduce(om, 0, None, d2)
        dd += NEWTON_SHIFT
        np.divide(om, d1_col, out=od)
        np.dot(om_t, od, out=schur)
        np.negative(schur, out=schur)
        diag += d2
        np.dot(od_t, cur.r, out=dv)
        np.subtract(cur.c, dv, out=dv)
        if p > 1:
            # the pinned Schur complement is symmetric positive definite
            info = dposv(pinned, dv_pinned, overwrite_b=1)[2]
            if info:
                raise np.linalg.LinAlgError(f"Newton system not positive definite (dposv {info})")
        dv[-1] = 0.0
        np.dot(om, dv, out=du)
        np.subtract(cur.r, du, out=du)
        np.divide(du, d1, out=du)
        slope = float(np.dot(cur.rc, d))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            if t == 1.0:
                np.add(cur.uv, d, out=trial.uv)
            else:
                np.multiply(d, t, out=trial.uv)
                np.add(cur.uv, trial.uv, out=trial.uv)
            trial.evaluate(p0)
            if trial.res < cur.res or trial.theta - cur.theta >= max(
                ARMIJO * t * slope, 4.0 * _EPS_MACH * abs(cur.theta)
            ):
                break
            t *= 0.5
        else:
            # no step improves the point: test it once more, then give up
            stuck = True
            continue
        cur, trial = trial, cur
    if not converged:
        gap = cur.gap()
    P = cur.P
    # A converged P = max(W, 0) is exactly nonnegative, and the test above
    # bounded its marginal sums by MARGIN_TOL; u and v are float arrays.
    # Both results are built without re-running those checks.
    return ProjectionResult(
        ds=_unchecked(DoublyStochastic, m=P) if converged else _force_feasible(P),
        duals=_unchecked(DualVariables, u=cur.u, v=cur.v),
        gap=gap,
        converged=converged,
        n_iter=n_iter,
    )


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` without its __post_init__.

    Only for fields that already hold the class's invariants and types.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class _NewtonState:
    """Primal quantities of the projection at one dual point (u, v)."""

    def __init__(self, p: int):
        self.uv = np.empty(2 * p)
        self.u, self.v = self.uv[:p], self.uv[p:]
        self.ucol, self.vrow = self.u[:, None], self.v[None, :]
        self.outer = np.empty((p, p))
        self.P = np.empty((p, p))
        self.rc = np.empty(2 * p)
        self.r, self.c = self.rc[:p], self.rc[p:]
        self.res = 0.0
        self._theta = None

    def evaluate(self, p0: np.ndarray) -> None:
        """P = max(W, 0) and the marginal residuals; the dual value waits for ``theta``."""
        np.add(self.ucol, self.vrow, out=self.outer)
        np.subtract(p0, self.outer, out=self.P)
        np.maximum(self.P, 0.0, out=self.P)
        np.add.reduce(self.P, 1, None, self.r)
        np.add.reduce(self.P, 0, None, self.c)
        self.rc -= 1.0
        self.res = float(np.maximum.reduce(np.abs(self.rc)))
        self._theta = None

    @property
    def theta(self) -> float:
        """The dual value -1/2 ||P||_F^2 - sum(u) - sum(v), computed once per point."""
        if self._theta is None:
            self._theta = -0.5 * float(np.vdot(self.P, self.P)) - float(np.add.reduce(self.uv))
        return self._theta

    def gap(self) -> float:
        """|f(P) - f*(u, v)|, the dual at U = max(0, u 1^t + 1 v^t - P0).

        P0 = P - U + u 1^t + 1 v^t and <P, U> = 0 turn the gap into
        |u^t r + v^t c|, which is evaluated without the cancellation of
        the full primal and dual values.
        """
        return abs(float(self.uv @ self.rc))


def _force_feasible(P: np.ndarray) -> DoublyStochastic:
    """Best-effort wrap of a non-converged primal iterate.

    Clips negatives and alternately rescales rows and columns until the
    doubly stochastic tolerances hold; only reached when the projection
    stops unconverged, and the caller sees ``converged=False``.
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
    """Dual objective of the projection problem at (u, v).

    -1/2 ||u 1^t + 1 v^t - U||_F^2 - tr(U^t P0)
    + u^t (P0 1 - 1) + v^t (P0^t 1 - 1), at its maximizer U = max(0, u 1^t + 1 v^t - P0).
    """
    p0 = np.asarray(p0, dtype=float)
    outer = np.add.outer(dv.u, dv.v)
    bigu = np.maximum(outer - p0, 0.0)
    M = outer - bigu
    return float(
        -0.5 * (M * M).sum()
        - (bigu * p0).sum()
        + dv.u @ (p0.sum(axis=1) - 1.0)
        + dv.v @ (p0.sum(axis=0) - 1.0)
    )


def _center_cols(m: np.ndarray) -> np.ndarray:
    """Apply T = I - (1/p) 1 1^t on the left: subtract column means."""
    return m - np.add.reduce(m, 0, keepdims=True) / m.shape[0]


def relaxed_objective(
    P: np.ndarray, l: CholeskyFactor, s: SampleCovariance, cfg: RelaxationConfig
) -> float:
    """1/2 tr(L P S P^t L^t) - mu/2 ||T P||_F^2, T = I - (1/p) 1 1^t, at the matrix P."""
    lp = l.l @ P
    quad = 0.5 * float(np.einsum("ij,ij->", lp @ s.s, lp))
    TP = _center_cols(P)
    return quad - 0.5 * cfg.mu * float((TP * TP).sum())


def relaxed_gradient(
    P: np.ndarray, l: CholeskyFactor, s: SampleCovariance, cfg: RelaxationConfig
) -> np.ndarray:
    """(L^t L) P S - mu T P at the matrix P."""
    g = l.gram @ P @ s.s
    return g - cfg.mu * _center_cols(P)


def _objective_from_gradient(g: np.ndarray, P: np.ndarray) -> float:
    """The relaxed objective at P from its gradient g there.

    The objective is a homogeneous quadratic in P, so f(P) = 1/2 <grad f(P), P>
    exactly; ``relaxed_objective`` is the direct form.
    """
    return 0.5 * float(np.vdot(g, P))


def convexity_thresholds(l: CholeskyFactor, s: SampleCovariance) -> tuple[float, float, float]:
    """mu thresholds governing the shape of the relaxed objective.

    Returns ``(plain_convex, centered_convex, concave)``: with the
    penalty written as ||P||_F^2 the problem is convex for
    mu <= lambda_1(S) lambda_1(L^t L), in the centered form used here
    for mu <= lambda_2(S) lambda_1(L^t L) (the automatic mu), and any
    mu > lambda_max(S) lambda_max(L^t L) makes the objective concave, so
    its minimum sits at a vertex (a permutation matrix).  Eigenvalues
    are taken in ascending order; lambda_2 is the second smallest, not
    the second smallest distinct.  The spectra of the covariance and of
    the factor are computed once and cached on them.
    """
    ev_s, ev_l = s.spectrum, l.spectrum
    second = ev_s[1] if ev_s.shape[0] > 1 else ev_s[0]
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
    objective_trace: tuple = ()


def gradient_projection(
    l: CholeskyFactor,
    s: SampleCovariance,
    cfg: RelaxationConfig,
    p_init: DoublyStochastic,
) -> GradientProjectionResult:
    """Minimize the relaxed ordering objective over the Birkhoff polytope.

    Accelerated gradient projection (FISTA; Beck & Teboulle 2009) with
    function-value restart (O'Donoghue & Candes 2015).  Each iteration
    projects a gradient step from the extrapolated point
    Y = P + beta (P - P_prev), Z = proj(Y - eta grad f(Y)), with
    beta = (t_k - 1) / t_{k+1} and t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2
    from t = 1.  The step is eta = 1/(M + mu), where
    M = lambda_max(S) lambda_max(L^t L), the concave threshold, bounds the
    curvature of f (the -mu/2 ||T P||^2 term only lowers it), so eta <= 1/M
    for every mu >= 0.  A step with beta = 0 starts at P and is always
    accepted.  If an extrapolated step gives f(Z) > f(P), Z is discarded,
    t is reset to 1 and the plain step proj(P - eta grad f(P)) is taken
    instead; by the descent lemma its result P+ lowers f by at least
    ||P+ - P||_F^2 / (2 eta), so ``objective_trace``, the objective at the
    start and at each accepted iterate, never rises.  The gradient is
    linear in P, so grad f(Y) = (1 + beta) grad f(P) - beta grad f(P_prev)
    costs no product: one gradient per accepted step, plus one for each
    discarded one.  f(P) = 1/2 <grad f(P), P> comes with it.

    Stops when an accepted step moves P by at most cfg.eps in Frobenius
    norm, or after cfg.k_max iterations, and returns the last accepted
    iterate.  Under momentum ||P+ - P||_F is the step between accepted
    iterates, not the scaled gradient-mapping norm of plain gradient
    projection.  Inner projections run at the defaults of
    ``project_to_birkhoff``.  The first starts cold, and each later one,
    the restart's plain step included, at the dual solution of the last
    accepted projection, which keeps them to about 2 Newton steps each at
    p = 100.
    """
    if not (l.p == s.p == p_init.p):
        raise ValueError("dimension mismatch between l, s and p_init")
    eta = 1.0 / (convexity_thresholds(l, s)[2] + cfg.mu + 1e-15)

    P = p_init.m.copy()
    g = relaxed_gradient(P, l, s, cfg)
    fP = _objective_from_gradient(g, P)
    if not np.isfinite(fP):
        raise FloatingPointError("relaxed objective is not finite at the initial point")
    # the next step starts at Y with gradient gY; beta > 0 marks Y as extrapolated
    Y, gY, beta = P, g, 0.0
    t = 1.0
    duals = None
    converged = False
    n_iter = 0
    trace = [fP]
    for k in range(cfg.k_max):
        n_iter = k + 1
        proj = project_to_birkhoff(Y - eta * gY, duals0=duals)
        gZ = relaxed_gradient(proj.ds.m, l, s, cfg)
        fZ = _objective_from_gradient(gZ, proj.ds.m)
        if beta > 0.0 and fZ > fP:
            # restart: discard Z and take the plain step from P
            t = 1.0
            proj = project_to_birkhoff(P - eta * g, duals0=duals)
            gZ = relaxed_gradient(proj.ds.m, l, s, cfg)
            fZ = _objective_from_gradient(gZ, proj.ds.m)
        if not np.isfinite(fZ):
            raise FloatingPointError("relaxed objective became non-finite")
        duals = proj.duals
        Z = proj.ds.m
        step = Z - P
        # ||Z - P||_F as np.linalg.norm evaluates it, without its dispatch
        flat = step.ravel()
        moved = float(np.sqrt(np.dot(flat, flat)))
        t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
        beta = (t - 1.0) / t_next
        t = t_next
        if beta > 0.0:
            Y = Z + beta * step
            gY = (1.0 + beta) * gZ - beta * g
        else:
            Y, gY = Z, gZ
        P, g, fP = Z, gZ, fZ
        trace.append(fP)
        if moved <= cfg.eps:
            converged = True
            break
    return GradientProjectionResult(
        ds=proj.ds,
        converged=converged,
        n_iter=n_iter,
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


def _match_ranks(ds_m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One permutation per row x_k of x, as the rows of an int array.

    Row k is the permutation P with P r(x_k) = r(ds x_k): the position of
    the jth smallest entry of ds x_k maps to the position of the jth
    smallest of x_k.
    """
    pi = np.empty(x.shape, dtype=int)
    np.put_along_axis(pi, np.argsort(x @ ds_m.T, axis=1, kind="stable"),
                      np.argsort(x, axis=1, kind="stable"), axis=1)
    return pi


def sample_permutations(
    ds: DoublyStochastic, n_samples: int, rng: np.random.Generator
) -> list[Permutation]:
    """Round ds to permutations by matching ranks against Gaussian draws.

    Each sample draws x ~ N(0, I) and returns the permutation that acts
    on the ranks of x the way ds does: P r(x) = r(ds x).  The draws are
    taken in one call, the same stream as one call per sample.
    """
    n_samples = _as_int(n_samples, "n_samples", 1)
    return [Permutation(pi) for pi in _match_ranks(ds.m, rng.standard_normal((n_samples, ds.p)))]


def round_hungarian(ds: DoublyStochastic) -> Permutation:
    """Nearest permutation in Frobenius norm, argmax_P tr(ds^t P).

    Solved exactly as a linear assignment problem; ties resolve
    deterministically (a constant matrix rounds to the identity).
    """
    # imported here: scipy.optimize costs about 0.3 s to load, and only
    # the ordering step needs it
    from scipy.optimize import linear_sum_assignment

    _, cols = linear_sum_assignment(-ds.m)
    return Permutation(cols)


def _snap_to_permutation(ds_m: np.ndarray, tol: float = 1e-6) -> Permutation | None:
    r = np.rint(ds_m)
    if np.abs(ds_m - r).max() >= tol:
        return None
    if not ((r.sum(axis=0) == 1.0).all() and (r.sum(axis=1) == 1.0).all() and r.min() == 0.0):
        return None
    return Permutation(np.argmax(r, axis=1))


def rounding_candidates(
    relaxed: DoublyStochastic, rng: np.random.Generator, incumbent: Permutation
) -> tuple[np.ndarray, bool]:
    """The ordering step's candidates for a relaxed solution, one per row.

    The ``incumbent`` goes first.  If ``relaxed`` is a vertex to within
    1e-6, that vertex follows it and no draw is made.  Otherwise
    ``N_SAMPLES`` rank-matching draws follow, taken as
    ``sample_permutations`` takes them, then the linear-assignment
    rounding.  Only the first occurrence of each ordering is kept, in
    order.  Returns the (K, p) int array of candidates and whether
    ``relaxed`` snapped to a vertex.
    """
    snapped = _snap_to_permutation(relaxed.m)
    if snapped is not None:
        rows = [snapped.pi[None, :]]
    else:
        draws = rng.standard_normal((N_SAMPLES, relaxed.p))
        rows = [_match_ranks(relaxed.m, draws), round_hungarian(relaxed).pi[None, :]]
    rows = np.concatenate([incumbent.pi[None, :], *rows])
    first: dict[bytes, int] = {}
    keep = [first.setdefault(row.tobytes(), i) == i for i, row in enumerate(rows)]
    return rows[keep], snapped is not None


def best_candidate(l: CholeskyFactor, s: SampleCovariance, candidates: np.ndarray) -> int:
    """Index of the first row of ``candidates`` with the least ``trace_objective``.

    The winner of ``min`` over the rows keyed by ``trace_objective``, for
    fewer evaluations of it: it is evaluated for the first row and for
    each row that a cheaper screen cannot rule out.  For a row pi with
    permutation matrix P and A = P S P^t, the screen is

        screen(pi) = 1/2 <L^t L, A>,

    a permuted copy of S and one inner product with the factor's cached
    ``gram``, where ``trace_objective`` computes T(pi) = 1/2 <L A, L>
    with a p^3 product.  In exact arithmetic both are T.

    Rounding bound.  With unit roundoff u and gamma_n = n u / (1 - n u),
    the computed L A is within gamma_p |L| |A| of the exact product,
    entrywise, and summing its p^2 products with L adds at most
    gamma_{p^2} <|L| |A|, |L|>.  The computed L^t L and its inner product
    with A err in the same way.  So each form is within
    B = 1/2 gamma_{p^2+p} <|L|^t |L|, |A|> of T, and
    <|L|^t |L|, |A|> <= || |L|^t |L| ||_F ||A||_F <= ||L||_F^2 ||S||_F by
    Cauchy-Schwarz, as permuting leaves ||S||_F unchanged.  A row whose
    screen exceeds the best exact value so far by more than 2 B has an
    exact value above it and cannot win.  The slack used,
    2 gamma_{p^2+p} ||L||_F^2 ||S||_F, is twice that bound on 2 B, which
    covers the rounding of the bound itself.
    """
    p = l.p
    n = p * p + p
    u = 0.5 * _EPS_MACH
    gamma = n * u / (1.0 - n * u)
    slack = 2.0 * gamma * float(np.vdot(l.l, l.l)) * float(np.sqrt(np.vdot(s.s, s.s)))
    gram, sm = l.gram, s.s
    best_i, best = 0, trace_objective(l, Permutation(candidates[0]), s)
    for i in range(1, candidates.shape[0]):
        pi = candidates[i]
        # not (a > b) rather than a <= b: a NaN screen is evaluated exactly
        if not 0.5 * float(np.vdot(gram, sm.take(pi, 0).take(pi, 1))) - slack > best:
            value = trace_objective(l, Permutation(pi), s)
            if value < best:
                best_i, best = i, value
    return best_i


@dataclass(frozen=True)
class PermutationEstimate:
    perm: Permutation
    gp_converged: bool
    gp_iters: int
    snapped: bool


def estimate_permutation(
    l: CholeskyFactor,
    s: SampleCovariance,
    cfg: RelaxationConfig,
    rng: np.random.Generator,
    p_init: DoublyStochastic,
    incumbent: Permutation,
) -> PermutationEstimate:
    """Solve the relaxed ordering problem and round to a permutation.

    Runs gradient projection from p_init, rounds its solution to the
    candidate array of ``rounding_candidates`` (the ``incumbent``, then
    the snapped vertex alone, or ``N_SAMPLES`` rank-matching draws and
    the linear-assignment rounding, without repeats) and returns the one
    ``best_candidate`` picks: the smallest 1/2 tr(L P S P^t L^t), ties
    keeping the earliest.  The incumbent goes first, so the returned
    ordering never scores worse than it, the ordering step is monotone
    in the trace objective, and a tie keeps the incumbent.
    """
    gp = gradient_projection(l, s, cfg, p_init)
    candidates, snapped = rounding_candidates(gp.ds, rng, incumbent)
    return PermutationEstimate(
        perm=Permutation(candidates[best_candidate(l, s, candidates)]),
        gp_converged=gp.converged,
        gp_iters=gp.n_iter,
        snapped=snapped,
    )
