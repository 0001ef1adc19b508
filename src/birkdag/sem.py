"""Linear Gaussian structural equation models and synthetic benchmarks.

A model on p variables is parameterized either by a weighted adjacency
matrix ``B`` (entry ``b[j, k]`` is the coefficient of edge ``k -> j``)
with diagonal noise variances, or, after permuting the variables into a
topological order, by the lower-triangular factor ``L`` of the inverse
covariance ``Sigma^{-1} = L^t L``.  The two parameterizations share the
same sparsity pattern, which is what makes the Cholesky factor a carrier
of DAG structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular


def _as_float_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_int(value, name: str, low: int, high: float = np.inf) -> int:
    """An integer (numpy's too) in [low, high] as an int; anything else, a
    bool or a float among them, is a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bound = f"be at least {low}" if high == np.inf else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bound}, got {value}")
    return int(value)


def _check_counts(obj, **minimum) -> None:
    """Store each named field of the frozen dataclass ``obj`` as an int of at
    least its minimum (see ``_as_int``)."""
    for name, low in minimum.items():
        object.__setattr__(obj, name, _as_int(getattr(obj, name), name, low))


def _as_real(value, must: str, low: float = -np.inf, high: float = np.inf, *,
             above: bool = False) -> float:
    """A finite real (numpy's too) in [low, high], or in (low, high] when
    ``above``, as a float; anything else, a bool, a string or nan among them,
    is ValueError(f"{must}, got {value!r}").  Plain Python: no numpy call."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{must}, got {value!r}")
    v = float(value)
    if not (-np.inf < v < np.inf and (low < v if above else low <= v) and v <= high):
        raise ValueError(f"{must}, got {value!r}")
    return v


def _as_setting(p, s) -> tuple[int, int]:
    """A (p, s) setting of ``generate_dag`` as ints: p variables, at least 2,
    and an expected edge count s in [0, p(p-1)/2]."""
    p = _as_int(p, "p", 2)
    return p, _as_int(s, "s", 0, p * (p - 1) // 2)


@dataclass(frozen=True)
class Permutation:
    """A variable ordering pi, stored as a 0-based index array.

    The induced matrix ``P`` has ``P[i, pi[i]] = 1``, so ``P @ x``
    reorders ``x`` as ``x[pi]``.
    """

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi)
        if pi.ndim != 1 or pi.shape[0] < 1:
            raise ValueError("pi must be a non-empty 1-d index array")
        # compared before any integer cast, so 0.5 or nan fails here
        # rather than truncating to a valid index
        if not np.array_equal(np.sort(pi), np.arange(pi.shape[0])):
            raise ValueError("pi must be a bijection on 0..p-1")
        object.__setattr__(self, "pi", pi.astype(int, copy=False))

    @property
    def p(self) -> int:
        return self.pi.shape[0]

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.p, self.p))
        m[np.arange(self.p), self.pi] = 1.0
        return m

    def inverse(self) -> "Permutation":
        inv = np.empty(self.p, dtype=int)
        inv[self.pi] = np.arange(self.p)
        return Permutation(inv)

    @staticmethod
    def identity(p: int) -> "Permutation":
        return Permutation(np.arange(p))

    def apply_to_matrix(self, a: np.ndarray) -> np.ndarray:
        """Conjugate a p x p matrix into the permuted frame: P A P^t.

        Two ``take`` gathers give the values and the C memory order of
        ``a[np.ix_(pi, pi)]`` in about a third of its time at p = 100.
        ``a[pi][:, pi]`` is faster still, but comes out in Fortran order,
        which changes the rounding of sums over the result.
        """
        return a.take(self.pi, 0).take(self.pi, 1)


@dataclass(frozen=True)
class WeightedAdjacency:
    """Weighted adjacency matrix B with b[j, k] the weight of edge k -> j."""

    b: np.ndarray

    def __post_init__(self):
        b = _as_float_matrix(self.b, "b")
        if np.abs(np.diag(b)).max(initial=0.0) != 0.0:
            raise ValueError("adjacency matrix must have a zero diagonal")
        object.__setattr__(self, "b", b)

    @property
    def p(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class NoiseVariances:
    """Diagonal of the noise variance matrix Omega."""

    omega2: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega2, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("omega2 must be a non-empty 1-d array")
        if not (np.isfinite(w).all() and (w > 0).all()):
            raise ValueError("noise variances must be finite and strictly positive")
        object.__setattr__(self, "omega2", w)

    @property
    def p(self) -> int:
        return self.omega2.shape[0]


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with positive diagonal, Sigma^{-1} = L^t L.

    The strict lower triangle carries the DAG edges; the diagonal carries
    the noise scales (L_ii = 1/omega_i).
    """

    l: np.ndarray

    def __post_init__(self):
        l = _as_float_matrix(self.l, "l")
        if np.abs(l[np.triu_indices_from(l, 1)]).max(initial=0.0) != 0.0:
            raise ValueError("entries above the diagonal must be exactly zero")
        if not (np.diag(l) > 0).all():
            raise ValueError("diagonal entries must be strictly positive")
        object.__setattr__(self, "l", l)

    @property
    def p(self) -> int:
        return self.l.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        """L^t L, computed once per factor."""
        return self.l.T @ self.l

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of L^t L in ascending order, computed once per factor."""
        return np.linalg.eigvalsh(self.gram)

    def support_size(self) -> int:
        """Number of nonzeros in the strict lower triangle."""
        tl = np.tril_indices(self.p, -1)
        return int(np.count_nonzero(self.l[tl]))


@dataclass(frozen=True)
class SemInstance:
    """Ground-truth SEM: adjacency, noise, and a topological ordering.

    ``ordering`` is the permutation under which the adjacency becomes
    strictly lower triangular, i.e. ``P B P^t`` has zeros on and above
    the diagonal.  ``expected_edges`` is the s of ``generate_dag``, held
    to the same (p, s) rule.
    """

    adjacency: WeightedAdjacency
    noise: NoiseVariances
    ordering: Permutation
    expected_edges: int = 0

    def __post_init__(self):
        p = self.adjacency.p
        if self.noise.p != p or self.ordering.p != p:
            raise ValueError("adjacency, noise and ordering dimensions disagree")
        b_perm = self.ordering.apply_to_matrix(self.adjacency.b)
        if np.abs(np.triu(b_perm)).max(initial=0.0) != 0.0:
            raise ValueError("adjacency is not strictly lower triangular under ordering")
        try:
            _, s = _as_setting(p, self.expected_edges)
        except ValueError as exc:
            raise ValueError(f"expected_edges must be an s that generate_dag accepts: {exc}") from exc
        object.__setattr__(self, "expected_edges", s)

    @property
    def p(self) -> int:
        return self.adjacency.p


@dataclass(frozen=True)
class DataMatrix:
    """n x p data matrix, one observation per row."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError(f"x must be a non-empty 2-d array, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("data matrix contains non-finite entries")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def _checked_covariance(s) -> np.ndarray:
    s = _as_float_matrix(s, "s")
    if np.abs(s - s.T).max(initial=0.0) > 1e-12:
        raise ValueError("sample covariance must be symmetric within 1e-12")
    if not (np.diag(s) > 0).all():
        raise ValueError(
            "sample covariance has a non-positive diagonal entry "
            "(degenerate data: a column has zero variance); the row solver requires S_ii > 0"
        )
    return s


@dataclass(frozen=True)
class SampleCovariance:
    """Symmetric PSD sample covariance with strictly positive diagonal."""

    s: np.ndarray

    def __post_init__(self):
        s = _checked_covariance(self.s)
        w = np.linalg.eigvalsh(s)
        if w[0] < -1e-10 * max(w[-1], 1.0):
            raise ValueError("sample covariance is not positive semi-definite")
        object.__setattr__(self, "s", s)
        # the eigenvalues of the test are the spectrum's cached value
        object.__setattr__(self, "spectrum", w)

    @classmethod
    def _of_gram(cls, s: np.ndarray) -> SampleCovariance:
        """A covariance X^t X / n, PSD by construction: the eigenvalue test
        is skipped, the symmetry and diagonal checks are kept."""
        out = object.__new__(cls)
        object.__setattr__(out, "s", _checked_covariance(s))
        return out

    @property
    def p(self) -> int:
        return self.s.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of S in ascending order, computed once per covariance."""
        return np.linalg.eigvalsh(self.s)


def generate_dag(p: int, s: int, rng: np.random.Generator) -> SemInstance:
    """Draw a random sparse DAG with expected edge count s.

    Each of the p(p-1)/2 lower-triangular slots (in generation order) is
    filled independently with probability q = 2s/(p(p-1)); nonzero
    weights are uniform on [-1, -0.1] u [0.1, 1].  Noise variances are
    all one.  Variable labels are then scrambled by a uniformly random
    permutation, which is stored as the ground-truth ordering.

    Parameters
    ----------
    p : number of variables, an integer of at least 2.
    s : expected number of edges, an integer between 0 and p(p-1)/2.
    rng : numpy random generator.
    """
    p, s = _as_setting(p, s)
    q = 2.0 * s / (p * (p - 1))
    tl = np.tril_indices(p, -1)
    n_slots = tl[0].shape[0]
    present = rng.random(n_slots) < q
    magnitude = rng.uniform(0.1, 1.0, size=n_slots)
    sign = np.where(rng.random(n_slots) < 0.5, -1.0, 1.0)

    b_gen = np.zeros((p, p))
    b_gen[tl] = np.where(present, sign * magnitude, 0.0)

    order = Permutation(rng.permutation(p))
    # scramble labels: the stored B satisfies P B P^t = b_gen
    inv = order.inverse()
    b = inv.apply_to_matrix(b_gen)
    return SemInstance(
        adjacency=WeightedAdjacency(b),
        noise=NoiseVariances(np.ones(p)),
        ordering=order,
        expected_edges=s,
    )


def adjacency_to_cholesky(inst: SemInstance) -> CholeskyFactor:
    """Map (B, Omega, pi) to the permuted-frame factor L = Omega_pi^{-1/2} (I - B_pi)."""
    b_perm = inst.ordering.apply_to_matrix(inst.adjacency.b)
    omega_perm = inst.noise.omega2[inst.ordering.pi]
    l = (np.eye(inst.p) - b_perm) / np.sqrt(omega_perm)[:, None]
    return CholeskyFactor(l)


def cholesky_to_adjacency(l: CholeskyFactor) -> tuple[WeightedAdjacency, NoiseVariances]:
    """Invert the row-scaling map, staying in the permuted frame.

    Returns (B, Omega) with omega2_i = 1/L_ii^2 and B_ij = -L_ij / L_ii
    for i > j; the zero pattern of L is preserved exactly.
    """
    d = np.diag(l.l)
    b = -(l.l / d[:, None])
    np.fill_diagonal(b, 0.0)
    return WeightedAdjacency(b), NoiseVariances(1.0 / d**2)


def sample_data(inst: SemInstance, n: int, rng: np.random.Generator) -> DataMatrix:
    """Draw n i.i.d. rows from N(0, Sigma) with Sigma^{-1} = L^t L.

    Sampling solves the triangular system L x = z for z ~ N(0, I) in the
    permuted frame, then maps columns back to the original labels.
    """
    n = _as_int(n, "n", 1)
    l = adjacency_to_cholesky(inst).l
    z = rng.standard_normal((n, inst.p))
    x_perm = solve_triangular(l, z.T, lower=True).T
    # column i of the permuted frame is original variable pi[i]
    x = x_perm @ inst.ordering.matrix()
    return DataMatrix(x)


def sample_covariance(x: DataMatrix) -> SampleCovariance:
    """S = X^t X / n, symmetrized to remove round-off asymmetry.

    S is PSD by construction, so the constructor's eigenvalue test is
    skipped; its symmetry and diagonal checks still run.
    """
    s = x.x.T @ x.x / x.n
    return SampleCovariance._of_gram(0.5 * (s + s.T))
