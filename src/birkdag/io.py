"""CSV and JSON serialization for matrices, instances, fit results,
tuning grids and benchmark specs.

Matrices travel as headerless row-major CSV with full double precision
(shortest round-trip decimal form).  Permutations serialize as a single
row of 1-based indices.  Instances, fit results, grids and specs are JSON
documents.
"""

from __future__ import annotations

import json

import numpy as np

from birkdag.metrics import BenchmarkSpec
from birkdag.pipeline import FitResult, RrcfConfig, TuningGrid
from birkdag.scoring import ConvexityGuardError
from birkdag.sem import NoiseVariances, Permutation, SemInstance, WeightedAdjacency, _as_int


def matrix_to_csv(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    return "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError("empty CSV matrix")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("ragged CSV matrix: rows have different lengths")
    return np.array(rows, dtype=float)


def permutation_to_csv(perm: Permutation) -> str:
    return ",".join(str(int(i) + 1) for i in perm.pi) + "\n"


def permutation_from_csv(text: str) -> Permutation:
    toks = [t for t in text.strip().replace("\n", ",").split(",") if t]
    return Permutation(np.array([int(t) - 1 for t in toks], dtype=int))


def instance_to_json(inst: SemInstance, seed: int) -> str:
    doc = {
        "p": inst.p,
        "s": inst.expected_edges,
        "seed": seed,
        "ordering": [int(i) + 1 for i in inst.ordering.pi],
        "b": inst.adjacency.b.tolist(),
        "omega2": inst.noise.omega2.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> SemInstance:
    doc = json.loads(text)
    return SemInstance(
        adjacency=WeightedAdjacency(np.array(doc["b"], dtype=float)),
        noise=NoiseVariances(np.array(doc["omega2"], dtype=float)),
        ordering=Permutation(np.array(doc["ordering"], dtype=int) - 1),
        expected_edges=int(doc["s"]),
    )


def _triplets(a: np.ndarray) -> list:
    """Nonzeros of a, row-major, as 1-based [row, col, value] triplets.

    Exact zeros, -0.0 among them, are left out.
    """
    rows, cols = np.nonzero(a)
    return [[int(i) + 1, int(j) + 1, float(x)] for i, j, x in zip(rows, cols, a[rows, cols])]


def fit_result_to_json(res: FitResult, n: int, cfg: RrcfConfig) -> str:
    doc = {
        "p": res.l_hat.p,
        "n": n,
        "config": {
            "lambda": cfg.mcp.lam,
            "gamma": cfg.mcp.gamma,
            "mu": cfg.mu,
            "outer_k_max": cfg.outer_k_max,
            "seed": cfg.seed,
            "gamma_bic": cfg.gamma_bic,
            "init": cfg.init,
        },
        "permutation": [int(i) + 1 for i in res.perm_hat.pi],
        # the factor's upper triangle is exactly zero
        "l_hat": _triplets(res.l_hat.l),
        "b_hat": _triplets(res.b_hat.b),
        "omega_hat": res.omega_hat.omega2.tolist(),
        "score_trace": [
            {"nll": b.nll, "penalty": b.penalty, "total": b.total} for b in res.score_trace
        ],
        "ebic": res.ebic_value,
        "converged": res.converged,
        "diagnostics": res.diagnostics,
    }
    return json.dumps(doc, indent=2, default=_numpy_value) + "\n"


def _numpy_value(obj):
    """json's fallback for what it cannot encode itself: numpy scalars and
    arrays as Python values (np.float64 is a float, which json encodes)."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _from_doc(cls, fields: dict, doc: dict, what: str):
    """cls built from the keys present in doc, each converted by fields;
    absent keys take cls's defaults and unknown keys are an error.  A
    ``ConvexityGuardError`` from a nested document passes through as it is,
    so a gamma <= 1 anywhere keeps its own error class."""
    unknown = set(doc) - set(fields)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for k, v in doc.items():
        try:
            values[k] = fields[k](v)
        except ConvexityGuardError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} key {k!r}: {exc}") from exc
    return cls(**values)


def _float(value) -> float:
    """A JSON number; never a bool or a string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def _floats(values) -> tuple:
    return tuple(_float(v) for v in values)


def _int(value) -> int:
    """A JSON integer, or a float with no fractional part; never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return _as_int(value, "expected an integer")


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


_GRID_FIELDS = {"lambdas": _floats, "gammas": _floats, "gamma_bic": _float}
_SPEC_FIELDS = {
    "settings": lambda pairs: tuple(tuple(_int(v) for v in pair) for pair in pairs),
    "n": _int,
    "reps": _int,
    "seed": _int,
    "outer_k_max": _int,
    "grid": lambda doc: _from_doc(TuningGrid, _GRID_FIELDS, doc, "grid"),
    "measure_runtime": _bool,
}


def grid_from_json(text: str) -> TuningGrid:
    return _from_doc(TuningGrid, _GRID_FIELDS, json.loads(text), "grid")


def spec_from_json(text: str) -> BenchmarkSpec:
    """Benchmark spec; "settings" is required, every other key optional."""
    doc = json.loads(text)
    if "settings" not in doc:
        raise KeyError("settings")
    return _from_doc(BenchmarkSpec, _SPEC_FIELDS, doc, "spec")
