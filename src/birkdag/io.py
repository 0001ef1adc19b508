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
from birkdag.sem import NoiseVariances, Permutation, SemInstance, WeightedAdjacency


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
        expected_edges=_int(doc["s"]),
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


def _labelled(label: str, build):
    """build(), with a KeyError, TypeError or ValueError re-raised as
    ValueError(f"{label}: {exc}").  A ``ConvexityGuardError`` passes
    through as it is, so a gamma <= 1 anywhere keeps its own error class."""
    try:
        return build()
    except ConvexityGuardError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _from_doc(cls, doc, what: str, **shape):
    """The dataclass cls built from the keys present in the JSON object doc.

    Each value is shaped by its function in ``shape``, if any, and then
    checked by cls on its own, against cls's defaults for the other
    fields, so that an error names its key.  Absent keys take cls's
    defaults; a key that is not a field of cls is an error.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"the {what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for k, v in doc.items():
        values[k] = _labelled(f"{what} key {k!r}",
                              lambda: getattr(cls(**{k: shape[k](v) if k in shape else v}), k))
    return cls(**values)


def _int(value):
    """A float with no fractional part, which is how JSON may write a count,
    as an int; any other value as it is, for the owning type to check."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _grid(doc) -> TuningGrid:
    return _from_doc(TuningGrid, doc, "grid")


def _spec(doc) -> BenchmarkSpec:
    if isinstance(doc, dict) and "settings" not in doc:
        raise KeyError("settings")
    counts = dict.fromkeys(("n", "reps", "seed", "outer_k_max"), _int)
    return _from_doc(BenchmarkSpec, doc, "spec", grid=_grid, **counts,
                     settings=lambda pairs: [[_int(v) for v in pair] for pair in pairs])


def grid_from_json(text: str) -> TuningGrid:
    return _labelled("invalid grid JSON", lambda: _grid(json.loads(text)))


def spec_from_json(text: str) -> BenchmarkSpec:
    """Benchmark spec; "settings" is required, every other key optional."""
    return _labelled("invalid benchmark spec", lambda: _spec(json.loads(text)))
