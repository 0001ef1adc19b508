"""CSV and JSON serialization for matrices, instances, and fit results.

Matrices travel as headerless row-major CSV with full double precision
(shortest round-trip decimal form).  Permutations serialize as a single
row of 1-based indices.  Instances and fit results are JSON documents.
"""

from __future__ import annotations

import json

import numpy as np

from birkdag.pipeline import FitResult, RrcfConfig, TuningGrid
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


def instance_to_json(inst: SemInstance, s: int, seed: int) -> str:
    doc = {
        "p": inst.p,
        "s": s,
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


def _lower_triplets(a: np.ndarray) -> list:
    """Nonzeros of the lower triangle as 1-based [row, col, value] triplets."""
    out = []
    for i in range(a.shape[0]):
        for j in range(i + 1):
            if a[i, j] != 0.0:
                out.append([i + 1, j + 1, float(a[i, j])])
    return out


def fit_result_to_json(res: FitResult, n: int, cfg: RrcfConfig) -> str:
    doc = {
        "p": res.l_hat.p,
        "n": n,
        "config": {
            "lambda": cfg.mcp.lam,
            "gamma": cfg.mcp.gamma,
            "mu": cfg.relax.mu,
            "outer_k_max": cfg.outer_k_max,
            "seed": cfg.seed,
            "gamma_bic": cfg.gamma_bic,
            "init": cfg.init,
        },
        "permutation": [int(i) + 1 for i in res.perm_hat.pi],
        "l_hat": _lower_triplets(res.l_hat.l),
        "b_hat": [[int(j + 1), int(k + 1), float(res.b_hat.b[j, k])]
                  for j, k in zip(*np.nonzero(res.b_hat.b))],
        "omega_hat": res.omega_hat.omega2.tolist(),
        "score_trace": [
            {"nll": b.nll, "penalty": b.penalty, "total": b.total} for b in res.score_trace
        ],
        "ebic": res.ebic_value,
        "converged": res.converged,
        "diagnostics": _jsonable(res.diagnostics),
    }
    return json.dumps(doc, indent=2) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


def grid_from_json(text: str) -> TuningGrid:
    doc = json.loads(text)
    unknown = set(doc) - {"lambdas", "gammas", "mus", "gamma_bic"}
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    kwargs = {}
    for key in ("lambdas", "gammas", "mus"):
        if key in doc:
            kwargs[key] = tuple(float(v) for v in doc[key])
    if "gamma_bic" in doc:
        kwargs["gamma_bic"] = float(doc["gamma_bic"])
    return TuningGrid(**kwargs)
