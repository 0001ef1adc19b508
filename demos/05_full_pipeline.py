"""End to end: generate a DAG, tune by eBIC, fit, and score the recovery."""

import numpy as np

from birkdag import (
    McpParams,
    RrcfConfig,
    TuningGrid,
    extract_edges,
    fit,
    generate_dag,
    sample_data,
    scaled_frobenius,
    structure_metrics,
    tune,
)

rng = np.random.default_rng(21)
p, s_edges, n = 30, 35, 400
inst = generate_dag(p, s_edges, rng)
x = sample_data(inst, n, rng)

# Pick lambda by eBIC over a small grid (one L-step per cell).
grid = TuningGrid(lambdas=(0.1, 0.2, 0.3, 0.4), gammas=(2.0,))
best, table = tune(x, grid)
print("eBIC table:")
for row in table:
    print(f"  lambda={row['lam']:.2f} support={row['support']:3d} ebic={row['ebic']:.1f}")
print("selected:", best["lam"])

# Full fit at the selected point.
cfg = RrcfConfig(mcp=McpParams(best["lam"], best["gamma"]), outer_k_max=15, seed=0)
res = fit(x, cfg)
print(f"\nordering steps: {res.diagnostics['n_outer']}, converged: {res.converged}")
print("score trace:", [round(b.total, 4) for b in res.score_trace])

truth = extract_edges(inst.adjacency)
est = extract_edges(res.b_hat)
tpr, fpr, shd = structure_metrics(est, truth)
print(f"\nrecovery: TPR={tpr:.3f} FPR={fpr:.4f} SHD={shd} "
      f"scaled-Frobenius={scaled_frobenius(res.b_hat, inst.adjacency):.3f}")
print(f"true edges: {len(truth.edges)}, estimated: {len(est.edges)}")
