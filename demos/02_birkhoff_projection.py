"""Euclidean projection onto the Birkhoff polytope via its dual.

The projection solves min 1/2 ||P - P0||_F^2 over doubly stochastic
matrices by semismooth Newton ascent on the dual: the primal is
max(P0 - u 1^t - 1 v^t, 0), each step solves a p x p linear system for
the dual step, and the duality gap certifies optimality.
"""

import numpy as np

from birkdag import DoublyStochastic, dual_objective, project_to_birkhoff

rng = np.random.default_rng(0)

# Projecting a random matrix: the result is feasible and certified.
p0 = rng.standard_normal((6, 6))
res = project_to_birkhoff(p0, eps=1e-11)
m = res.ds.m
print(f"converged in {res.n_iter} iterations, duality gap {res.gap:.2e}")
print("row sums:", np.round(m.sum(axis=1), 12))
print("col sums:", np.round(m.sum(axis=0), 12))
print("min entry:", m.min())

# The dual value at the returned multipliers matches the primal value.
primal = 0.5 * ((m - p0) ** 2).sum()
print("primal:", primal, " dual:", dual_objective(res.duals, p0))

# Feasible inputs are fixed points: one iteration, zero gap.
perm = np.eye(5)[[3, 0, 4, 1, 2]]
res2 = project_to_birkhoff(perm)
print("\npermutation input: iterations =", res2.n_iter,
      " moved =", np.abs(res2.ds.m - perm).max())

# A classic small case: [[2, 0], [0, 2]] projects to the identity, the
# nearest vertex of the 2x2 polytope segment.
res3 = project_to_birkhoff(np.array([[2.0, 0.0], [0.0, 2.0]]))
print("[[2,0],[0,2]] ->")
print(np.round(res3.ds.m, 9))

# Every doubly stochastic matrix has Frobenius norm between 1 (the
# center J/p) and sqrt(p) (the vertices).
for p in (3, 6, 10):
    center = DoublyStochastic.center(p)
    print(f"p={p}: ||J/p||_F = {np.linalg.norm(center.m):.6f}, "
          f"||vertex||_F = {np.linalg.norm(np.eye(p)):.6f}")
