"""The relaxed ordering problem: geometry, mu, and rounding.

Minimizing 1/2 tr(L P S P^t L^t) over doubly stochastic P collapses to
the polytope center when the factor carries no ordering information;
the -mu/2 ||P||_F^2 term pushes the solution back toward vertices.  Past
the concavity threshold the optimum *is* a vertex.  In between, rounding
converts the relaxed solution into permutation candidates.
"""

import numpy as np

from birkdag import (
    CholeskyFactor,
    DoublyStochastic,
    RelaxationConfig,
    SampleCovariance,
    convexity_thresholds,
    gradient_projection,
    rank_vector,
    round_hungarian,
    sample_permutations,
)

rng = np.random.default_rng(1)
p = 6
x = rng.standard_normal((60, p))
s = SampleCovariance(x.T @ x / 60)

# mu = 0 with an uninformative factor: the solution is the center J/p.
cfg0 = RelaxationConfig(mu=0.0, eps=1e-9, k_max=4000)
res0 = gradient_projection(CholeskyFactor(np.eye(p)), s, cfg0, DoublyStochastic.center(p))
print("mu = 0, L = I: distance to center =",
      float(np.linalg.norm(res0.ds.m - 1.0 / p)))

# Past the concavity threshold the solution snaps to a permutation.
l = CholeskyFactor(np.tril(rng.standard_normal((p, p)), -1) + np.diag(rng.uniform(0.5, 2, p)))
plain, centered, concave = convexity_thresholds(l, s)
print(f"mu thresholds: plain-convex {plain:.4f}, centered-convex {centered:.4f}, "
      f"concave {concave:.2f}")
cfg1 = RelaxationConfig(mu=1.1 * concave, eps=1e-10, k_max=3000)
res1 = gradient_projection(l, s, cfg1, DoublyStochastic.center(p))
print("mu above concave threshold -> vertex: ||P||_F =",
      float(np.linalg.norm(res1.ds.m)), f"(sqrt(p) = {np.sqrt(p):.4f})")

# Rounding: ranks of a Gaussian draw are matched through the matrix.
print("\nrank_vector([4.7, -2.1, 2.5]) =", rank_vector([4.7, -2.1, 2.5]))
ds = res0.ds
cands = sample_permutations(ds, 5, rng)
print("five sampled orderings from the flat solution (diverse):")
for c in cands:
    print("  ", c.pi)
print("assignment rounding of a near-vertex solution recovers it exactly:")
print("  ", round_hungarian(res1.ds).pi)
