#!/usr/bin/env python3
"""Approximate PCA on a nonnegative correlation matrix.

When every pairwise correlation is nonnegative, the correlation matrix
can be sparsified and the principal-component variances of the sparse
stand-in stay within eps*sqrt(n)*rho(L) of the originals (the diagonal
spread term vanishes because a correlation matrix has a constant unit
diagonal). The payoff is a sparser matrix, fewer stored entries, with a
certified ceiling on how far its principal variances can move. Both sides'
variances come from one values solve of each matrix, dense here; a matrix
with a narrow band after reverse Cuthill-McKee is solved in band storage.
"""

import numpy as np

import odnsparse as od

rng = np.random.default_rng(2024)

# Synthetic one-factor data with positive loadings: all correlations > 0.
samples, features = 400, 60
loadings = rng.uniform(0.3, 0.9, features)
factor = rng.standard_normal(samples)
data = np.outer(factor, loadings) + 0.5 * rng.standard_normal((samples, features))

corr = od.correlation_from_data(data)
print(f"correlation matrix: n={corr.n}, all {corr.stored_pairs} pairs positive, "
      f"off-diagonal range [{corr.vals.min():.3f}, {corr.vals.max():.3f}]")

comparison = od.pca_compare(corr, epsilon=0.25, p=4, seed=3)

print(f"\nsparsified: nnz {comparison.nnz_before} -> {comparison.nnz_after}")
print(f"per-component bound eps*sqrt(n)*rho(L) = {comparison.per_component_bound:.3f}")
print(f"{'i':>3} {'variance':>10} {'variance_hat':>13} {'gap':>10}")
for i in range(comparison.p):
    print(f"{i + 1:>3} {comparison.variances[i]:>10.4f} "
          f"{comparison.variances_hat[i]:>13.4f} {comparison.gaps[i]:>10.2e}")

print(f"\ncumulative variance: {comparison.cumulative:.4f} vs "
      f"{comparison.cumulative_hat:.4f}")
print(f"cumulative bounds: per-component sum {comparison.cumulative_bound:.3f}, "
      f"literal indexed sum {comparison.cumulative_bound_literal:.3f}")
print(f"status: {comparison.status} "
      f"(sparsifier verified: {comparison.verification.passed})")

print(f"\nvalues solves: M {comparison.paths['matrix_values']}, "
      f"M_hat {comparison.paths['matrix_hat_values']}")

# The equicorrelation family has a closed-form spectrum, handy as a
# sanity check: top value 1 + r(n-1), all others 1 - r.
eq = od.generate_odn("equicorrelation", 20, correlation=0.5)
eq_cmp = od.pca_compare(eq, epsilon=0.25, p=3, seed=5)
print(f"\nequicorrelation n=20, r=0.5: variances {np.round(eq_cmp.variances, 6)} "
      f"(closed form: 10.5, 0.5, 0.5), gaps {np.round(eq_cmp.gaps, 5)}")
