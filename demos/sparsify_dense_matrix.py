#!/usr/bin/env python3
"""End-to-end walkthrough: sparsify a dense symmetric matrix and check
every certified bound along the way.

The input is a weighted complete graph on 80 vertices with a random
diagonal, so all n(n-1)/2 off-diagonal entries are nonzero. Sampling
edges by effective resistance produces a much sparser matrix whose
eigenvalues sit within eps*sqrt(n)*rho(L) + (diag spread)/2 of the
original, index by index.
"""

import numpy as np

import odnsparse as od

EPSILON = 0.25
SEED = 7

matrix = od.generate_odn("complete", 80, seed=1, diag=("uniform", 0.0, 2.0))
print(f"input: complete graph, n={matrix.n}, nnz={matrix.nnz}")

# Decompose into adjacency / degrees / Laplacian and read the diagonal stats.
decomp = od.decompose(matrix)
print(f"diagonal range: [{decomp.delta_min:.4f}, {decomp.delta_max:.4f}], "
      f"centering value d={decomp.center:.4f}")

# The centered matrix shares the Laplacian; only its diagonal changes.
centered = od.center_diagonal(matrix)
assert np.array_equal(
    od.decompose(centered).laplacian_dense(), decomp.laplacian_dense()
)

# Sample the sparsifier and rebuild a matrix with the centered diagonal.
result = od.sparsify_laplacian(decomp, EPSILON, seed=SEED)
m_hat = od.reconstruct(result.adjacency, decomp.center)
print(f"drew {result.samples_drawn} samples -> {result.distinct_edges} distinct edges")
print(f"nnz: {matrix.nnz} -> {result.nnz_after} "
      f"({result.nnz_after / matrix.nnz:.1%} of the original)")

# Check the sparsifier inequality: the exact generalized-eigenvalue
# extremes of (L_hat, L) on the range of L.
ver = od.verify_sparsifier(decomp.laplacian, result.laplacian, EPSILON)
print(f"quadratic-form ratios in [{ver.gen_min:.4f}, {ver.gen_max:.4f}], "
      f"target [{1 - EPSILON}, {1 + EPSILON}] -> {'ok' if ver.passed else 'VIOLATED'}")

# Per-index eigenvalue deviations against the certified bound.
report = od.spectral_report(matrix, m_hat, EPSILON)
print(f"max |lambda_i - lambda_hat_i| = {report.max_deviation:.4f}")
print(f"certified bound              = {report.bound:.4f}")
print(f"bound holds: {report.eigenvalue_bound_passed}")

# Eigenvector angles: sin(theta_i) against ||M - M_hat|| / gap_i.
defined = [a for a in report.angles if a.bound is not None and a.bound < 1]
if defined:
    worst = max(defined, key=lambda a: a.sin_theta / a.bound)
    print(f"angle bounds: {len(defined)} informative indices, worst "
          f"sin(theta)={worst.sin_theta:.2e} vs bound {worst.bound:.2e}")

# Inertia (counts of positive/negative/zero eigenvalues) is preserved
# whenever the smallest |eigenvalue| clears the deviation bound.
print(f"inertia {report.inertia} -> {report.inertia_hat} "
      f"(match: {report.inertia_match}, guaranteed: {report.inertia_guaranteed})")
