import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import odnsparse
from odnsparse import OdnMatrix


def child_env(**extra) -> dict:
    """Environment for a child Python process that imports the same
    odnsparse as this process, installed or not."""
    source = os.path.dirname(os.path.dirname(odnsparse.__file__))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def random_odn(rng: np.random.Generator, n: int, density: float = 0.5,
               diag_low: float = -1.0, diag_high: float = 2.0) -> OdnMatrix:
    """Random ODN matrix: uniform(0,1] weights, arbitrary-sign diagonal."""
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(len(i)) < density
    i, j = i[keep], j[keep]
    weights = 1.0 - rng.random(len(i))
    diag = rng.uniform(diag_low, diag_high, size=n)
    return OdnMatrix(n, i, j, weights, diag)


def complete_with_isolated_vertex(n: int = 40) -> OdnMatrix:
    """K_(n-1) plus one vertex with no edges: a dense graph with a zero degree."""
    k = odnsparse.generate_odn("complete", n - 1, seed=5, diag=("uniform", 0, 1))
    return OdnMatrix(n, k.rows, k.cols, k.vals, np.append(k.diag, 0.5))


def _dense(x) -> np.ndarray:
    return x.toarray() if sp.issparse(x) else np.asarray(x, dtype=np.float64)


def grounded_lowest(lap) -> list[np.ndarray]:
    """The vertices of each component of a Laplacian's graph, less the one of
    lowest index, which is grounded: an independent choice from the
    library's, which grounds the vertex of largest degree."""
    labels = connected_components(sp.csr_matrix(_dense(lap) != 0), directed=False)[1]
    return [np.flatnonzero(labels == c)[1:] for c in np.unique(labels)]


def grounded_resistances(matrix: OdnMatrix) -> np.ndarray:
    """Reference resistances of the stored pairs: per component, ground its
    lowest vertex and invert the rest of L by `np.linalg.solve`; then
    R_uv = G_uu + G_vv - 2 G_uv, a grounded vertex reading as 0."""
    lap = odnsparse.decompose(matrix).laplacian_dense()
    gram = np.zeros_like(lap)
    for kept in grounded_lowest(lap):
        block = np.ix_(kept, kept)
        gram[block] = np.linalg.solve(lap[block], np.eye(len(kept)))
    rows, cols = matrix.rows, matrix.cols
    return gram[rows, rows] + gram[cols, cols] - 2.0 * gram[rows, cols]


def dense_pencil(lap, lap_hat) -> np.ndarray:
    """Reference eigenvalues of the pencil (L_hat, L) on the complement of
    ker L that grounding each component's lowest vertex leaves, ascending.
    Either Laplacian may be held sparse or dense.

    If L's graph is a forest (n - components edges) holding L_hat's edges,
    L = B W B' and L_hat = B W_hat B' with the edge-vertex incidence B of
    independent columns, so the eigenvalues are exactly the sorted ratios
    w_hat_e / w_e, which are returned. Otherwise they are
    `scipy.linalg.eigh(L_hat_g, L_g)`, which is off the exact extremes by
    hundreds of eps on paths of 50 vertices, where L_g's condition number
    is n^2."""
    lap, lap_hat = _dense(lap), _dense(lap_hat)
    kept = np.concatenate(grounded_lowest(lap))
    weights, weights_hat = np.tril(lap, -1), np.tril(lap_hat, -1)
    edges = weights != 0
    if np.count_nonzero(edges) == len(kept) and not (weights_hat[~edges] != 0).any():
        return np.sort(weights_hat[edges] / weights[edges])
    block = np.ix_(kept, kept)
    return scipy.linalg.eigh(lap_hat[block], lap[block], eigvals_only=True)


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
