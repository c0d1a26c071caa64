import os

import numpy as np
import pytest
import scipy.sparse as sp

import odnsparse
from odnsparse import OdnMatrix
from odnsparse.spectra import PINV_CUTOFF


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


def dense_pencil(lap, lap_hat) -> np.ndarray:
    """Reference pencil (L_hat, L) on L's range, all dense: span' L_hat span
    scaled by mu^(-1/2) on both sides. Either Laplacian may be held sparse
    or dense."""
    lap, lap_hat = (x.toarray() if sp.issparse(x) else np.asarray(x) for x in (lap, lap_hat))
    mu, vecs = np.linalg.eigh(lap)
    keep = mu > PINV_CUTOFF * max(float(mu[-1]), 0.0)
    span = vecs[:, keep]
    inv_sqrt = 1.0 / np.sqrt(mu[keep])
    return np.linalg.eigvalsh((span.T @ lap_hat @ span) * np.outer(inv_sqrt, inv_sqrt))


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
