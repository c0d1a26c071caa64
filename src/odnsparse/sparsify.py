"""Spectral sparsification of graph Laplacians by effective-resistance sampling.

Edges are sampled i.i.d. with replacement, with probability proportional
to weight times effective resistance (the leverage score), and each draw
contributes w_e / (q * p_e) to the sampled adjacency. The estimator is
unbiased, and with q = ceil(C * n * ln n / eps^2) draws the sampled
Laplacian satisfies (1 - eps) L <= L_hat <= (1 + eps) L in the
positive-semidefinite order with failure probability at most 1/n for
C >= 9. All randomness comes from numpy's PCG64 generator, so results
are bit-reproducible for a fixed (input, epsilon, seed, C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .core import LaplacianDecomposition
from .errors import DenseLimitExceededError, InvalidConstantError, InvalidEpsilonError
from .spectra import PINV_CUTOFF, PairSpectra, _require_same_shape

# epsilon threshold below which the strictest published edge-count
# guarantees are stated; sampling itself works for any epsilon in (0, 1).
EPSILON_SMALL_REGIME = 1.0 / 120.0
# Sketched resistances: k = ceil(24 ln n / distortion^2) projection rows
# give multiplicative error within +-distortion with high probability.
SKETCH_DISTORTION = 0.25
_SKETCH_ROW_CHUNK = 128


@dataclass(frozen=True, eq=False)
class SparsifierResult:
    """Sampled Laplacian (as adjacency plus degrees) and its accounting."""

    adjacency: sp.csr_matrix
    degrees: np.ndarray
    epsilon: float
    seed: int
    samples_drawn: int
    distinct_edges: int
    oversample_constant: float
    epsilon_above_small_regime: bool

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        return (sp.diags(self.degrees) - self.adjacency).tocsr()

    @property
    def nnz_after(self) -> int:
        """Nonzero budget of the reconstructed matrix: 2 * edges + full diagonal."""
        return 2 * self.distinct_edges + self.n


def _exact_resistances(spectra: PairSpectra) -> np.ndarray:
    src = spectra.base.matrix
    mu, vecs = spectra.laplacian_eigh
    rho = max(float(mu[-1]), 0.0)
    inv = np.zeros_like(mu)
    keep = mu > PINV_CUTOFF * rho
    inv[keep] = 1.0 / mu[keep]
    diff = vecs[src.rows] - vecs[src.cols]
    return (diff * diff) @ inv


def _sketched_resistances(decomp: LaplacianDecomposition, seed: int) -> np.ndarray:
    """Johnson-Lindenstrauss sketch of the incidence factorization.

    Computes R~_e = ||Z (e_i - e_j)||^2 with Z = Q W^(1/2) B L^+, where Q
    has k = ceil(24 ln n / 0.25^2) rows of +-1/sqrt(k). The solves ground
    one vertex per connected component, which leaves within-component
    potential differences exact.
    """
    src = decomp.matrix
    n = decomp.n
    m = src.stored_pairs
    k = int(math.ceil(24.0 * math.log(max(n, 2)) / SKETCH_DISTORTION**2))

    sqrt_w = np.sqrt(src.vals)
    incidence = sp.csr_matrix(
        (
            np.concatenate([sqrt_w, -sqrt_w]),
            (np.tile(np.arange(m), 2), np.concatenate([src.rows, src.cols])),
        ),
        shape=(m, n),
    )

    rng = np.random.Generator(np.random.PCG64(seed).jumped())
    sketch = np.empty((k, n))
    scale = 1.0 / math.sqrt(k)
    for start in range(0, k, _SKETCH_ROW_CHUNK):
        stop = min(start + _SKETCH_ROW_CHUNK, k)
        block = rng.integers(0, 2, size=(stop - start, m)).astype(np.float64)
        block = (2.0 * block - 1.0) * scale
        sketch[start:stop] = (incidence.T @ block.T).T

    count, labels = decomp.components
    lap = decomp.laplacian.tocsr()
    potentials = np.zeros((n, k))
    for c in range(count):
        idx = np.flatnonzero(labels == c)
        if len(idx) < 2:
            continue
        grounded = idx[1:]
        sub = lap[grounded, :][:, grounded].tocsc()
        potentials[grounded] = splu(sub).solve(sketch[:, grounded].T)

    diff = potentials[src.rows] - potentials[src.cols]
    return (diff * diff).sum(axis=1)


def effective_resistances(
    decomp: LaplacianDecomposition | PairSpectra,
    mode: str = "exact",
    *,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge effective resistances and normalized sampling probabilities.

    Returns the arrays (resistance, probability), aligned with the stored
    pairs `decomp.matrix.rows/cols/vals`; an edge's leverage is
    vals * resistance. Exact mode uses the eigendecomposition pseudoinverse
    of the Laplacian (singular values below 1e-10 * rho(L) treated as
    zero) and raises DenseLimitExceededError above the pair's dense limit.
    Approximate mode sketches the incidence factorization and is accurate
    within +-25% with high probability. Disconnected inputs are fine: the
    pseudoinverse acts per component.
    """
    spectra = PairSpectra.of(decomp)
    src = spectra.matrix
    if src.stored_pairs == 0:
        return np.zeros(0), np.zeros(0)
    if mode == "exact":
        resistance = _exact_resistances(spectra)
    elif mode == "approximate":
        resistance = _sketched_resistances(spectra.base, seed)
    else:
        raise ValueError(f"unknown resistance mode {mode!r}")
    leverage = src.vals * resistance
    return resistance, leverage / leverage.sum()


def sample_count(n: int, epsilon: float, constant: float) -> int:
    """Number of i.i.d. edge draws: ceil(C * n * ln(max(n, 2)) / eps^2)."""
    return int(math.ceil(constant * n * math.log(max(n, 2)) / epsilon**2))


def sparsify_laplacian(
    decomp: LaplacianDecomposition | PairSpectra,
    epsilon: float,
    seed: int = 0,
    constant: float = 9.0,
    *,
    mode: str = "exact",
) -> SparsifierResult:
    """Draw an epsilon-spectral sparsifier of the decomposition's Laplacian.

    Identical (decomp, epsilon, seed, constant) inputs give bit-identical
    results. Repeated draws of one edge accumulate weight. A Laplacian
    with no edges short-circuits to the empty sparsifier. Given a
    PairSpectra, its eigendecomposition of L is shared with later checks.
    """
    if not (0.0 < epsilon < 1.0) or not math.isfinite(epsilon):
        raise InvalidEpsilonError(epsilon)
    if not constant > 0.0:
        raise InvalidConstantError(constant)

    src = decomp.matrix
    n = src.n
    warn = bool(epsilon > EPSILON_SMALL_REGIME)
    if src.stored_pairs == 0:
        return SparsifierResult(
            adjacency=sp.csr_matrix((n, n)),
            degrees=np.zeros(n),
            epsilon=float(epsilon),
            seed=int(seed),
            samples_drawn=0,
            distinct_edges=0,
            oversample_constant=float(constant),
            epsilon_above_small_regime=warn,
        )

    _, probability = effective_resistances(decomp, mode, seed=seed)
    q = sample_count(n, epsilon, constant)

    # Inverse-CDF sampling: searchsorted on the cumulative probabilities is
    # deterministic, including tie handling; the final clamp guards against
    # uniforms landing beyond cum[-1] when it rounds below 1.
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms = rng.random(q)
    cumulative = np.cumsum(probability)
    drawn = np.searchsorted(cumulative, uniforms, side="right")
    drawn = np.minimum(drawn, src.stored_pairs - 1)

    counts = np.bincount(drawn, minlength=src.stored_pairs).astype(np.float64)
    weights = src.vals * (counts / (q * probability))
    keep = counts > 0

    i = src.rows[keep]
    j = src.cols[keep]
    w = weights[keep]
    adjacency = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )
    degrees = np.asarray(adjacency.sum(axis=1)).reshape(-1)
    return SparsifierResult(
        adjacency=adjacency,
        degrees=degrees,
        epsilon=float(epsilon),
        seed=int(seed),
        samples_drawn=q,
        distinct_edges=int(keep.sum()),
        oversample_constant=float(constant),
        epsilon_above_small_regime=warn,
    )


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of checking (1-eps) x'Lx <= x'L_hat x <= (1+eps) x'Lx."""

    n: int
    epsilon: float
    probes: int
    seed: int
    probe_min: float | None
    probe_max: float | None
    gen_min: float | None
    gen_max: float | None
    kernel_leak: float | None
    passed: bool
    mode: str


def _offdiag_components(lap) -> np.ndarray:
    coo = sp.coo_matrix(lap)
    # Stored zeros are not edges.
    off = (coo.row != coo.col) & (coo.data != 0)
    graph = sp.csr_matrix(
        (np.ones(off.sum()), (coo.row[off], coo.col[off])), shape=coo.shape
    )
    return connected_components(graph, directed=False)[1]


def _max_abs(x) -> float:
    return float(abs(x).max()) if min(x.shape) else 0.0


def verify_sparsifier(
    laplacian,
    laplacian_hat=None,
    epsilon=None,
    probes: int = 1000,
    seed: int = 0,
) -> VerificationRecord:
    """Check the spectral-sparsifier inequality numerically.

    Draws `probes` Gaussian vectors, projects them off the all-ones
    kernel of each connected component, and records the extreme Rayleigh
    ratios x'L_hat x / x'Lx. Within the pair's dense limit it also computes
    the exact extreme generalized eigenvalues of (L_hat, L) on the range
    of L, which decide the `passed` flag; above it the probe extremes do.
    """
    spectra = PairSpectra.of(laplacian, laplacian_hat)
    lap = spectra.laplacian
    lap_hat = spectra.laplacian_hat
    _require_same_shape(lap, lap_hat)
    if not (0.0 < epsilon < 1.0):
        raise InvalidEpsilonError(epsilon)
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    n = lap.shape[0]
    grace = 1e-9
    scale_hat = _max_abs(lap_hat)
    probe_min = probe_max = gen_min = gen_max = None

    if _max_abs(lap) == 0.0:
        kept, kernel_leak, passed, mode = 0, scale_hat, scale_hat <= 1e-12, "trivial-zero"
    else:
        labels = _offdiag_components(lap)
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.standard_normal((n, probes))
        for c in np.unique(labels):
            idx = labels == c
            x[idx] -= x[idx].mean(axis=0)
        norms = np.linalg.norm(x, axis=0)
        good = norms > 0
        x = x[:, good] / norms[good]
        kept = x.shape[1]

        numer = np.einsum("ij,ij->j", x, lap_hat @ x)
        denom = np.einsum("ij,ij->j", x, lap @ x)
        ratios = numer / denom
        probe_min = float(ratios.min())
        probe_max = float(ratios.max())

        try:
            gen, kernel_leak = spectra.pencil
        except DenseLimitExceededError:
            low, high, mode = probe_min, probe_max, "probes-only"
            kernel_leak, leak_ok = None, True
        else:
            rho = max(float(spectra.laplacian_values[-1]), 0.0)
            gen_min = float(gen[0])
            gen_max = float(gen[-1])
            low, high, mode = gen_min, gen_max, "exact"
            leak_ok = kernel_leak <= 1e-8 * max(rho, scale_hat)
        passed = (
            leak_ok and low >= 1.0 - epsilon - grace and high <= 1.0 + epsilon + grace
        )

    return VerificationRecord(
        n=n,
        epsilon=float(epsilon),
        probes=int(kept),
        seed=int(seed),
        probe_min=probe_min,
        probe_max=probe_max,
        gen_min=gen_min,
        gen_max=gen_max,
        kernel_leak=kernel_leak,
        passed=bool(passed),
        mode=mode,
    )


@dataclass(frozen=True)
class RatioCheck:
    """Sorted eigenvalue pairs of (L, L_hat) against the (1 +- eps) corridor."""

    values: np.ndarray
    values_hat: np.ndarray
    epsilon: float
    passed: bool
    worst_low: float
    worst_high: float


def eigenvalue_ratio_check(
    laplacian, laplacian_hat=None, epsilon=None, *, tol: float = 1e-9
) -> RatioCheck:
    """Check (1-eps) mu_i <= mu_hat_i <= (1+eps) mu_i for all sorted pairs.

    The comparison carries an additive slack of tol * rho(L) so that
    kernel eigenvalues computed as ~1e-15 noise do not flip the verdict.
    """
    spectra = PairSpectra.of(laplacian, laplacian_hat)
    _require_same_shape(spectra.laplacian, spectra.laplacian_hat)
    mu = spectra.laplacian_values[::-1]
    mu_hat = spectra.laplacian_hat_values[::-1]
    rho = float(np.abs(mu).max()) if mu.size else 0.0
    slack = tol * max(rho, 1e-300)
    low = (1.0 - epsilon) * mu - mu_hat
    high = mu_hat - (1.0 + epsilon) * mu
    return RatioCheck(
        values=mu,
        values_hat=mu_hat,
        epsilon=float(epsilon),
        passed=bool(np.all(low <= slack) and np.all(high <= slack)),
        worst_low=float(low.max()),
        worst_high=float(high.max()),
    )
