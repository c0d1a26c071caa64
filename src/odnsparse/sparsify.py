"""Spectral sparsification of graph Laplacians by effective-resistance sampling.

Edges are sampled i.i.d. with replacement, with probability proportional
to weight times effective resistance (the leverage score), and each draw
contributes w_e / (q * p_e) to the sampled adjacency. The estimator is
unbiased, and with q = ceil(C * n * ln n / eps^2) draws the sampled
Laplacian satisfies (1 - eps) L <= L_hat <= (1 + eps) L in the
positive-semidefinite order with failure probability at most 1/n for
C >= 9. Only the count of draws per edge matters, so the q draws are one
multinomial over the edges, O(m) whatever q, on the sampler's own PCG64
stream: results are bit-reproducible for a fixed (input, epsilon, seed, C)
under one numpy version.

The resistances and the verdict read L through one Cholesky factor of L
with a vertex per connected component grounded (`PairSpectra.grounded_factor`),
whose kernel, the components' indicator vectors, is exact. The verdict is
the exact pencil (`verify_sparsifier`): the extreme generalized eigenvalues
of (L_hat, L) on that grounded complement of ker L, and the leak of L_hat on
ker L. ARPACK finds the two extremes, each widened outward by its Ritz
residual and a rounding allowance, so the verdict compares an interval that
holds the exact extremes with 1 +- eps; on a forest the interval also holds
every edge's weight ratio, the pencil's exact eigenvalues. The
sorted-eigenvalue corridor (1 - eps) mu_i <= mu_hat_i <= (1 + eps) mu_i
follows from that verdict by Courant-Fischer, so it is not solved for
separately.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GraphViews, LaplacianDecomposition, OdnMatrix, _degrees
from .errors import InvalidSeedError, OdnError
from .factor import _size
from .spectra import (
    PairSpectra,
    _max_abs,
    _require_constant,
    _require_epsilon,
    _require_same_shape,
)

# epsilon threshold below which the strictest published edge-count
# guarantees are stated; sampling itself works for any epsilon in (0, 1).
EPSILON_SMALL_REGIME = 1.0 / 120.0
# Mixed into the sampler's seed, `SeedSequence([seed, SAMPLER_TAG])`, so that
# no generator or input writer seeded `PCG64(seed)` shares its stream.
SAMPLER_TAG = 0x5A3B1E
_INT64_MAX = np.iinfo(np.int64).max
# Leverages are rounded to 24 significant bits (3e-8 relative) before they
# are normalized. The multinomial splits a count between two categories of
# conditional probability 1/2 by which side of 1/2 the last bit falls: a
# path's leverages, all 1 up to 3e-13 of rounding that differs between the
# dense and band factors, drew different sparsifiers. Rounded, they are equal.
_LEVERAGE_SCALE = float(1 << 24)


@dataclass(frozen=True, eq=False)
class SparsifierResult(GraphViews):
    """Sampled Laplacian and its accounting.

    `edges` holds the sampled edges as a zero-diagonal OdnMatrix; the
    adjacency, degrees and Laplacian are views of it (`GraphViews`).
    """

    edges: OdnMatrix
    epsilon: float
    seed: int
    samples_drawn: int
    oversample_constant: float
    epsilon_above_small_regime: bool

    @property
    def distinct_edges(self) -> int:
        return self.edges.stored_pairs

    @cached_property
    def degrees(self) -> np.ndarray:
        return _degrees(self.edges)

    def matrix(self, diagonal: float) -> OdnMatrix:
        """M_hat: the sampled edges with every diagonal entry `diagonal`.

        Equal to `reconstruct(self.adjacency, diagonal)`, without passing the
        sampler's own output through `validate_odn` again.
        """
        e = self.edges
        return OdnMatrix(e.n, e.rows, e.cols, e.vals, np.full(e.n, float(diagonal)))

    @property
    def nnz_after(self) -> int:
        """Nonzero budget of the reconstructed matrix: 2 * edges + full diagonal."""
        return 2 * self.distinct_edges + self.n


def effective_resistances(
    decomp: LaplacianDecomposition | PairSpectra,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge effective resistances and normalized sampling probabilities.

    Returns the arrays (resistance, probability), aligned with the stored
    pairs `decomp.matrix.rows/cols/vals`; an edge's leverage is
    vals * resistance. R_uv = G_uu + G_vv - 2 G_uv, with G = L_g^-1 read
    through `PairSpectra.grounded_factor` (`GroundedFactor.resistances`), a
    grounded vertex reading as 0: exact per component. The probabilities are
    the leverages rounded to 24 significant bits (`_LEVERAGE_SCALE`), over
    their sum. A dense factor holds O(n^2) memory whatever the edge count, a
    band factor O(n kd). Above the pair's dense limit it raises
    DenseLimitExceededError.
    """
    spectra = PairSpectra.of(decomp)
    src = spectra.matrix
    if src.stored_pairs == 0:
        return np.zeros(0), np.zeros(0)
    resistance = spectra.grounded_factor.resistances(src.rows, src.cols, src.n)
    mantissa, exponent = np.frexp(src.vals * resistance)
    leverage = np.ldexp(np.round(mantissa * _LEVERAGE_SCALE) / _LEVERAGE_SCALE, exponent)
    return resistance, leverage / leverage.sum()


def _require_seed(seed) -> None:
    """Raise InvalidSeedError unless the seed is a non-negative integer (not a
    bool): `SeedSequence` rejects a negative one only after the resistances,
    and on an input with no edges nothing would read it at all."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidSeedError(seed)


def sample_count(n: int, epsilon: float, constant: float) -> int:
    """Number of i.i.d. edge draws: ceil(C * n * ln(max(n, 2)) / eps^2).

    Raises InvalidConstantError unless C is finite and > 0, and OdnError
    when the budget itself is not finite (eps^2 underflows, or C is huge).
    """
    _require_constant(constant)
    square = epsilon**2
    budget = constant * n * math.log(max(n, 2)) / square if square else math.inf
    if not math.isfinite(budget):
        raise OdnError(f"sample budget C * n * ln(n) / eps^2 is not finite for "
                       f"n={n}, epsilon={epsilon!r}, constant={constant!r}")
    return int(math.ceil(budget))


def sampler_budget(matrix: OdnMatrix, epsilon: float, seed: int, constant: float) -> int:
    """The sampler's draw count q for `matrix`'s edges (`sample_count`), once
    its arguments are checked, in this order: InvalidEpsilonError unless
    0 < epsilon < 1, InvalidSeedError unless the seed is a non-negative
    integer, the errors of `sample_count`, and OdnError for a q past int64,
    which `multinomial` cannot count, where there are edges to draw. Needs no
    solve: a command checks its arguments with it before any starts."""
    _require_epsilon(epsilon)
    _require_seed(seed)
    q = sample_count(matrix.n, epsilon, constant)
    if matrix.stored_pairs and q > _INT64_MAX:
        raise OdnError(f"the sample budget q={q} is past the int64 limit "
                       f"{_INT64_MAX} of the draws; use a larger epsilon or a "
                       "smaller constant C")
    return q


def sparsify_laplacian(
    decomp: LaplacianDecomposition | PairSpectra,
    epsilon: float,
    seed: int = 0,
    constant: float = 9.0,
) -> SparsifierResult:
    """Draw an epsilon-spectral sparsifier of the decomposition's Laplacian.

    Identical (decomp, epsilon, seed, constant) inputs give bit-identical
    results for one numpy version (NEP 19 does not fix `multinomial`'s stream
    across versions). The q draws are one `Generator.multinomial(q, p)` over
    the leverage probabilities, from the sampler's own stream
    `PCG64(SeedSequence([seed, SAMPLER_TAG]))`: O(m) work and memory for m
    edges, whatever q. Repeated draws of one edge accumulate weight. A
    Laplacian with no edges short-circuits to the empty sparsifier, after
    an epsilon outside (0, 1) or a seed that is not a non-negative integer
    (InvalidSeedError) has raised. A q past int64, which `multinomial`
    cannot count, raises OdnError before the resistances (`sampler_budget`
    checks all of these). Given a PairSpectra, its grounded factor of L is
    shared with the verdict.
    """
    src = decomp.matrix
    q = sampler_budget(src, epsilon, seed, constant)
    keep, weights, drawn = np.zeros(0, dtype=bool), np.zeros(0), 0  # no edges
    if src.stored_pairs:
        probability = effective_resistances(decomp)[1]  # the resistances are freed
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, SAMPLER_TAG])))
        counts = rng.multinomial(q, probability).astype(np.float64)
        weights = src.vals * (counts / (q * probability))
        keep, drawn = counts > 0, q
    return SparsifierResult(
        edges=OdnMatrix(src.n, src.rows[keep], src.cols[keep], weights[keep], np.zeros(src.n)),
        epsilon=float(epsilon), seed=int(seed), samples_drawn=drawn,
        oversample_constant=float(constant),
        epsilon_above_small_regime=bool(epsilon > EPSILON_SMALL_REGIME))


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of checking (1-eps) x'Lx <= x'L_hat x <= (1+eps) x'Lx.

    `eps_hat` = max(1 - gen_min, gen_max - 1) is the epsilon achieved, an
    upper bound on it since the extremes are widened outward; None unless
    the mode is "exact".
    """

    n: int
    epsilon: float
    gen_min: float | None
    gen_max: float | None
    kernel_leak: float | None
    passed: bool
    mode: str
    eps_hat: float | None = None


def verify_sparsifier(laplacian, laplacian_hat=None, epsilon=None) -> VerificationRecord:
    """Check the spectral-sparsifier inequality exactly.

    `passed` needs both extremes of the pencil (L_hat, L) on a complement of
    ker L (`PairSpectra.pencil`) within 1 +- eps, and a leak of L_hat on ker
    L, the indicator vectors of the components of L's graph, of at most
    1e-8 max(rho(L), max |L_hat_ij|). `gen_min` and `gen_max` are ARPACK's
    extremes, each widened outward by its Ritz residual and a rounding
    allowance max(n, 32) * eps * |theta| (the dense fallback's by the
    allowance alone), so they bracket the exact extremes. A zero L
    passes only against a zero L_hat ("trivial-zero"). L's grounded factor,
    dense or in band storage, is a direct factor: above the pair's dense
    limit it raises DenseLimitExceededError, and nothing is certified.
    """
    _require_epsilon(epsilon)
    spectra = PairSpectra.of(laplacian, laplacian_hat)
    _require_same_shape(spectra.base, spectra.hat)
    gen_min = gen_max = eps_hat = None

    if _max_abs(spectra.laplacian) == 0.0:
        kernel_leak = spectra.laplacian_hat_scale
        passed, mode = kernel_leak <= 1e-12, "trivial-zero"
    else:
        (gen_min, gen_max), kernel_leak = spectra.pencil
        eps_hat = max(1.0 - gen_min, gen_max - 1.0)
        passed = (kernel_leak <= 1e-8 * max(spectra.laplacian_norm, spectra.laplacian_hat_scale)
                  and gen_min >= 1.0 - epsilon - 1e-9 and gen_max <= 1.0 + epsilon + 1e-9)
        mode = "exact"

    return VerificationRecord(n=_size(spectra.base), epsilon=float(epsilon), gen_min=gen_min,
                              gen_max=gen_max, kernel_leak=kernel_leak, passed=bool(passed),
                              mode=mode, eps_hat=eps_hat)
