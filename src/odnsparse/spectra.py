"""Eigendecomposition and numerical verification of perturbation bounds.

Covers: Weyl's eigenvalue perturbation bound, the Davis-Kahan angle
bound, the adjacency-vs-Laplacian norm comparison, the sparsifier norm
bound, and the end-to-end eigenvalue deviation bound
eps * sqrt(n) * rho(L) + (delta_max - delta_min) / 2 with its per-index
angle bounds. The 2-norm of a symmetric matrix is computed as the
largest absolute eigenvalue, with a power-iteration fallback for large
sparse operands. A run computes each dense eigensolve once: every check
reads its eigen-data from one shared `PairSpectra` for the pair (M, M_hat),
whose roles each solve on first use. The pair also owns the dense limit:
above it, a role with no iterative path raises DenseLimitExceededError, and
the norms fall back to power iteration on sparse operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .core import LaplacianDecomposition, OdnMatrix, decompose, validate_odn
from .errors import DenseLimitExceededError, DimensionMismatchError, InvalidEpsilonError

DENSE_LIMIT = 4096
# Laplacian eigenvalues below PINV_CUTOFF * rho(L) count as kernel.
PINV_CUTOFF = 1e-10
_LANCZOS_SEED = 0x0D25


def _dense(x) -> np.ndarray:
    if isinstance(x, OdnMatrix):
        return x.to_dense()
    if sp.issparse(x):
        return x.toarray()
    return np.asarray(x, dtype=np.float64)


def _sparse(x) -> sp.csr_matrix:
    if isinstance(x, OdnMatrix):
        return sp.csr_matrix(x.adjacency() + sp.diags(x.diag))
    return sp.csr_matrix(x)


def spectral_norm(
    matrix, *, dense_limit: int = DENSE_LIMIT, tol: float = 1e-9, max_iter: int = 5000
) -> float:
    """2-norm of a symmetric matrix: max |eigenvalue|.

    Dense eigensolve up to dense_limit; power iteration (tolerance `tol`
    on the relative change, capped at `max_iter` steps) beyond it.
    """
    n = matrix.n if isinstance(matrix, OdnMatrix) else matrix.shape[0]
    if isinstance(matrix, OdnMatrix) and n > dense_limit:
        matrix = _sparse(matrix)
    if n <= dense_limit:
        d = _dense(matrix)
        if not d.size:
            return 0.0
        return float(np.abs(np.linalg.eigvalsh(d)).max())
    rng = np.random.Generator(np.random.PCG64(_LANCZOS_SEED))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iter):
        w = matrix @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if abs(norm_w - estimate) <= tol * max(norm_w, 1e-300):
            return norm_w
        estimate = norm_w
    return estimate


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Sorted eigenpairs of a symmetric matrix.

    `values` is descending; `vectors` holds the aligned orthonormal
    eigenvectors as columns, with each vector's largest-magnitude entry
    made nonnegative (first such entry on ties). `residual` is the
    measured max_i ||M x_i - lambda_i x_i||_2. A failed iterative solve
    returns partial results with converged=False and k_converged set.
    """

    values: np.ndarray
    vectors: np.ndarray
    method: str
    residual: float
    converged: bool = True
    k_converged: int | None = None

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return len(self.values)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    if vectors.size == 0:
        return vectors
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _measured_residual(operand, values, vectors) -> float:
    if len(values) == 0:
        return 0.0
    defect = operand @ vectors - vectors * values
    return float(np.linalg.norm(defect, axis=0).max())


def _lanczos_top_k(operand, n: int, k: int, rho_tol: float):
    """Lanczos with full reorthogonalization for the top-k eigenpairs.

    Deterministic (fixed internal seed). Convergence: estimated residuals
    of the k leading Ritz pairs all within rho_tol of the spectral-radius
    estimate. Exact breakdowns restart with a fresh orthogonal vector so
    multiplicities beyond an invariant subspace are still found.
    """
    rng = np.random.Generator(np.random.PCG64(_LANCZOS_SEED))
    budget = 10 * n
    basis = np.zeros((n, min(n, max(2 * k + 32, 64))))
    alphas: list[float] = []
    betas: list[float] = []
    dim = 0
    beta_prev = 0.0
    q = None
    converged = False

    def fresh_vector():
        for _ in range(8):
            cand = rng.standard_normal(n)
            cand -= basis[:, :dim] @ (basis[:, :dim].T @ cand)
            norm = np.linalg.norm(cand)
            if norm > 1e-8 * math.sqrt(n):
                return cand / norm
        return None

    def ritz():
        a = np.asarray(alphas)
        b = np.asarray(betas[: dim - 1])
        if dim == 1:
            theta = a.copy()
            s = np.ones((1, 1))
        else:
            theta, s = eigh_tridiagonal(a, b)
        order = np.argsort(theta)[::-1]
        return theta[order], s[:, order]

    q = fresh_vector()
    steps = 0
    while q is not None and dim < n and steps < budget:
        if dim == basis.shape[1]:
            basis = np.concatenate(
                [basis, np.zeros((n, min(n, basis.shape[1]) ))], axis=1
            )[:, :n]
        basis[:, dim] = q
        dim += 1
        steps += 1
        u = np.asarray(operand @ q).reshape(-1)
        alpha = float(q @ u)
        alphas.append(alpha)
        r = u - alpha * q
        if beta_prev != 0.0:
            r -= beta_prev * basis[:, dim - 2]
        for _ in range(2):
            r -= basis[:, :dim] @ (basis[:, :dim].T @ r)
        beta = float(np.linalg.norm(r))

        scale = max(np.abs(alphas).max(), max(betas, default=0.0), 1e-300)
        if dim >= k:
            theta, s = ritz()
            rho_est = max(float(np.abs(theta).max()), 1e-300)
            residuals = beta * np.abs(s[dim - 1, :k])
            if np.all(residuals <= rho_tol * rho_est):
                converged = True
                break
        if beta <= 1e-13 * scale:
            betas.append(0.0)
            beta_prev = 0.0
            q = fresh_vector()
        else:
            betas.append(beta)
            beta_prev = beta
            q = r / beta

    theta, s = ritz()
    got = min(k, dim)
    if not converged:
        # dim == n spans everything: the Ritz pairs are exact.
        converged = dim == n
    vectors = basis[:, :dim] @ s[:, :got]
    return theta[:got], vectors, converged, got


def eigen_decompose(
    matrix, k: int | None = None, method: str = "dense", *, rho_tol: float = 1e-8
) -> EigenSystem:
    """Eigenpairs sorted descending, full spectrum or top-k.

    Dense mode runs a standard symmetric eigensolver. Iterative mode runs
    Lanczos with full reorthogonalization (requires k < n) and flags
    non-convergence instead of raising, returning the pairs it achieved.
    """
    operand = _sparse(matrix) if isinstance(matrix, OdnMatrix) else matrix
    n = operand.shape[0]
    if operand.shape[0] != operand.shape[1]:
        raise DimensionMismatchError(operand.shape, operand.shape)

    if method == "dense":
        values, vectors = np.linalg.eigh(_dense(operand))
        values = values[::-1]
        vectors = vectors[:, ::-1]
        if k is not None:
            values = values[:k]
            vectors = vectors[:, :k]
        vectors = _fix_signs(vectors)
        return EigenSystem(
            values=values.copy(),
            vectors=vectors,
            method="dense",
            residual=_measured_residual(operand, values, vectors),
        )
    if method == "iterative":
        if k is None or not (1 <= k < n):
            raise ValueError(f"iterative mode needs 1 <= k < n, got k={k}, n={n}")
        values, vectors, converged, got = _lanczos_top_k(operand, n, k, rho_tol)
        vectors = _fix_signs(vectors)
        return EigenSystem(
            values=values,
            vectors=vectors,
            method="iterative",
            residual=_measured_residual(operand, values, vectors),
            converged=converged,
            k_converged=got if not converged else None,
        )
    raise ValueError(f"unknown method {method!r}")


def _require_same_shape(x, y) -> None:
    shapes = [(z.n, z.n) if isinstance(z, OdnMatrix) else np.shape(z) for z in (x, y)]
    if shapes[0] != shapes[1]:
        raise DimensionMismatchError(*shapes)


class PairSpectra:
    """Dense spectra of one matrix pair (M, M_hat), each solved at most once.

    `base` and `hat` are the graphs of M and M_hat (LaplacianDecomposition
    or SparsifierResult views, or raw Laplacians); a LaplacianDecomposition
    side also gives `matrix` or `matrix_hat`. A run that sparsifies sets
    `hat` and `matrix_hat` once the sparsifier exists. Every check function
    accepts an instance in place of its matrix pair. Each role is a
    cached_property; a values-only role reuses the eigenvalues of a full
    decomposition already solved, else runs the cheaper values-only solve.

    No role densifies an operand larger than `dense_limit` (see the module
    docstring for what runs above it).
    """

    def __init__(self, base=None, hat=None, *, matrix=None, matrix_hat=None,
                 dense_limit: int = DENSE_LIMIT):
        self.base, self.hat = base, hat
        self.matrix = getattr(base, "matrix", matrix)
        self.matrix_hat = getattr(hat, "matrix", matrix_hat)
        self.dense_limit = dense_limit

    @classmethod
    def of(cls, base, hat=None) -> "PairSpectra":
        """`base` itself if it is a pair already, else the pair (base, hat)."""
        return base if isinstance(base, cls) else cls(base, hat)

    @property
    def laplacian(self):
        return getattr(self.base, "laplacian", self.base)

    @property
    def laplacian_hat(self):
        return getattr(self.hat, "laplacian", self.hat)

    def _densify(self, x) -> np.ndarray:
        """`x` as a dense array; the one check of its size against the limit."""
        n = x.n if isinstance(x, OdnMatrix) else np.shape(x)[0]
        if n > self.dense_limit:
            raise DenseLimitExceededError(n, self.dense_limit)
        return _dense(x)

    def _difference_norm(self, x, y) -> float:
        return spectral_norm(_sparse(x) - _sparse(y), dense_limit=self.dense_limit)

    @cached_property
    def laplacian_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self._densify(self.laplacian))

    @cached_property
    def laplacian_values(self) -> np.ndarray:
        if "laplacian_eigh" in self.__dict__:
            return self.laplacian_eigh[0]
        return np.linalg.eigvalsh(self._densify(self.laplacian))

    @cached_property
    def laplacian_hat_values(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._densify(self.laplacian_hat))

    @cached_property
    def pencil(self) -> tuple[np.ndarray, float]:
        """Eigenvalues of the pencil (L_hat, L) on the range of L, and the
        leak ||L_hat K||_2 on L's kernel basis K.

        Only the resistances and the pencil use L's eigenvectors, so they
        are released here; L's eigenvalues are kept.
        """
        mu, vecs = self.laplacian_eigh
        self.__dict__.setdefault("laplacian_values", mu)
        del self.laplacian_eigh
        lhd = self._densify(self.laplacian_hat)
        keep = mu > PINV_CUTOFF * max(float(mu[-1]), 0.0)
        kernel = vecs[:, ~keep]
        leak = float(np.linalg.norm(lhd @ kernel, 2)) if kernel.size else 0.0
        span = vecs[:, keep]
        inv_sqrt = 1.0 / np.sqrt(mu[keep])
        reduced = (span.T @ lhd @ span) * np.outer(inv_sqrt, inv_sqrt)
        return np.linalg.eigvalsh(reduced), leak

    @cached_property
    def laplacian_norm(self) -> float:
        """rho(L): from L's eigenvalues within the dense limit, else by power iteration."""
        try:
            values = self.laplacian_values
        except DenseLimitExceededError:
            return spectral_norm(self.laplacian, dense_limit=self.dense_limit)
        return float(np.abs(values).max()) if values.size else 0.0

    @cached_property
    def systems(self) -> tuple[EigenSystem, EigenSystem]:
        """Eigenpairs of M and of M_hat."""
        sides = (self.matrix, self.matrix_hat)
        return tuple(eigen_decompose(self._densify(x)) for x in sides)

    @cached_property
    def matrix_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues of M and of M_hat."""
        if "systems" in self.__dict__:
            return tuple(system.values[::-1] for system in self.systems)
        sides = (self.matrix, self.matrix_hat)
        return tuple(np.linalg.eigvalsh(self._densify(x)) for x in sides)

    @cached_property
    def matrix_diff_norm(self) -> float:
        return self._difference_norm(self.matrix, self.matrix_hat)

    @cached_property
    def laplacian_diff_norm(self) -> float:
        return self._difference_norm(self.laplacian, self.laplacian_hat)

    @cached_property
    def adjacency_diff_norm(self) -> float:
        return self._difference_norm(self.base.adjacency, self.hat.adjacency)


@dataclass(frozen=True)
class WeylCheck:
    max_deviation: float
    norm: float
    passed: bool


def weyl_check(a, b=None) -> WeylCheck:
    """max_i |alpha_i - beta_i| against ||A - B||_2, sorted eigenvalues."""
    spectra = a if isinstance(a, PairSpectra) else PairSpectra(matrix=a, matrix_hat=b)
    _require_same_shape(spectra.matrix, spectra.matrix_hat)
    alphas, betas = spectra.matrix_values
    deviation = float(np.abs(alphas - betas).max())
    norm = spectra.matrix_diff_norm
    return WeylCheck(deviation, norm, deviation <= norm + 1e-9 * (1.0 + norm))


@dataclass(frozen=True)
class NormComparison:
    lhs: float
    rhs: float
    passed: bool


def adjacency_norm_check(g, h=None) -> NormComparison:
    """||A_G - A_H|| against sqrt(n) * ||L_G - L_H|| for two graphs."""
    spectra = PairSpectra.of(g, h)
    _require_same_shape(spectra.laplacian, spectra.laplacian_hat)
    lhs = spectra.adjacency_diff_norm
    rhs = math.sqrt(np.shape(spectra.laplacian)[0]) * spectra.laplacian_diff_norm
    return NormComparison(lhs, rhs, lhs <= rhs + 1e-9 * (1.0 + rhs))


@dataclass(frozen=True)
class SparsifierNormCheck:
    norm_diff: float
    bound: float
    status: str  # "pass" | "fail" | "hypothesis-unmet"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def sparsifier_norm_check(
    laplacian, laplacian_hat=None, epsilon=None, *, sparsifier_ok: bool = True
) -> SparsifierNormCheck:
    """||L - L_hat|| against eps * rho(L).

    The bound is implied by the sparsifier inequality; when the caller
    knows that inequality did not hold (sparsifier_ok=False), a violation
    is labelled "hypothesis-unmet" rather than "fail".
    """
    spectra = PairSpectra.of(laplacian, laplacian_hat)
    _require_same_shape(spectra.laplacian, spectra.laplacian_hat)
    norm_diff = spectra.laplacian_diff_norm
    bound = epsilon * spectra.laplacian_norm
    if norm_diff <= bound * (1.0 + 1e-9):
        status = "pass"
    elif not sparsifier_ok:
        status = "hypothesis-unmet"
    else:
        status = "fail"
    return SparsifierNormCheck(norm_diff, bound, status)


@dataclass(frozen=True)
class AngleBound:
    """Angle between the i-th eigenvectors and its gap-based bound.

    `bound` is None when the relevant eigenvalue gap falls below the gap
    tolerance ("undefined"); bounds at or above 1 are vacuous. Both cases
    count as passed.
    """

    index: int
    sin_theta: float
    bound: float | None
    passed: bool


def davis_kahan(
    a_sys: EigenSystem,
    b_sys: EigenSystem,
    r_norm: float,
    gap_tol: float | None = None,
) -> list[AngleBound]:
    """Per-index sin(theta_i) against r_norm over the mixed eigenvalue gap.

    The denominator for index i is min(|beta_(i-1) - alpha_i|,
    |beta_(i+1) - alpha_i|) with beta_0 = +inf and beta_(n+1) = -inf.
    """
    if a_sys.n != b_sys.n or a_sys.k != b_sys.k:
        raise DimensionMismatchError((a_sys.n, a_sys.k), (b_sys.n, b_sys.k))
    alphas = a_sys.values
    betas = b_sys.values
    k = len(alphas)
    if gap_tol is None:
        rho_a = float(np.abs(alphas).max()) if k else 0.0
        gap_tol = 1e-8 * rho_a

    out = []
    for i in range(k):
        a_vec = a_sys.vectors[:, i]
        b_vec = b_sys.vectors[:, i]
        # ||b - (a.b) a|| equals sqrt(1 - (a.b)^2) for unit vectors but has
        # no cancellation noise floor near zero angle.
        inner = float(a_vec @ b_vec)
        sin_theta = min(1.0, float(np.linalg.norm(b_vec - inner * a_vec)))
        above = betas[i - 1] if i > 0 else math.inf
        below = betas[i + 1] if i + 1 < k else -math.inf
        gap = min(abs(above - alphas[i]), abs(alphas[i] - below))
        if gap <= gap_tol:
            out.append(AngleBound(i, sin_theta, None, True))
            continue
        bound = r_norm / gap
        passed = sin_theta <= bound + 1e-9 or bound >= 1.0
        out.append(AngleBound(i, sin_theta, float(bound), bool(passed)))
    return out


def eigenvalue_deviation_bound(
    matrix,
    epsilon: float,
    *,
    decomp: LaplacianDecomposition | None = None,
) -> float:
    """eps * sqrt(n) * rho(L) + (delta_max - delta_min) / 2.

    The certified ceiling on every per-index eigenvalue deviation of the
    sparsification pipeline, valid whenever the sparsifier inequality held.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidEpsilonError(epsilon)
    spectra = matrix if isinstance(matrix, PairSpectra) else PairSpectra(
        decomp or decompose(validate_odn(matrix)))
    decomp = spectra.base
    rho = spectra.laplacian_norm
    spread = (decomp.delta_max - decomp.delta_min) / 2.0
    return epsilon * math.sqrt(decomp.n) * rho + spread


@dataclass(frozen=True)
class InertiaCounts:
    positive: int
    negative: int
    zero: int

    @classmethod
    def from_values(cls, values: np.ndarray, tol: float) -> "InertiaCounts":
        zero = np.abs(values) <= tol
        return cls(
            positive=int(np.sum(values > tol)),
            negative=int(np.sum(values < -tol)),
            zero=int(np.sum(zero)),
        )


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Side-by-side spectra of a matrix and its sparsified counterpart."""

    epsilon: float
    n: int
    values: np.ndarray
    values_hat: np.ndarray
    deviations: np.ndarray
    bound: float
    r_norm: float
    angles: list[AngleBound]
    dk_bounds_swapped: list[float | None]
    inertia: InertiaCounts
    inertia_hat: InertiaCounts
    inertia_match: bool
    inertia_guaranteed: bool
    nnz_before: int
    nnz_after: int
    eigenvalue_bound_passed: bool
    angles_passed: bool

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max()) if len(self.deviations) else 0.0

    @property
    def passed(self) -> bool:
        return self.eigenvalue_bound_passed and self.angles_passed


def spectral_report(
    matrix,
    matrix_hat=None,
    epsilon=None,
    *,
    gap_tol: float | None = None,
) -> SpectralReport:
    """Full eigenvalue/eigenvector comparison with certified bounds.

    Pairs eigenvalues by descending index, checks every deviation against
    eps * sqrt(n) * rho(L) + (delta_max - delta_min)/2, evaluates the
    per-index angle bounds with r_norm = ||M - M_hat||, and reports the
    inertia of both spectra. `dk_bounds_swapped` carries the angle bounds
    with the roles of the two spectra exchanged, as a diagnostic.
    """
    spectra = matrix if isinstance(matrix, PairSpectra) else PairSpectra(
        decompose(validate_odn(matrix)), matrix_hat=validate_odn(matrix_hat))
    m, m_hat = spectra.matrix, spectra.matrix_hat
    _require_same_shape(m, m_hat)

    sys_a, sys_b = spectra.systems
    deviations = np.abs(sys_a.values - sys_b.values)
    bound = eigenvalue_deviation_bound(spectra, epsilon)
    r_norm = spectra.matrix_diff_norm

    angles = davis_kahan(sys_a, sys_b, r_norm, gap_tol)
    swapped = davis_kahan(sys_b, sys_a, r_norm, gap_tol)

    rho_a = float(np.abs(sys_a.values).max()) if m.n else 0.0
    rho_b = float(np.abs(sys_b.values).max()) if m.n else 0.0
    inertia = InertiaCounts.from_values(sys_a.values, 1e-9 * max(1.0, rho_a))
    inertia_hat = InertiaCounts.from_values(sys_b.values, 1e-9 * max(1.0, rho_b))
    min_abs = float(np.abs(sys_a.values).min())

    max_dev = float(deviations.max())
    return SpectralReport(
        epsilon=float(epsilon),
        n=m.n,
        values=sys_a.values,
        values_hat=sys_b.values,
        deviations=deviations,
        bound=bound,
        r_norm=r_norm,
        angles=angles,
        dk_bounds_swapped=[a.bound for a in swapped],
        inertia=inertia,
        inertia_hat=inertia_hat,
        inertia_match=inertia == inertia_hat,
        inertia_guaranteed=min_abs > bound,
        nnz_before=m.nnz,
        nnz_after=m_hat.nnz,
        eigenvalue_bound_passed=bool(max_dev <= bound * (1.0 + 1e-9)),
        angles_passed=all(a.passed for a in angles),
    )
