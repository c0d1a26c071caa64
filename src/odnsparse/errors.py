"""Exception types shared across the package."""


class OdnError(Exception):
    """Base class for all odnsparse errors."""


class NonFiniteError(OdnError):
    """A matrix entry is NaN or infinite."""

    def __init__(self, i: int, j: int, value: float):
        super().__init__(f"non-finite entry {value!r} at ({i}, {j})")
        self.i = i
        self.j = j
        self.value = value


class NegativeOffDiagonalError(OdnError):
    """An off-diagonal entry is negative."""

    def __init__(self, i: int, j: int, value: float):
        super().__init__(f"negative off-diagonal entry {value!r} at ({i}, {j})")
        self.i = i
        self.j = j
        self.value = value


class AsymmetricError(OdnError):
    """A pair of mirrored entries differs beyond the symmetry tolerance."""

    def __init__(self, i: int, j: int, delta: float):
        super().__init__(f"entries ({i}, {j}) and ({j}, {i}) differ by {delta!r}")
        self.i = i
        self.j = j
        self.delta = delta


class DimensionMismatchError(OdnError):
    """Two operands have incompatible shapes."""

    def __init__(self, shape_a, shape_b):
        super().__init__(f"dimension mismatch: {shape_a} vs {shape_b}")
        self.shape_a = shape_a
        self.shape_b = shape_b


class DenseLimitExceededError(OdnError):
    """A dense eigensolve was requested above the configured size limit."""

    def __init__(self, n: int, limit: int):
        super().__init__(
            f"n={n} exceeds the dense limit {limit}; raise the limit with "
            "--dense-limit or PairSpectra(dense_limit=...)"
        )
        self.n = n
        self.limit = limit


class NormNotConvergedError(OdnError):
    """ARPACK did not converge on the 2-norm `role` above the dense limit."""

    def __init__(self, role: str, n: int, limit: int):
        super().__init__(f"ARPACK did not converge on {role} (n={n}); above the dense "
                         f"limit {limit} no dense solve takes over")
        self.role, self.n, self.limit = role, n, limit


class FactorizationError(OdnError):
    """`dpotrf`, `dtrtri` or `dpbtrf` failed on the grounded Laplacian at the
    1-based `pivot` (LAPACK's info) of the factor's vertex order, which is
    graph vertex `vertex`."""

    def __init__(self, routine: str, pivot: int, vertex: int | None):
        super().__init__(f"{routine} failed at pivot {pivot} (vertex {vertex}): the Laplacian "
                         "grounded at one vertex per component is not positive definite "
                         "in floating point")
        self.routine, self.pivot, self.vertex = routine, pivot, vertex


class InvalidEpsilonError(OdnError):
    """epsilon outside the open interval (0, 1)."""

    def __init__(self, epsilon: float):
        super().__init__(f"epsilon must satisfy 0 < epsilon < 1, got {epsilon!r}")
        self.epsilon = epsilon


class InvalidConstantError(OdnError):
    """Oversampling constant must be finite and positive."""

    def __init__(self, constant: float):
        super().__init__(f"oversampling constant must be finite and > 0, got {constant!r}")
        self.constant = constant


class ParseError(OdnError):
    """A matrix file line could not be parsed."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateEntryError(OdnError):
    """The same coordinate appears twice in a matrix file."""

    def __init__(self, i: int, j: int):
        super().__init__(f"duplicate entry for coordinate ({i}, {j})")
        self.i = i
        self.j = j


class GeneratorSpecError(OdnError):
    """A synthetic-matrix generator spec is malformed."""


class ZeroVarianceColumnError(OdnError):
    """A data column has zero variance and cannot be standardized."""

    def __init__(self, column: int):
        super().__init__(f"column {column} has zero variance")
        self.column = column


class NotOdnError(OdnError):
    """A correlation matrix has negative off-diagonal entries.

    `pairs` lists the offending (i, j, value) triples.
    """

    def __init__(self, pairs):
        preview = ", ".join(f"({i},{j})={v:.3g}" for i, j, v in pairs[:5])
        more = "" if len(pairs) <= 5 else f" and {len(pairs) - 5} more"
        super().__init__(f"negative correlations: {preview}{more}")
        self.pairs = list(pairs)


class NotCorrelationError(OdnError):
    """Matrix does not have a constant unit diagonal."""

    def __init__(self, i: int, value: float):
        super().__init__(f"diagonal entry {value!r} at index {i} is not 1")
        self.i = i
        self.value = value
