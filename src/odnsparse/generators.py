"""Seeded synthetic ODN matrix generators.

Models: complete, path, grid, erdos-renyi, equicorrelation. Edge weights
default to uniform(0, 1] draws; the diagonal defaults to 0 (1 for the
equicorrelation model, whose spectrum is closed-form). All draws come
from PCG64(seed) in a fixed order (edge selection, then weights, then
diagonal), so a spec is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .core import OdnMatrix
from .errors import GeneratorSpecError

MODELS = ("complete", "path", "grid", "erdos-renyi", "equicorrelation")

_UNIFORM_RE = re.compile(r"^uniform\(\s*([^,]+)\s*,\s*([^)]+)\s*\)$")
# Pairs per block of the Erdos-Renyi draw: 8 MB of doubles.
_PAIR_BLOCK = 1 << 20


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside parentheses, so uniform(a,b) stays whole."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def _edges_complete(n):
    i, j = np.triu_indices(n, k=1)
    return i, j


def _edges_erdos_renyi(n, density, rng):
    """The pairs of `_edges_complete(n)` whose uniform draw is below `density`.

    The draws go over the pairs in order, one block of rows (at most
    _PAIR_BLOCK pairs) at a time, so memory is O(block) and not O(n^2).
    PCG64 doubles do not depend on how the stream is split into calls, so
    the result is that of one draw over all n(n-1)/2 pairs."""
    # starts[r]: row-major index of the pair (r, r + 1); starts[n - 1]: all pairs.
    starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    bounds = [*range(0, n - 1, max(1, _PAIR_BLOCK // n)), n - 1]
    picked = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        starts[a] + np.flatnonzero(rng.random(starts[b] - starts[a]) < density)
        for a, b in zip(bounds[:-1], bounds[1:])
    ])
    i = np.searchsorted(starts, picked, side="right") - 1
    return i, picked - starts[i] + i + 1


def _edges_path(n):
    i = np.arange(n - 1)
    return i, i + 1


def _edges_grid(rows, cols):
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    both = np.concatenate([right, down], axis=1)
    return both[0], both[1]


def generate_odn(
    model: str,
    n: int | None = None,
    *,
    seed: int = 0,
    density: float | None = None,
    weight: float | None = None,
    rows: int | None = None,
    cols: int | None = None,
    correlation: float = 0.5,
    diag=None,
) -> OdnMatrix:
    """Build a synthetic ODN matrix, deterministic in `seed`.

    `diag` is a constant (number), ("constant", c), or ("uniform", a, b).
    `weight` fixes all edge weights; omitted, they are uniform(0, 1].
    The grid model takes rows/cols (n, if given, must equal rows*cols).
    """
    if model not in MODELS:
        raise GeneratorSpecError(f"unknown model {model!r}; choose from {MODELS}")
    rng = np.random.Generator(np.random.PCG64(seed))

    if model == "grid":
        if rows is None or cols is None:
            raise GeneratorSpecError("grid model needs rows= and cols=")
        if rows < 1 or cols < 1:
            raise GeneratorSpecError("grid dimensions must be >= 1")
        if n is not None and n != rows * cols:
            raise GeneratorSpecError(f"n={n} but rows*cols={rows * cols}")
        n = rows * cols
        i, j = _edges_grid(rows, cols)
    else:
        if n is None or n < 1:
            raise GeneratorSpecError(f"model {model!r} needs n >= 1, got {n!r}")
        if model in ("complete", "equicorrelation"):
            i, j = _edges_complete(n)
        elif model == "path":
            i, j = _edges_path(n)
        else:  # erdos-renyi
            if density is None or not (0.0 <= density <= 1.0):
                raise GeneratorSpecError(
                    f"erdos-renyi needs density in [0, 1], got {density!r}"
                )
            i, j = _edges_erdos_renyi(n, density, rng)

    if model == "equicorrelation":
        if not (0.0 <= correlation <= 1.0):
            raise GeneratorSpecError(
                f"equicorrelation needs correlation in [0, 1], got {correlation!r}"
            )
        values = np.full(len(i), float(correlation))
    elif weight is not None:
        if not weight > 0:
            raise GeneratorSpecError(f"weight must be > 0, got {weight!r}")
        values = np.full(len(i), float(weight))
    else:
        values = 1.0 - rng.random(len(i))  # uniform on (0, 1]

    keep = values > 0
    i, j, values = i[keep], j[keep], values[keep]

    if diag is None:
        diag = 1.0 if model == "equicorrelation" else 0.0
    if isinstance(diag, (int, float)):
        diagonal = np.full(n, float(diag))
    elif isinstance(diag, tuple) and diag and diag[0] == "constant":
        diagonal = np.full(n, float(diag[1]))
    elif isinstance(diag, tuple) and diag and diag[0] == "uniform":
        low, high = float(diag[1]), float(diag[2])
        if not (math.isfinite(low) and math.isfinite(high) and low <= high):
            raise GeneratorSpecError(
                f"bad diag spec {diag!r}: uniform bounds must be finite with low <= high"
            )
        diagonal = rng.uniform(low, high, size=n)
    else:
        raise GeneratorSpecError(f"bad diag spec {diag!r}")

    return OdnMatrix(n, i, j, values, diagonal)


def parse_generator_spec(text: str) -> dict:
    """Parse 'model:key=value,...' into generate_odn keyword arguments.

    Keys: n, density, w (weight), rows, cols, r (correlation), diag, seed.
    diag accepts a number or uniform(a,b).
    """
    model, _, rest = text.partition(":")
    model = model.strip()
    if model not in MODELS:
        raise GeneratorSpecError(f"unknown model {model!r}; choose from {MODELS}")
    kwargs: dict = {"model": model}
    if not rest.strip():
        return kwargs

    for item in _split_top_level(rest):
        key, sep, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise GeneratorSpecError(f"malformed parameter {item!r}")
        try:
            if key == "n":
                kwargs["n"] = int(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "rows":
                kwargs["rows"] = int(value)
            elif key == "cols":
                kwargs["cols"] = int(value)
            elif key == "density":
                kwargs["density"] = float(value)
            elif key == "w":
                kwargs["weight"] = float(value)
            elif key == "r":
                kwargs["correlation"] = float(value)
            elif key == "diag":
                match = _UNIFORM_RE.match(value)
                if match:
                    kwargs["diag"] = (
                        "uniform",
                        float(match.group(1)),
                        float(match.group(2)),
                    )
                else:
                    kwargs["diag"] = float(value)
            else:
                raise GeneratorSpecError(f"unknown parameter {key!r}")
        except ValueError:
            raise GeneratorSpecError(f"bad value for {key!r}: {value!r}")
    return kwargs
