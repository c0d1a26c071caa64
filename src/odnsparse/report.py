"""Canonical JSON/CSV report serialization.

Reports are serialized with sorted keys and no NaN/Inf, so two runs with
identical configuration produce byte-identical JSON apart from the
`timings` subtree (wall-clock stage timings, the start timestamp and the
peak resident set size `peak_rss_mb` live there and nowhere else).

The JSON text is exactly `json.dumps(report, indent=2, sort_keys=True,
allow_nan=False)` and a newline (`dumps_report`). json writes an indented
document in Python, one chunk per token; a list of flat records (the
spectral report's `pairs`, the PCA `components`) is written instead by one
call of json's C encoder, whose item separator carries the records' line
break and indent, and only the record boundaries are then re-indented. A
30 x 30 grid's report (272 KB) took 10.6 ms, not 20.5 ms, and a 400-vertex
verify report (121 KB) 3.7 ms, not 7.7 ms (2-vCPU VM, one session).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from functools import lru_cache
from importlib import resources
from itertools import chain
from pathlib import Path

from .applications import PcaComparison
from .sparsify import SparsifierResult, VerificationRecord
from .spectra import SpectralReport

SCHEMA_VERSION = "7.0"


def verification_to_dict(v: VerificationRecord) -> dict:
    return asdict(v)


def sparsifier_to_dict(r: SparsifierResult) -> dict:
    return {
        "epsilon": r.epsilon,
        "seed": r.seed,
        "samples_drawn": r.samples_drawn,
        "distinct_edges": r.distinct_edges,
        "oversample_constant": r.oversample_constant,
        "epsilon_above_small_regime": r.epsilon_above_small_regime,
        "nnz_after": r.nnz_after,
    }


def spectral_to_dict(r: SpectralReport) -> dict:
    return {
        "epsilon": r.epsilon,
        "n": r.n,
        "bound": r.bound,
        "r_norm": r.r_norm,
        "max_deviation": r.max_deviation,
        "nnz_before": r.nnz_before,
        "nnz_after": r.nnz_after,
        "eigenvalue_bound_passed": r.eigenvalue_bound_passed,
        "angles_passed": r.angles_passed,
        "vacuous_angles": r.vacuous_angles,
        "inertia": vars(r.inertia).copy(),
        "inertia_hat": vars(r.inertia_hat).copy(),
        "inertia_match": r.inertia_match,
        "inertia_guaranteed": r.inertia_guaranteed,
        "pairs": [
            {
                "index": i + 1,
                "value": float(r.values[i]),
                "value_hat": float(r.values_hat[i]),
                "deviation": float(r.deviations[i]),
                "sin_theta": r.angles[i].sin_theta,
                "dk_bound": r.angles[i].bound,
                "dk_bound_swapped": r.dk_bounds_swapped[i],
                "dk_passed": r.angles[i].passed,
            }
            for i in range(r.n)
        ],
    }


def pca_to_dict(p: PcaComparison) -> dict:
    return {
        "n": p.n,
        "p": p.p,
        "epsilon": p.epsilon,
        "seed": p.seed,
        "per_component_bound": p.per_component_bound,
        "rho_laplacian": p.rho_laplacian,
        "components": [
            {
                "index": i + 1,
                "variance": float(p.variances[i]),
                "variance_hat": float(p.variances_hat[i]),
                "gap": float(p.gaps[i]),
            }
            for i in range(len(p.variances))
        ],
        "cumulative": p.cumulative,
        "cumulative_hat": p.cumulative_hat,
        "cumulative_bound": p.cumulative_bound,
        "cumulative_bound_literal": p.cumulative_bound_literal,
        "psd_ok": p.psd_ok,
        "psd_hat_ok": p.psd_hat_ok,
        "status": p.status,
        "nnz_before": p.nnz_before,
        "nnz_after": p.nnz_after,
        "verification": verification_to_dict(p.verification),
    }


def dumps_report(report: dict) -> str:
    """`json.dumps(report, indent=2, sort_keys=True, allow_nan=False)` and a
    newline, byte for byte, with its lists of flat records written by json's
    C encoder (`_records`). NaN and infinity raise ValueError, as there."""
    return _encode(report, 0) + "\n"


def _pad(depth: int) -> str:
    return "\n" + "  " * depth


_SCALARS = (str, int, float, type(None))  # bool is an int
# What `json.dumps(..., indent=2, sort_keys=True, allow_nan=False)` encodes with.
_INDENTED = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


@lru_cache(maxsize=None)
def _record_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder of a list at indent level `depth` (no indent of its
    own): each record's fields come one to a line at level depth + 2."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=("," + _pad(depth + 2), ": "))


def _records(items, depth: int) -> str:
    """A non-empty list of non-empty dicts of scalars with str keys at level
    `depth`, as json's indented form: one C-encoder call gives each record's
    lines, and each "},<pad>{" between two records becomes "<pad>},<pad>{"
    at the records' own level. No encoded string holds a raw newline, so the
    pattern matches only a record boundary."""
    text = _record_encoder(depth).encode(items)[2:-2]  # "[{" and "}]" cut off
    inner, outer = _pad(depth + 2), _pad(depth + 1)
    text = text.replace("}," + inner + "{", outer + "}," + outer + "{" + inner)
    return "[" + outer + "{" + inner + text + outer + "}" + _pad(depth) + "]"


def _is_records(node) -> bool:
    """Whether `node` is a non-empty list of non-empty dicts whose keys are
    str and whose values are scalars, found by their types' sets."""
    if not isinstance(node, (list, tuple)) or not node or not all(
            issubclass(kind, dict) for kind in set(map(type, node))) or not all(node):
        return False
    keys = set(map(type, chain.from_iterable(node)))
    values = set(map(type, chain.from_iterable(map(dict.values, node))))
    return (all(issubclass(kind, str) for kind in keys)
            and all(issubclass(kind, _SCALARS) for kind in values))


def _encode(node, depth: int) -> str:
    """`node` at indent level `depth` as json's indented form: lists of
    records by `_records`, dicts with str keys and other lists walked here,
    anything else by json's own encoder, re-indented to `depth` (a dict with
    other keys, which json converts, and every scalar)."""
    if _is_records(node):
        return _records(node, depth)
    if isinstance(node, dict) and all(isinstance(key, str) for key in node):
        entries = [f"{json.dumps(key)}: {_encode(value, depth + 1)}"
                   for key, value in sorted(node.items())]
        brackets = "{}"
    elif isinstance(node, (list, tuple)):
        entries = [_encode(item, depth + 1) for item in node]
        brackets = "[]"
    else:
        return _INDENTED.encode(node).replace("\n", _pad(depth))
    if not entries:
        return brackets
    inner = _pad(depth + 1)
    return brackets[0] + inner + ("," + inner).join(entries) + _pad(depth) + brackets[1]


def write_report(report: dict, path) -> None:
    Path(path).write_text(dumps_report(report))


def strip_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


def load_schema() -> dict:
    text = resources.files("odnsparse").joinpath("report.schema.json").read_text()
    return json.loads(text)


def validate_report(report: dict) -> None:
    """Validate a report dict against the shipped schema (needs jsonschema)."""
    import jsonschema

    jsonschema.validate(report, load_schema())


def write_spectral_csv(r: SpectralReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["i", "lambda", "lambda_hat", "deviation", "sin_theta", "dk_bound"]
        )
        for i in range(r.n):
            angle = r.angles[i]
            writer.writerow(
                [
                    i + 1,
                    repr(float(r.values[i])),
                    repr(float(r.values_hat[i])),
                    repr(float(r.deviations[i])),
                    "" if angle.sin_theta is None else repr(angle.sin_theta),
                    "undefined" if angle.bound is None else repr(angle.bound),
                ]
            )


def write_pca_csv(p: PcaComparison, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "variance", "variance_hat", "gap", "bound"])
        for i in range(len(p.variances)):
            writer.writerow(
                [
                    i + 1,
                    repr(float(p.variances[i])),
                    repr(float(p.variances_hat[i])),
                    repr(float(p.gaps[i])),
                    repr(p.per_component_bound),
                ]
            )
