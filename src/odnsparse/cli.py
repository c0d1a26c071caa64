"""Command-line front-end for the sparsification pipeline.

Subcommands: sparsify (full pipeline + report), verify (certify a given
matrix pair as sparsify certifies its own: the sparsifier inequality, the
eigenvalue deviation bound and the angle bounds), pca-demo (correlation PCA
comparison from a CSV), bounds (print the certified deviation bound without
sparsifying).

Exit codes: 0 all checks passed, 1 usage/input error, 2 bound violation.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import __version__, _import_s
from .core import decompose
from .errors import NotOdnError, OdnError
from .generators import generate_odn, parse_generator_spec
from .mmio import read_matrix_market, write_matrix_market
from .applications import correlation_from_data, pca_compare
from .report import (
    SCHEMA_VERSION,
    pca_to_dict,
    sparsifier_to_dict,
    spectral_to_dict,
    verification_to_dict,
    write_pca_csv,
    write_report,
    write_spectral_csv,
)
from .sparsify import (
    EPSILON_SMALL_REGIME,
    sample_count,
    sampler_budget,
    sparsify_laplacian,
    verify_sparsifier,
)
from ._native import _blas_pools
from .spectra import (
    DENSE_LIMIT,
    PairSpectra,
    eigenvalue_deviation_bound,
    spectral_report,
)


class _Parser(argparse.ArgumentParser):
    # Usage problems are exit code 1; argparse defaults to 2, which this
    # tool reserves for bound violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# verify and bounds sample nothing; they accept --seed like the other commands.
_UNUSED_SEED_HELP = ("nothing is sampled: only copied into the report's "
                     "parameters.seed (default 0)")


def _add_common(parser, seed_help="seed of the edge sampler (default 0)"):
    parser.add_argument("--epsilon", type=float, default=0.25,
                        help="target spectral approximation (default 0.25)")
    parser.add_argument("--constant", type=float, default=9.0,
                        help="oversampling constant C (default 9)")
    parser.add_argument("--seed", type=int, default=0, help=seed_help)
    parser.add_argument("--dense-limit", type=int, default=DENSE_LIMIT,
                        help=f"max n for dense eigensolves (default {DENSE_LIMIT})")
    parser.add_argument("--out-report", metavar="PATH", help="write the JSON report")
    parser.add_argument("--out-csv", metavar="PATH", help="write the flat CSV")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _add_input(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", metavar="PATH", help="Matrix Market input file")
    group.add_argument("--gen", metavar="SPEC",
                       help="generator spec, e.g. complete:n=50,seed=1")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="odn-sparsify",
                     description="Sparsify symmetric matrices with nonnegative "
                                 "off-diagonal entries and verify the spectral bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sparsify = sub.add_parser("sparsify", help="run the full pipeline")
    _add_input(sparsify)
    _add_common(sparsify)
    sparsify.add_argument("--out-matrix", metavar="PATH",
                          help="write the sparsified matrix (Matrix Market)")

    verify = sub.add_parser("verify", help="certify a matrix pair as sparsify does")
    verify.add_argument("matrix_a", help="reference matrix (Matrix Market)")
    verify.add_argument("matrix_b", help="candidate sparsifier (Matrix Market)")
    _add_common(verify, _UNUSED_SEED_HELP)

    pca = sub.add_parser("pca-demo", help="correlation PCA comparison from CSV data")
    pca.add_argument("--input", metavar="PATH", required=True,
                     help="CSV with a header row, one sample per row")
    pca.add_argument("--components", type=int, default=3, metavar="P",
                     help="number of principal components (default 3)")
    _add_common(pca)

    bounds = sub.add_parser("bounds", help="print the deviation bound, no sparsification")
    _add_input(bounds)
    _add_common(bounds, _UNUSED_SEED_HELP)
    return parser


@contextmanager
def _stage(stages: dict, name: str):
    """Record the block's wall time, in seconds, as `stages[name]`."""
    t0 = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - t0


def _load_matrix(args, stages):
    if getattr(args, "gen", None):
        spec = parse_generator_spec(args.gen)
        return generate_odn(**spec), f"generator:{args.gen}"
    with _stage(stages, "read"):
        matrix = read_matrix_market(args.input)
    return matrix, f"file:{args.input}"


def _report_skeleton(source, matrix, args, extra_params=None) -> dict:
    params = {
        "epsilon": args.epsilon,
        "constant": args.constant,
        "seed": args.seed,
        "dense_limit": args.dense_limit,
        "resistance_mode": "exact",
        "epsilon_above_small_regime": bool(args.epsilon > EPSILON_SMALL_REGIME),
    }
    if extra_params:
        params.update(extra_params)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "odnsparse", "version": __version__},
        "input": {
            "source": source,
            "n": matrix.n,
            "stored_pairs": matrix.stored_pairs,
            "nnz_offdiag": matrix.nnz_offdiag,
            "nnz": matrix.nnz,
        },
        "parameters": params,
    }


def _warn_small_regime(epsilon):
    if EPSILON_SMALL_REGIME < epsilon < 1.0:
        print(
            f"warning: epsilon={epsilon:g} is above 1/120; the strictest "
            "sparsity guarantees are stated only at or below that value",
            file=sys.stderr,
        )


def _close_timings(timings, args, paths) -> None:
    """Record in `timings` the wall time of the package's import as
    `import_s`, the peak resident set so far (ru_maxrss: KiB on Linux, bytes
    on macOS), each bundled OpenBLAS pool's owner, library and thread count
    in effect (`_blas_pools`) as `blas`, and the path each role took
    (`paths`, see `PairSpectra.paths`) as `paths`, and, on -v, print the
    import and stage timings, the peak, the same pools and the same paths."""
    timings["import_s"] = _import_s
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timings["peak_rss_mb"] = peak / (1 << (20 if sys.platform == "darwin" else 10))
    timings["blas"] = [{"owner": owner, "library": library, "threads": threads}
                       for owner, library, threads in _blas_pools()]
    timings["paths"] = dict(paths)
    if args.verbose:
        print(f"timing: import {_import_s * 1e3:.2f} ms", file=sys.stderr)
        for stage, seconds in timings.get("stages", {}).items():
            print(f"timing: {stage} {seconds * 1e3:.2f} ms", file=sys.stderr)
        print(f"memory: peak RSS {timings['peak_rss_mb']:.1f} MB", file=sys.stderr)
        for pool in timings["blas"]:
            print(f"blas: {pool['owner']}: {pool['library']}, {pool['threads']} threads",
                  file=sys.stderr)
        for role, path in paths.items():
            print(f"path: {role} {path}", file=sys.stderr)


def _certificates(verification, spect, extra="") -> list[tuple[str, bool]]:
    """Print the certificates' values, the deviation bound against the
    largest deviation and the pencil's extremes against their target, and
    return the verdicts sparsify and verify give a pair."""
    eps = verification.epsilon
    print(f"bound={spect.bound:.6g} max_deviation={spect.max_deviation:.6g}{extra}")
    if verification.gen_min is not None:
        print(f"ratio extremes: [{verification.gen_min:.6f}, {verification.gen_max:.6f}] "
              f"target [{1 - eps:.6f}, {1 + eps:.6f}]")
    return [("sparsifier-inequality", verification.passed),
            ("eigenvalue-deviation-bound", spect.eigenvalue_bound_passed),
            ("angle-bounds", spect.angles_passed)]


def _finish(report, verdicts, timings, args, paths, spectral=None, pca=None) -> int:
    """Record the (name, passed) `verdicts` in the report's checks, write the
    outputs asked for, print the outcome and return the exit code."""
    failures = sorted(name for name, passed in verdicts if not passed)
    report["checks"] = {"all_passed": not failures, "failures": failures}
    _close_timings(timings, args, paths)
    report["timings"] = timings
    if args.out_report:
        write_report(report, args.out_report)
    if args.out_csv and spectral is not None:
        write_spectral_csv(spectral, args.out_csv)
    if args.out_csv and pca is not None:
        write_pca_csv(pca, args.out_csv)
    if failures:
        print("FAIL: " + ", ".join(failures))
        return 2
    print("PASS: all checks passed")
    return 0


def cmd_sparsify(args) -> int:
    timings: dict = {"started_at": datetime.now(timezone.utc).isoformat(), "stages": {}}
    stages = timings["stages"]
    matrix, source = _load_matrix(args, stages)
    _warn_small_regime(args.epsilon)
    # The sampler's arguments are checked before M's values solve can start.
    sampler_budget(matrix, args.epsilon, args.seed, args.constant)

    # A band side of M or M_hat starts its values solve on the pair's worker
    # as soon as it exists; the spectral report collects both.
    with _stage(stages, "decompose"):
        decomp = decompose(matrix)
        spectra = PairSpectra(decomp, dense_limit=args.dense_limit)
        spectra.start_values("matrix")
    with _stage(stages, "sparsify"):
        result = sparsify_laplacian(spectra, args.epsilon, args.seed, args.constant)
    m_hat = result.matrix(decomp.center)
    spectra.hat, spectra.matrix_hat = result, m_hat
    spectra.start_values("matrix_hat")
    with _stage(stages, "verify"):
        verification = verify_sparsifier(spectra, epsilon=args.epsilon)
    if args.out_matrix:
        with _stage(stages, "write"):
            write_matrix_market(m_hat, args.out_matrix)
    with _stage(stages, "spectral"):
        spect = spectral_report(spectra, epsilon=args.epsilon)

    report = _report_skeleton(source, matrix, args)
    report["sparsifier"] = sparsifier_to_dict(result)
    report["verification"] = verification_to_dict(verification)
    report["spectral"] = spectral_to_dict(spect)

    print(f"n={matrix.n} nnz_before={matrix.nnz} nnz_after={result.nnz_after} "
          f"samples={result.samples_drawn} distinct_edges={result.distinct_edges}")
    verdicts = _certificates(verification, spect, f" centered_diag={decomp.center:.6g}")
    return _finish(report, verdicts, timings, args, spectra.paths, spectral=spect)


def cmd_verify(args) -> int:
    timings: dict = {"started_at": datetime.now(timezone.utc).isoformat(), "stages": {}}
    stages = timings["stages"]
    with _stage(stages, "read"):
        matrix_a = read_matrix_market(args.matrix_a)
        matrix_b = read_matrix_market(args.matrix_b)
    _warn_small_regime(args.epsilon)

    with _stage(stages, "checks"):
        spectra = PairSpectra(decompose(matrix_a), decompose(matrix_b),
                              dense_limit=args.dense_limit)
        spectra.start_values()  # band sides solve on the pair's worker meanwhile
        verification = verify_sparsifier(spectra, epsilon=args.epsilon)
    with _stage(stages, "spectral"):
        spect = spectral_report(spectra, epsilon=args.epsilon)

    report = _report_skeleton(f"file:{args.matrix_a}", matrix_a, args)
    report["input"]["source"] += f" vs file:{args.matrix_b}"
    report["verification"] = verification_to_dict(verification)
    report["spectral"] = spectral_to_dict(spect)

    verdicts = _certificates(verification, spect)
    return _finish(report, verdicts, timings, args, spectra.paths, spectral=spect)


def cmd_pca_demo(args) -> int:
    timings: dict = {"started_at": datetime.now(timezone.utc).isoformat(), "stages": {}}
    stages = timings["stages"]
    with _stage(stages, "load"), warnings.catch_warnings():
        # A header-only file is reported below, as an error.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
    if not data.size:
        raise ValueError(f"{args.input}: the CSV has no data rows")
    if data.shape[1] < 2:
        raise ValueError(f"need at least 2 data columns, got {data.shape[1]}")
    _warn_small_regime(args.epsilon)

    with _stage(stages, "correlation"):
        matrix = correlation_from_data(data)
        del data  # the samples are not read again; on a large CSV they dominate
    with _stage(stages, "pca"):
        comparison = pca_compare(
            matrix, args.epsilon, args.components, args.seed,
            constant=args.constant, dense_limit=args.dense_limit,
        )

    verdicts = [("sparsifier-inequality", comparison.verification.passed),
                ("pca-variance-bound", comparison.status != "fail")]

    report = _report_skeleton(
        f"file:{args.input}", matrix, args,
        extra_params={"components": args.components},
    )
    report["applications"] = {"pca": pca_to_dict(comparison)}

    print(f"n={comparison.n} p={comparison.p} "
          f"per-component bound={comparison.per_component_bound:.6g}")
    for i in range(comparison.p):
        print(f"  component {i + 1}: var={comparison.variances[i]:.6f} "
              f"var_hat={comparison.variances_hat[i]:.6f} gap={comparison.gaps[i]:.3g}")
    return _finish(report, verdicts, timings, args, comparison.paths, pca=comparison)


def cmd_bounds(args) -> int:
    timings: dict = {"started_at": datetime.now(timezone.utc).isoformat(), "stages": {}}
    stages = timings["stages"]
    matrix, source = _load_matrix(args, stages)
    _warn_small_regime(args.epsilon)

    with _stage(stages, "bounds"):
        decomp = decompose(matrix)
        spectra = PairSpectra(decomp, dense_limit=args.dense_limit)
        bound = eigenvalue_deviation_bound(spectra, args.epsilon)
        rho = spectra.laplacian_norm
        spread = (decomp.delta_max - decomp.delta_min) / 2.0
        q = sample_count(matrix.n, args.epsilon, args.constant)
        predicted_nnz = 2 * min(q, matrix.stored_pairs) + matrix.n
    _close_timings(timings, args, spectra.paths)

    print(f"n={matrix.n} stored_pairs={matrix.stored_pairs} "
          f"nnz_offdiag={matrix.nnz_offdiag}")
    print(f"rho(L)={rho:.12g}")
    print(f"delta_max={decomp.delta_max:.12g} delta_min={decomp.delta_min:.12g} "
          f"diagonal_spread_term={spread:.12g}")
    print(f"deviation_bound={bound:.12g}")
    print(f"sample_budget={q} predicted_nnz<={predicted_nnz}")

    if args.out_report:
        report = _report_skeleton(source, matrix, args)
        report["checks"] = {"all_passed": True, "failures": []}
        report["timings"] = timings
        write_report(report, args.out_report)
    return 0


_COMMANDS = {
    "sparsify": cmd_sparsify,
    "verify": cmd_verify,
    "pca-demo": cmd_pca_demo,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NotOdnError as exc:
        print(f"error: input data is not nonnegatively correlated: {exc}",
              file=sys.stderr)
        for i, j, value in exc.pairs[:20]:
            print(f"  columns ({i}, {j}): correlation {value:.6g}", file=sys.stderr)
        return 2
    except OdnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
