"""Span tracing for one CLI job, done from outside the library.

`Tracer.install()` replaces functions with timing wrappers as module
attributes: every public function of the traced odnsparse modules (under
each name any odnsparse module binds it to, so `cli`'s imported names and
calls through module globals such as `spectral_report` ->
`eigen_decompose` are both caught), `cli.main`, `spectra.eigh_tridiagonal`
(one call per Lanczos Ritz step), the dense eigensolvers
`numpy.linalg.eigh` / `eigvalsh`, and `numpy.loadtxt` (the CLI's CSV
ingest). `uninstall()` puts every original back. The library source is
not edited.

Spans stay in memory as plain dicts and are written out by the caller
when the job ends. `layer_metrics` turns one job's spans into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time

TRACED_MODULES = ("mmio", "core", "generators", "sparsify", "spectra",
                  "applications", "report")
# Every odnsparse module that may hold a reference to a traced function.
BINDING_MODULES = TRACED_MODULES + ("cli",)
DENSE_EIGENSOLVERS = ("eigh", "eigvalsh")


def _maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attrs_for(name, args, kwargs, out):
    """Counts recorded at the span boundary, for the layer ratios."""
    if name.startswith("linalg."):
        a = args[0] if args else kwargs["a"]
        return {"n": int(a.shape[-1])}
    if name == "sparsify.sparsify_laplacian":
        decomp = args[0] if args else kwargs["decomp"]
        return {"distinct_edges": int(out.distinct_edges),
                "stored_pairs": int(decomp.matrix.stored_pairs)}
    if name == "mmio.read_matrix_market":
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    if name == "mmio.write_matrix_market":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    """Records nested spans of one job; install/uninstall are symmetric."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append({})
            tracer._stack.append(sid)
            rss0 = _maxrss_mb()
            start = time.perf_counter()
            out, ok = None, False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = {"id": sid, "parent": parent, "job": tracer.job_id,
                        "name": name, "start": start, "end": end,
                        "rss_rise_mb": _maxrss_mb() - rss0}
                if ok:
                    span["attrs"] = _attrs_for(name, args, kwargs, out)
                tracer.spans[sid] = span

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import numpy

        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"odnsparse.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for short in BINDING_MODULES + ("",):
            module = sys.modules["odnsparse" + (f".{short}" if short else "")]
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

        cli = sys.modules["odnsparse.cli"]
        spectra = sys.modules["odnsparse.spectra"]
        self._patch(cli, "main", self._wrap("cli.main", cli.main))
        self._patch(spectra, "eigh_tridiagonal",
                    self._wrap("spectra.eigh_tridiagonal", spectra.eigh_tridiagonal))
        for attr in DENSE_EIGENSOLVERS:
            self._patch(numpy.linalg, attr,
                        self._wrap(f"linalg.{attr}", getattr(numpy.linalg, attr)))
        self._patch(numpy, "loadtxt", self._wrap("cli.csv_load", numpy.loadtxt))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Calls are single-threaded and nested, so children never overlap and
    their durations add up to the covered time."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


# Spans whose self time is a per-layer metric.
SELF_TIME_SPANS = (
    "sparsify.sparsify_laplacian", "sparsify.verify_sparsifier",
    "sparsify.eigenvalue_ratio_check", "spectra.spectral_report",
    "spectra.eigen_decompose", "spectra.davis_kahan", "spectra.spectral_norm",
    "spectra.weyl_check", "spectra.adjacency_norm_check",
    "spectra.sparsifier_norm_check", "mmio.read_matrix_market",
    "mmio.write_matrix_market", "core.validate_odn", "core.decompose",
    "core.reconstruct", "generators.generate_odn",
    "applications.correlation_from_data", "applications.pca_compare",
    "cli.csv_load", "report.write_report", "cli.main",
)
# Every per-layer metric of one traced job, with its unit.
LAYER_UNITS = {f"{name}.self_s": "s" for name in SELF_TIME_SPANS}
LAYER_UNITS.update({
    "sparsify.sparsify_laplacian.rss_rise_mb": "MB",
    "sparsify.edges_kept_share": "ratio",
    "linalg.dense_eigensolves": "count",
    "linalg.dense_eig_s": "s",
    "linalg.dense_eig_n3": "n3_computed",
    "spectra.lanczos_steps": "count",
    "mmio.read_matrix_market.mb_per_s": "MB/s",
    "mmio.read_matrix_market.rss_rise_mb": "MB",
    "mmio.write_matrix_market.mb_per_s": "MB/s",
    "core.validate_odn.calls": "count",
})


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one job. A layer the job never entered reads 0."""
    out = {metric: 0.0 for metric in LAYER_UNITS}
    selfs = self_times(spans)
    kept = pairs = 0
    io = {"mmio.read_matrix_market": [0, 0.0], "mmio.write_matrix_market": [0, 0.0]}
    for span, self_s in zip(spans, selfs):
        name = span["name"]
        attrs = span.get("attrs", {})
        if name in SELF_TIME_SPANS:
            out[f"{name}.self_s"] += self_s
        if name.startswith("linalg."):
            out["linalg.dense_eigensolves"] += 1
            out["linalg.dense_eig_s"] += span["end"] - span["start"]
            out["linalg.dense_eig_n3"] += float(attrs.get("n", 0)) ** 3
        elif name == "spectra.eigh_tridiagonal":
            out["spectra.lanczos_steps"] += 1
        elif name == "core.validate_odn":
            out["core.validate_odn.calls"] += 1
        elif name == "sparsify.sparsify_laplacian":
            out["sparsify.sparsify_laplacian.rss_rise_mb"] += span["rss_rise_mb"]
            kept += attrs.get("distinct_edges", 0)
            pairs += attrs.get("stored_pairs", 0)
        elif name in io:
            io[name][0] += attrs.get("bytes", 0)
            # Throughput over the whole call, parsing plus validation.
            io[name][1] += span["end"] - span["start"]
            if name == "mmio.read_matrix_market":
                out["mmio.read_matrix_market.rss_rise_mb"] += span["rss_rise_mb"]
    if pairs:
        out["sparsify.edges_kept_share"] = kept / pairs
    for name, (nbytes, seconds) in io.items():
        if seconds > 0:
            out[f"{name}.mb_per_s"] = nbytes / 1e6 / seconds
    return out
