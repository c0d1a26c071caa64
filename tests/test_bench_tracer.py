"""The benchmark's tracer (bench/tracer.py) patches library names by
attribute, so removing or renaming one of them must fail here, not only in
traced benchmark jobs."""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

import odnsparse.cli  # noqa: F401  (the tracer also patches names bound in cli)
from odnsparse import spectra

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    originals = (spectra.eigen_decompose, np.linalg.eigh)
    job = tracer.Tracer("t")
    try:
        job.install()
        assert spectra.eigen_decompose is not originals[0]
    finally:
        job.uninstall()
    assert (spectra.eigen_decompose, np.linalg.eigh) == originals


# The odnsparse spans, `linalg.*` left out, of the jobs in
# `test_tracer_span_counts`: a private module of the library adds none.
SPAN_COUNTS = {
    "cli.csv_load": 3, "cli.main": 3, "core.decompose": 4, "core.diagonal_csr": 4,
    "generators.generate_odn": 2, "generators.parse_generator_spec": 1,
    "mmio.read_matrix_market": 3, "mmio.write_matrix_market": 3,
    "report.sparsifier_to_dict": 2, "report.spectral_to_dict": 3,
    "report.verification_to_dict": 3, "sparsify.effective_resistances": 2,
    "sparsify.sample_count": 4, "sparsify.sampler_budget": 4,
    "sparsify.sparsify_laplacian": 2, "sparsify.verify_sparsifier": 3,
    "spectra.eigenvalue_deviation_bound": 3, "spectra.spectral_report": 3,
}


def test_tracer_span_counts(monkeypatch, tmp_path, capsys):
    """sparsify of a 6 x 6 grid with --out-matrix, then sparsify --input and
    verify of a complete n = 40 pair: each traced name is entered as often as
    the pin says."""
    import odnsparse
    from odnsparse import cli

    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    job = importlib.import_module("tracer").Tracer("t")
    job.install()
    try:
        assert cli.main(["sparsify", "--gen", "grid:rows=6,cols=6",
                         "--out-matrix", "grid_hat.mtx"]) == 0
        odnsparse.write_matrix_market(odnsparse.generate_odn("complete", 40, seed=1), "a.mtx")
        assert cli.main(["sparsify", "--input", "a.mtx", "--out-matrix", "b.mtx"]) == 0
        assert cli.main(["verify", "a.mtx", "b.mtx"]) == 0
    finally:
        job.uninstall()
    counts = Counter(span["name"] for span in job.spans
                     if not span["name"].startswith("linalg."))
    assert counts == SPAN_COUNTS
