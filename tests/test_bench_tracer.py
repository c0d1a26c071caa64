"""The benchmark's tracer (bench/tracer.py) patches library names by
attribute, so removing or renaming one of them must fail here, not only in
traced benchmark jobs."""

import importlib
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
