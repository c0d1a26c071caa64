"""One shared PairSpectra per run: eigensolve counts and agreement with the
standalone check functions."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from odnsparse import (
    DenseLimitExceededError,
    OdnMatrix,
    PairSpectra,
    adjacency_norm_check,
    decompose,
    eigenvalue_ratio_check,
    generate_odn,
    pca_compare,
    reconstruct,
    sparsifier_norm_check,
    sparsify_laplacian,
    spectral_report,
    verify_sparsifier,
    weyl_check,
    write_matrix_market,
)
from odnsparse import spectra as spectra_module
from odnsparse.cli import main

EPS = 0.25
SEED = 7


@pytest.fixture
def solves(monkeypatch):
    """Counts calls of the dense eigensolvers numpy.linalg.eigh / eigvalsh."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counting(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def test_sparsify_solves_each_matrix_once(solves, tmp_path, capsys):
    # eigh: L, M, M_hat; eigvalsh: the pencil (L_hat, L), L_hat, M - M_hat.
    code = main(["sparsify", "--gen", "grid:rows=5,cols=5,diag=uniform(0,1)",
                 "--seed", str(SEED), "--out-report", str(tmp_path / "r.json")])
    assert code == 0
    assert solves == {"eigh": 3, "eigvalsh": 3}


def test_verify_solves_each_matrix_once(solves, tmp_path, capsys):
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(generate_odn("complete", 20, seed=3, diag=("uniform", 0, 1)), a)
    assert main(["sparsify", "--input", str(a), "--out-matrix", str(b)]) == 0
    solves.update(eigh=0, eigvalsh=0)
    # eigh: L, M, M_hat; eigvalsh: the pencil, L - L_hat, A - A_hat,
    # L_hat, M - M_hat.
    assert main(["verify", str(a), str(b), "--out-report", str(tmp_path / "r.json")]) == 0
    assert solves == {"eigh": 3, "eigvalsh": 5}


def test_pca_solves_each_matrix_once(solves):
    matrix = generate_odn("equicorrelation", 15, correlation=0.4)
    # eigh: L, M; eigvalsh: the pencil. M_hat is solved by Lanczos.
    assert pca_compare(matrix, EPS, 3, seed=SEED).passed
    assert solves == {"eigh": 2, "eigvalsh": 1}


def _connected():
    return generate_odn("grid", rows=4, cols=5, seed=11, diag=("uniform", 0, 1))


def _disconnected():
    # K4 on {0..3}, a weighted path on {4..6}, vertex 7 isolated.
    i4, j4 = np.triu_indices(4, k=1)
    rows = np.concatenate([i4, [4, 5]])
    cols = np.concatenate([j4, [5, 6]])
    vals = np.concatenate([np.full(6, 2.0), [1.0, 3.0]])
    return OdnMatrix(8, rows, cols, vals, np.linspace(-1.0, 2.0, 8))


def _assert_same(shared, alone, path):
    if dataclasses.is_dataclass(shared):
        assert type(shared) is type(alone), path
        for field in dataclasses.fields(shared):
            _assert_same(getattr(shared, field.name), getattr(alone, field.name),
                         f"{path}.{field.name}")
    elif isinstance(shared, list):
        assert len(shared) == len(alone), path
        for k, (x, y) in enumerate(zip(shared, alone)):
            _assert_same(x, y, f"{path}[{k}]")
    elif isinstance(shared, (float, np.ndarray)):
        x, y = np.asarray(shared, dtype=float), np.asarray(alone, dtype=float)
        assert x.shape == y.shape, path
        assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(1.0, np.abs(y))), path
    else:
        assert shared == alone, path


@pytest.mark.parametrize("make", [_connected, _disconnected])
@pytest.mark.parametrize("build", ["sparsify", "verify"])
def test_shared_pair_matches_standalone_checks(make, build):
    matrix = make()
    decomp = decompose(matrix)
    if build == "sparsify":
        # As the sparsify command: L's eigendecomposition comes from the
        # resistances, and the sparsifier side is attached afterwards.
        spectra = PairSpectra(decomp)
        result = sparsify_laplacian(spectra, EPS, SEED)
        m_hat = reconstruct(result.adjacency, decomp.center)
        spectra.hat, spectra.matrix_hat = result, m_hat
        direct = sparsify_laplacian(decomp, EPS, SEED)
        assert (result.adjacency != direct.adjacency).nnz == 0
    else:
        result = sparsify_laplacian(decomp, EPS, SEED)
        m_hat = reconstruct(result.adjacency, decomp.center)
        spectra = PairSpectra(decomp, decompose(m_hat))
    lap_hat = spectra.laplacian_hat

    shared = {
        "verify": verify_sparsifier(spectra, epsilon=EPS, probes=200, seed=SEED),
        "ratios": eigenvalue_ratio_check(spectra, epsilon=EPS),
        "laplacian_norm": sparsifier_norm_check(spectra, epsilon=EPS),
        "adjacency_norm": adjacency_norm_check(spectra),
        "spectral": spectral_report(spectra, epsilon=EPS),
        "weyl": weyl_check(spectra),
    }
    alone = {
        "verify": verify_sparsifier(decomp.laplacian, lap_hat, EPS, probes=200, seed=SEED),
        "ratios": eigenvalue_ratio_check(decomp.laplacian_dense(), lap_hat, EPS),
        "laplacian_norm": sparsifier_norm_check(decomp.laplacian, lap_hat, EPS),
        "adjacency_norm": adjacency_norm_check(decomp, decompose(m_hat)),
        "spectral": spectral_report(matrix, m_hat, EPS),
        "weyl": weyl_check(matrix.to_dense(), m_hat.to_dense()),
    }
    for name in shared:
        _assert_same(shared[name], alone[name], name)
    assert shared["verify"].mode == "exact"


def test_verify_above_dense_limit_exits_one_without_solving(solves, tmp_path, capsys,
                                                          monkeypatch):
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(generate_odn("complete", 60, seed=2, diag=("uniform", 0, 1)), a)
    assert main(["sparsify", "--input", str(a), "--out-matrix", str(b)]) == 0
    capsys.readouterr()
    solves.update(eigh=0, eigvalsh=0)
    norm_solves = []

    def counting(*args, _norm=spectra_module.spectral_norm, **kwargs):
        norm_solves.append(args)
        return _norm(*args, **kwargs)

    monkeypatch.setattr(spectra_module, "spectral_norm", counting)
    assert main(["verify", str(a), str(b), "--dense-limit", "10"]) == 1
    assert solves == {"eigh": 0, "eigvalsh": 0}
    assert norm_solves == []
    err = capsys.readouterr().err
    assert "n=60 exceeds the dense limit 10" in err
    assert "--dense-limit" in err and "PairSpectra(dense_limit=...)" in err


DENSE_ONLY_ROLES = ["laplacian_eigh", "laplacian_values", "laplacian_hat_values",
                    "pencil", "systems", "matrix_values"]


def _grid_pair(seed):
    """Grid 40x50 (n = 2000) and its sparsifier, paired with dense_limit 100."""
    matrix = generate_odn("grid", rows=40, cols=50, seed=seed, diag=("uniform", 0, 1))
    decomp = decompose(matrix)
    result = sparsify_laplacian(decomp, EPS, SEED)
    m_hat = reconstruct(result.adjacency, decomp.center)
    return PairSpectra(decomp, decompose(m_hat), dense_limit=100)


def _pair_norms(spectra):
    return {name: getattr(spectra, name) for name in
            ("laplacian_norm", "matrix_diff_norm", "laplacian_diff_norm",
             "adjacency_diff_norm")}


def _assert_norms_match_dense(spectra, norms):
    """Each norm computed above the limit equals max |eigvalsh| of the dense operand."""
    base, hat = spectra.base, spectra.hat
    exact = {
        "laplacian_norm": base.laplacian_dense(),
        "matrix_diff_norm": base.matrix.to_dense() - hat.matrix.to_dense(),
        "laplacian_diff_norm": (base.laplacian - hat.laplacian).toarray(),
        "adjacency_diff_norm": (base.adjacency - hat.adjacency).toarray(),
    }
    for name, dense in exact.items():
        expected = float(np.abs(np.linalg.eigvalsh(dense)).max())
        np.testing.assert_allclose(norms[name], expected, rtol=1e-12, err_msg=name)


def test_pair_above_dense_limit_solves_nothing_dense(solves):
    spectra = _grid_pair(0)
    n = spectra.base.n
    solves.update(eigh=0, eigvalsh=0)
    for role in DENSE_ONLY_ROLES:
        with pytest.raises(DenseLimitExceededError):
            getattr(spectra, role)
    assert solves == {"eigh": 0, "eigvalsh": 0}

    tracemalloc.start()
    norms = _pair_norms(spectra)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert solves == {"eigh": 0, "eigvalsh": 0}
    assert peak < n * n * 8
    _assert_norms_match_dense(spectra, norms)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_pair_norms_above_dense_limit_are_exact(seed):
    # Seed 0 is checked above. An estimate that approaches a norm from
    # below, as power iteration does, reads 2e-7 low on seed 5 and fails.
    spectra = _grid_pair(seed)
    _assert_norms_match_dense(spectra, _pair_norms(spectra))
