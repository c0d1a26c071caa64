"""One shared PairSpectra per run: eigensolve counts and agreement with the
standalone check functions."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from odnsparse import (
    DenseLimitExceededError,
    NormNotConvergedError,
    OdnMatrix,
    PairSpectra,
    adjacency_norm_check,
    correlation_from_data,
    decompose,
    effective_resistances,
    eigen_decompose,
    generate_odn,
    pca_compare,
    reconstruct,
    sample_count,
    sparsifier_norm_check,
    sparsify_laplacian,
    spectral_report,
    verify_sparsifier,
    weyl_check,
    write_matrix_market,
)
from odnsparse import spectra as spectra_module
from odnsparse.cli import main
from odnsparse.generators import parse_generator_spec

from conftest import complete_with_isolated_vertex, dense_pencil, random_odn

EPS = 0.25
SEED = 7


@pytest.fixture
def solves(monkeypatch):
    """Counts calls of the dense eigensolvers numpy.linalg.eigh / eigvalsh and
    of ARPACK's eigsh, as `spectra` calls it."""
    counts = {"eigh": 0, "eigvalsh": 0, "eigsh": 0}
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (spectra_module, "eigsh")):
        def counting(*args, _name=name, _solve=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def test_sparsify_solves_each_matrix_once(solves, tmp_path, capsys):
    # eigvalsh: M, M_hat; eigsh: the pencil (L_hat, L), rho(L), M - M_hat (a
    # sparse pair). L is factored, not solved, and no angle bound is below 1,
    # so no eigenvector of M or M_hat is solved.
    code = main(["sparsify", "--gen", "grid:rows=5,cols=5,diag=uniform(0,1)",
                 "--seed", str(SEED), "--out-report", str(tmp_path / "r.json")])
    assert code == 0
    assert solves == {"eigh": 0, "eigvalsh": 2, "eigsh": 3}
    assert json.loads((tmp_path / "r.json").read_text())["spectral"]["vacuous_angles"] == 25


def test_verify_solves_each_matrix_once(solves, tmp_path, capsys):
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(generate_odn("complete", 20, seed=3, diag=("uniform", 0, 1)), a)
    assert main(["sparsify", "--input", str(a), "--out-matrix", str(b)]) == 0
    solves.update(eigh=0, eigvalsh=0, eigsh=0)
    # eigh: M and M_hat for the Perron vector's angle (its bound is below 1;
    # at n = 20 a dense solve is cheaper than ARPACK's top 1); eigsh: the
    # pencil, rho(L), L - L_hat, A - A_hat, M - M_hat (each a dense buffer of
    # a dense pair); eigvalsh: M, M_hat.
    assert main(["verify", str(a), str(b), "--out-report", str(tmp_path / "r.json")]) == 0
    assert solves == {"eigh": 2, "eigvalsh": 2, "eigsh": 5}


def test_pca_solves_each_matrix_once(solves):
    matrix = generate_odn("equicorrelation", 15, correlation=0.4)
    # eigvalsh: M; eigsh: the pencil, rho(L), and M_hat by Lanczos.
    assert pca_compare(matrix, EPS, 3, seed=SEED).passed
    assert solves == {"eigh": 0, "eigvalsh": 1, "eigsh": 3}


def test_verify_of_a_dense_pair_never_reorders(solves, tmp_path, capsys, monkeypatch):
    """Complete n = 400 and a sparsifier of it store too many entries for a
    narrow band: M and M_hat go straight to `eigvalsh`, and reverse
    Cuthill-McKee is never run. eigvalsh: M, M_hat; every norm is ARPACK's."""
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)), a)
    assert main(["sparsify", "--input", str(a), "--out-matrix", str(b)]) == 0
    orders = []

    def counting(*args, _order=spectra_module.reverse_cuthill_mckee, **kwargs):
        orders.append(args)
        return _order(*args, **kwargs)

    monkeypatch.setattr(spectra_module, "reverse_cuthill_mckee", counting)
    solves.update(eigh=0, eigvalsh=0, eigsh=0)
    assert main(["verify", str(a), str(b), "--out-report", str(tmp_path / "r.json")]) == 0
    assert solves["eigvalsh"] == 2
    assert orders == []


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
        "verify": verify_sparsifier(spectra, epsilon=EPS),
        "laplacian_norm": sparsifier_norm_check(spectra, epsilon=EPS),
        "adjacency_norm": adjacency_norm_check(spectra),
        "spectral": spectral_report(spectra, epsilon=EPS),
        "weyl": weyl_check(spectra),
    }
    alone = {
        "verify": verify_sparsifier(decomp.laplacian, lap_hat, EPS),
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
    solves.update(eigh=0, eigvalsh=0, eigsh=0)
    norm_solves = []

    def counting(*args, _norm=spectra_module.spectral_norm, **kwargs):
        norm_solves.append(args)
        return _norm(*args, **kwargs)

    monkeypatch.setattr(spectra_module, "spectral_norm", counting)
    assert main(["verify", str(a), str(b), "--dense-limit", "10"]) == 1
    assert solves == {"eigh": 0, "eigvalsh": 0, "eigsh": 0}
    assert norm_solves == []
    err = capsys.readouterr().err
    assert "n=60 exceeds the dense limit 10" in err
    assert "--dense-limit" in err and "PairSpectra(dense_limit=...)" in err


DENSE_ONLY_ROLES = ["grounded_factor", "pencil", "matrix_values"]


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
    solves.update(eigh=0, eigvalsh=0, eigsh=0)
    for role in DENSE_ONLY_ROLES:
        with pytest.raises(DenseLimitExceededError):
            getattr(spectra, role)
    assert solves == {"eigh": 0, "eigvalsh": 0, "eigsh": 0}

    tracemalloc.start()
    norms = _pair_norms(spectra)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # One ARPACK solve per norm: rho(L) and the three differences.
    assert solves == {"eigh": 0, "eigvalsh": 0, "eigsh": 4}
    assert peak < n * n * 8
    _assert_norms_match_dense(spectra, norms)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_pair_norms_above_dense_limit_are_exact(seed):
    # Seed 0 is checked above. An estimate that approaches a norm from
    # below, as power iteration does, reads 2e-7 low on seed 5 and fails.
    spectra = _grid_pair(seed)
    _assert_norms_match_dense(spectra, _pair_norms(spectra))


# ---------------------------------------------- the form each operand takes

def _factor_correlation(samples=2000, columns=400, seed=1):
    """One-factor correlation matrix, the size of the pca-corr benchmark input."""
    rng = np.random.Generator(np.random.PCG64(seed))
    loadings = rng.uniform(0.5, 0.9, size=columns)
    data = (rng.standard_normal(samples)[:, None] * loadings
            + rng.standard_normal((samples, columns)) * np.sqrt(1.0 - loadings**2))
    return correlation_from_data(data)


@pytest.fixture
def arpack_operands(monkeypatch):
    """Types of the operands handed to ARPACK's eigsh."""
    seen = []

    def recording(operand, *args, _eigsh=spectra_module.eigsh, **kwargs):
        seen.append(type(operand))
        return _eigsh(operand, *args, **kwargs)

    monkeypatch.setattr(spectra_module, "eigsh", recording)
    return seen


def test_pca_corr_sized_input_runs_arpack_on_dense_operand(arpack_operands):
    comparison = pca_compare(_factor_correlation(), EPS, 50, seed=1)
    assert comparison.passed
    assert comparison.nnz_after >= 2 / 3 * comparison.n**2
    # The pencil's reduced matrix, L for rho(L), then M_hat.
    assert arpack_operands == [np.ndarray, np.ndarray, np.ndarray]
    assert comparison.paths["factor"] == "dense"  # L is held dense


def test_verify_pair_sized_input_keeps_the_dense_factor():
    """A complete n = 400 pair, the size of the verify-pair benchmark input:
    L is held dense, so it is factored dense, not in band storage."""
    decomp = decompose(generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)))
    spectra = PairSpectra(decomp, sparsify_laplacian(decomp, EPS, SEED))
    assert verify_sparsifier(spectra, epsilon=EPS).passed
    assert spectra.paths["factor"] == "dense"


@pytest.mark.parametrize("make", [
    lambda: generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1)),
    lambda: random_odn(np.random.default_rng(5), 300, density=0.3),
])
def test_sparse_operands_stay_sparse_for_arpack(make, monkeypatch):
    matrix = make()
    share = matrix.nnz / matrix.n**2
    assert share < 2 / 3
    spectra = PairSpectra()
    densified = []

    def recording(x, _densify=PairSpectra._densify):
        densified.append(x)
        return _densify(spectra, x)

    monkeypatch.setattr(spectra, "_densify", recording)
    assert sp.issparse(spectra.eigsh_operand(matrix))
    assert densified == []


def test_operand_above_dense_limit_stays_sparse():
    matrix = generate_odn("complete", 50, seed=2, diag=("uniform", 0, 1))
    assert sp.issparse(PairSpectra(dense_limit=49).eigsh_operand(matrix))
    assert isinstance(PairSpectra(dense_limit=50).eigsh_operand(matrix), np.ndarray)


def test_dense_and_sparse_arpack_operands_agree():
    matrix = generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1))
    decomp = decompose(matrix)
    m_hat = sparsify_laplacian(decomp, EPS, SEED).matrix(decomp.center)
    dense = eigen_decompose(PairSpectra().eigsh_operand(m_hat), k=50, method="iterative")
    sparse = eigen_decompose(m_hat, k=50, method="iterative")
    rho = float(np.abs(np.linalg.eigvalsh(m_hat.to_dense())).max())
    assert dense.converged and sparse.converged
    assert np.abs(dense.values - sparse.values).max() <= 1e-10 * rho
    assert max(dense.residual, sparse.residual) <= 1e-8 * rho


def test_grid_pencil_memory(monkeypatch):
    """On a 30 x 30 grid, whose Laplacians are held as CSR, with the dense
    factor, the pencil's traced peak past the factor is at most 1.5 n x n
    arrays: L_hat's grounded block, which becomes the reduced matrix in
    place."""
    monkeypatch.setattr(spectra_module, "_BAND_SHARE", 0.0)
    matrix = generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1))
    spectra = PairSpectra(decompose(matrix))
    spectra.hat = sparsify_laplacian(spectra, EPS, SEED)
    spectra.laplacian_hat, spectra.grounded_factor
    assert spectra.paths["factor"] == "dense"
    tracemalloc.start()
    try:
        spectra.pencil
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * matrix.n**2 * 8


def test_grid_band_memory():
    """On a 60 x 60 grid, the band factor, the resistances and the pencil
    allocate no n x n array (104 MB): their traced peak is a small multiple
    of the band, n (kd + 1) x 8 B."""
    matrix = generate_odn("grid", rows=60, cols=60, seed=1, diag=("uniform", 0, 1))
    decomp = decompose(matrix)
    hat = sparsify_laplacian(decomp, EPS, SEED)
    spectra = PairSpectra(decomp, hat)
    spectra.laplacian, spectra.laplacian_hat
    tracemalloc.start()
    try:
        effective_resistances(spectra)
        spectra.pencil
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectra.paths == {"factor": "band kd=60", "pencil": "arpack"}
    assert peak <= 4 * matrix.n * 61 * 8


def test_grid_band_values_memory():
    """On a 60 x 60 grid, the eigenvalues of M and M_hat are solved in band
    storage: their traced peak is a few bands, n (kd + 1) x 8 B (1.8 MB),
    where each side's dense solve held an n x n array of 104 MB."""
    matrix = generate_odn("grid", rows=60, cols=60, seed=1, diag=("uniform", 0, 1))
    decomp = decompose(matrix)
    spectra = PairSpectra(decomp, matrix_hat=sparsify_laplacian(decomp, EPS, SEED).matrix(
        decomp.center))
    tracemalloc.start()
    try:
        spectra.matrix_values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectra.paths == {"matrix_values": "band kd=60", "matrix_hat_values": "band kd=60"}
    assert peak <= 3 * matrix.n * 61 * 8


def test_grid_sampling_memory():
    """On a 30 x 30 grid, the q = 881 591 draws come in blocks of 2^16
    uniforms: the resistances and the draws, past L's band factor, peak below
    a quarter of the 8 q bytes (7 MB) that all q uniforms took at once."""
    matrix = generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1))
    spectra = PairSpectra(decompose(matrix))
    spectra.grounded_factor
    q = sample_count(matrix.n, EPS, 9.0)
    tracemalloc.start()
    try:
        result = sparsify_laplacian(spectra, EPS, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.samples_drawn == q
    assert peak < 8 * q / 4


@pytest.mark.parametrize("matrix", [
    generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1)),
    generate_odn("complete", 400, seed=3, diag=("uniform", 0, 1)),
    generate_odn("erdos-renyi", 500, density=0.01, seed=4),
], ids=["grid", "complete", "erdos-renyi-disconnected"])
def test_pencil_matches_dense_reduction(matrix):
    decomp = decompose(matrix)
    if matrix.n == 500:
        assert decomp.components[0] > 1
    spectra = PairSpectra(decomp)
    spectra.hat = sparsify_laplacian(spectra, EPS, SEED)
    expected = dense_pencil(decomp.laplacian, spectra.laplacian_hat)
    gen, leak = spectra.pencil
    # ARPACK's extremes, widened outward: they bracket the dense ones, closely.
    assert spectra.paths["pencil"] == "arpack"
    assert gen[0] <= expected[0] and expected[-1] <= gen[1]
    assert max(expected[0] - gen[0], gen[1] - expected[-1]) <= 1e-12 * abs(expected).max()
    assert leak <= 1e-8 * spectra.laplacian_norm
    # Random quadratic forms off L's kernel never leave the pencil's extremes.
    labels = decomp.components[1]
    x = np.random.default_rng(SEED).standard_normal((matrix.n, 200))
    for c in np.unique(labels):
        x[labels == c] -= x[labels == c].mean(axis=0)
    ratios = (np.einsum("ij,ij->j", x, spectra.laplacian_hat @ x)
              / np.einsum("ij,ij->j", x, decomp.laplacian @ x))
    assert gen[0] - 1e-9 <= ratios.min() and ratios.max() <= gen[-1] + 1e-9


# ------------------------------------------- one held form per Laplacian

DENSE_GRAPHS = {
    "complete": lambda: generate_odn("complete", 120, seed=2, diag=("uniform", 0, 1)),
    "density-0.7": lambda: random_odn(np.random.default_rng(3), 150, density=0.7),
    "isolated-vertex": complete_with_isolated_vertex,
}


@pytest.mark.parametrize("make", DENSE_GRAPHS.values(), ids=DENSE_GRAPHS.keys())
def test_dense_graph_holds_one_dense_laplacian_per_side(make):
    decomp = decompose(make())
    spectra = PairSpectra(decomp)
    result = sparsify_laplacian(spectra, EPS, SEED)
    assert spectra.laplacian_hat is None
    spectra.hat = result  # set after construction, as the sparsify command does
    for side, held in ((decomp, spectra.laplacian), (result, spectra.laplacian_hat)):
        assert isinstance(held, np.ndarray)
        assert held.tobytes() == side.laplacian.toarray().tobytes()


@pytest.mark.parametrize("make", [
    lambda: generate_odn("grid", rows=30, cols=30, seed=1, diag=("uniform", 0, 1)),
    lambda: generate_odn("erdos-renyi", 500, density=0.01, seed=4),
    lambda: random_odn(np.random.default_rng(5), 300, density=0.3),
], ids=["grid", "erdos-renyi-disconnected", "density-0.3"])
def test_sparse_graph_keeps_its_csr_laplacian(make):
    decomp = decompose(make())
    spectra = PairSpectra(decomp)
    spectra.hat = sparsify_laplacian(spectra, EPS, SEED)
    assert spectra.laplacian is decomp.laplacian
    assert spectra.laplacian_hat is spectra.hat.laplacian


def _graph_sides(monkeypatch, module):
    """Records every decomposition and SparsifierResult `module` makes."""
    made = []
    for name in ("decompose", "sparsify_laplacian"):
        def recording(*args, _make=getattr(module, name), **kwargs):
            made.append(_make(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(module, name, recording)
    return made


def _assert_no_csr_kept(made, count):
    assert len(made) == count
    for side in made:
        assert "adjacency" not in vars(side) and "laplacian" not in vars(side), side


def test_dense_pipelines_keep_no_csr_copy(monkeypatch, tmp_path, capsys):
    from odnsparse import applications, cli

    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(generate_odn("complete", 80, seed=3, diag=("uniform", 0, 1)), a)
    made = _graph_sides(monkeypatch, cli)
    assert main(["sparsify", "--input", str(a), "--out-matrix", str(b)]) == 0
    _assert_no_csr_kept(made, 2)
    made.clear()
    assert main(["verify", str(a), str(b)]) == 0
    _assert_no_csr_kept(made, 2)

    made = _graph_sides(monkeypatch, applications)
    assert pca_compare(_factor_correlation(400, 80), EPS, 5, seed=SEED).passed
    _assert_no_csr_kept(made, 2)


def _held_laplacians(spectra):
    """The Laplacians a pair still holds, in any form."""
    held = [role for role in ("laplacian", "laplacian_hat") if role in vars(spectra)]
    held.extend(side for side in (spectra.base, spectra.hat) if "laplacian" in vars(side))
    return held


HELD_SPECS = ["complete:n=80,seed=3", "grid:rows=6,cols=6,diag=uniform(0,1)"]


def test_release_hands_freed_pages_back(monkeypatch):
    """Dropping the held Laplacians trims the heap, where the C library can."""
    trims = []
    monkeypatch.setattr(spectra_module, "_malloc_trim", trims.append)
    pair = PairSpectra(decompose(generate_odn("complete", 20, seed=1)))
    assert isinstance(pair.laplacian, np.ndarray)
    pair.release_laplacians()
    assert trims == [0] and "laplacian" not in vars(pair)
    monkeypatch.setattr(spectra_module, "_malloc_trim", None)
    pair.release_laplacians()  # no malloc_trim: nothing to call


def _solves_recording_held(monkeypatch):
    """Records the Laplacians held at each solve of M or M_hat's values."""
    held = []

    def recording(spectra, *args, _values=PairSpectra._values, **kwargs):
        held.extend(_held_laplacians(spectra))
        held.append("values")
        return _values(spectra, *args, **kwargs)

    monkeypatch.setattr(PairSpectra, "_values", recording)
    return held


@pytest.mark.parametrize("spec", HELD_SPECS)
def test_sparsify_report_runs_without_held_laplacians(spec, monkeypatch, capsys):
    """In the sparsify command the pair drops L and L_hat, in every form,
    before its eigensolves of M and M_hat."""
    held = _solves_recording_held(monkeypatch)
    assert main(["sparsify", "--gen", spec]) == 0
    assert held == ["values", "values"]


@pytest.mark.parametrize("spec", HELD_SPECS)
def test_verify_report_runs_without_held_laplacians(spec, monkeypatch, tmp_path, capsys):
    """In the verify command the pair drops L and L_hat, in every form, after
    the norm checks and before its eigensolves of M and M_hat."""
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    assert main(["sparsify", "--gen", spec, "--out-matrix", str(b)]) == 0
    write_matrix_market(generate_odn(**parse_generator_spec(spec)), a)
    held = _solves_recording_held(monkeypatch)
    assert main(["verify", str(a), str(b)]) == 0
    assert held == ["values", "values"]


@pytest.mark.parametrize("spec", HELD_SPECS)
def test_report_alone_keeps_no_laplacian(spec):
    """A report on a fresh pair reads rho(L) before the pair's eigensolves of
    M and M_hat, so no Laplacian is held through them or after them."""
    decomp = decompose(generate_odn(**parse_generator_spec(spec)))
    result = sparsify_laplacian(decomp, EPS, SEED)
    pair = PairSpectra(decomp, result, matrix_hat=result.matrix(decomp.center))
    assert spectral_report(pair, epsilon=EPS).passed
    assert _held_laplacians(pair) == []


@pytest.mark.parametrize("matrix", [
    _factor_correlation(400, 80),
    generate_odn("grid", rows=6, cols=6, weight=0.1, diag=1.0),
], ids=["dense", "sparse"])
def test_pca_solves_run_without_held_laplacians(matrix, monkeypatch):
    """pca_compare drops L and L_hat, in every form, once rho(L) is read and
    before its eigensolves of M (values only) and M_hat."""
    from odnsparse import applications

    pairs, held = [], []

    def recording(_solve):
        def solving(*args, **kwargs):
            held.extend(_held_laplacians(pairs[0]))
            held.append(_solve.__name__)
            return _solve(*args, **kwargs)

        return solving

    def verifying(spectra, *args, _verify=applications.verify_sparsifier, **kwargs):
        pairs.append(spectra)
        record = _verify(spectra, *args, **kwargs)
        # Every dense solve from here on is one of M or M_hat.
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        return record

    monkeypatch.setattr(applications, "verify_sparsifier", verifying)
    monkeypatch.setattr(applications, "eigen_decompose",
                        recording(applications.eigen_decompose))
    assert pca_compare(matrix, EPS, 2, seed=SEED).passed
    assert held == ["eigvalsh", "eigen_decompose"]


def _sparse_differences(base, hat, m, m_hat):
    """Each difference as the sparse difference of the sides' CSR forms."""
    def difference(x, y):
        return spectra_module._sparse(x) - spectra_module._sparse(y)

    return {
        "matrix_diff_norm": difference(m, m_hat),
        "laplacian_diff_norm": difference(base.laplacian, hat.laplacian),
        "adjacency_diff_norm": difference(base.adjacency, hat.adjacency),
    }


def _negative_zero_diagonal():
    """Diagonal range [-1, 1], so M_hat's diagonal is 0.0, against M's -0.0."""
    k = generate_odn("complete", 30, seed=8)
    diag = np.linspace(-1.0, 1.0, 30)
    diag[[3, 7]] = -0.0
    return OdnMatrix(30, k.rows, k.cols, k.vals, diag)


# Each input with the form of all three difference operands: a dense buffer
# where a side stores at least 2/3 of n^2 entries (the complete graphs), else
# the sparse difference. ARPACK solves either.
@pytest.mark.parametrize("make,form", [
    (lambda: generate_odn("complete", 60, seed=4, diag=("uniform", 0, 1)), "dense"),
    (lambda: generate_odn("erdos-renyi", 120, density=0.02, seed=5), "sparse"),
    (complete_with_isolated_vertex, "dense"),
    (_disconnected, "sparse"),
    (_negative_zero_diagonal, "dense"),
], ids=["connected", "disconnected", "isolated-vertex", "small-disconnected",
        "negative-zero-diagonal"])
@pytest.mark.parametrize("hat_kind", ["decomposition", "sparsifier"])
def test_difference_norms_are_bit_identical_to_sparse_differences(make, form, hat_kind,
                                                                 monkeypatch):
    """Each difference operand is the sparse difference of the sides' CSR
    forms, or a dense buffer equal to it entry for entry; each norm is
    ARPACK's bracket of that difference in the operand's form, bit for bit."""
    matrix = make()
    decomp = decompose(matrix)
    result = sparsify_laplacian(decomp, EPS, SEED)
    m_hat = result.matrix(decomp.center)
    hat = decompose(m_hat) if hat_kind == "decomposition" else result
    spectra = PairSpectra(decomp, hat, matrix_hat=m_hat)
    operands = {}

    def recording(role, operand, dense_limit, _norm=spectra_module._norm_bracket):
        operands[role] = operand
        return _norm(role, operand, dense_limit)

    monkeypatch.setattr(spectra_module, "_norm_bracket", recording)
    names = ("matrix_diff_norm", "laplacian_diff_norm", "adjacency_diff_norm")
    got = {name: getattr(spectra, name) for name in names}
    assert spectra.paths == dict.fromkeys(names, "arpack")
    differences = _sparse_differences(decompose(matrix), hat, matrix, m_hat)
    for name, difference in differences.items():
        operand = operands[name]
        assert isinstance(operand, np.ndarray) == (form == "dense"), name
        assert np.array_equal(spectra_module._dense(operand), difference.toarray()), name
        expected = difference.toarray() if form == "dense" else difference
        assert (got[name], "arpack") == spectra_module._norm_bracket(
            name, expected, spectra_module.DENSE_LIMIT), name


@pytest.mark.parametrize("make", [
    lambda: generate_odn("grid", rows=12, cols=15, seed=1, diag=("uniform", 0, 1)),
    lambda: generate_odn("erdos-renyi", 120, density=0.02, seed=5),
    lambda: random_odn(np.random.default_rng(5), 300, density=0.3),
    _disconnected,
], ids=["grid", "erdos-renyi-disconnected", "random-0.3", "small-disconnected"])
def test_sparse_difference_norms_bracket_the_dense_norm(make):
    """Within the dense limit, a sparse pair's difference norms come from
    ARPACK: the Ritz value (low) and Ritz value plus residual (high), each
    with the rounding allowance, hold max |eigvalsh| of the dense difference."""
    matrix = make()
    decomp = decompose(matrix)
    result = sparsify_laplacian(decomp, EPS, SEED)
    m_hat = result.matrix(decomp.center)
    spectra = PairSpectra(decomp, result, matrix_hat=m_hat)
    dense = {
        "matrix_diff_norm": matrix.to_dense() - m_hat.to_dense(),
        "laplacian_diff_norm": decomp.laplacian_dense() - result.laplacian_dense(),
        "adjacency_diff_norm": (decomp.adjacency - result.adjacency).toarray(),
    }
    for name, difference in dense.items():
        low, high = getattr(spectra, name)
        exact = float(np.abs(np.linalg.eigvalsh(difference)).max())
        assert spectra.paths[name] == "arpack", name
        assert low <= exact <= high, name
        assert high - low <= 1e-12 * exact, name


def _not_converged(operand, *args, **kwargs):
    raise ArpackNoConvergence("0 of 1", np.zeros(0), np.zeros((operand.shape[0], 0)))


def test_difference_norm_falls_back_to_dense_without_convergence(monkeypatch):
    matrix = generate_odn("erdos-renyi", 120, density=0.02, seed=5)
    decomp = decompose(matrix)
    m_hat = sparsify_laplacian(decomp, EPS, SEED).matrix(decomp.center)

    monkeypatch.setattr(spectra_module, "eigsh", _not_converged)
    spectra = PairSpectra(matrix=matrix, matrix_hat=m_hat)
    exact = float(np.abs(np.linalg.eigvalsh(matrix.to_dense() - m_hat.to_dense())).max())
    assert spectra.matrix_diff_norm == (exact, exact)
    assert spectra.paths == {"matrix_diff_norm": "dense"}


def test_norms_cap_restarts_within_the_limit_only(monkeypatch):
    """Every 2-norm's ARPACK solve gets _PENCIL_RESTARTS restarts within the
    dense limit and ARPACK's default above it."""
    calls = []

    def recording(operand, k, which, maxiter=None, _arpack=spectra_module._arpack):
        calls.append((k, which, maxiter))
        return _arpack(operand, k, which, maxiter)

    monkeypatch.setattr(spectra_module, "_arpack", recording)
    for limit, maxiter in ((100, None), (spectra_module.DENSE_LIMIT,
                                         spectra_module._PENCIL_RESTARTS)):
        spectra = _grid_pair(0)
        spectra.dense_limit = limit
        calls.clear()
        _pair_norms(spectra)
        assert calls == [(1, "LM", maxiter)] * 4
        assert set(spectra.paths.values()) == {"arpack"}


@pytest.mark.parametrize("role", ["laplacian_norm", "matrix_diff_norm",
                                  "laplacian_diff_norm", "adjacency_diff_norm"])
def test_norm_above_the_limit_without_convergence_names_its_role(role, monkeypatch):
    spectra = _grid_pair(0)
    monkeypatch.setattr(spectra_module, "_arpack", _not_converged)
    with pytest.raises(NormNotConvergedError) as caught:
        getattr(spectra, role)
    assert caught.value.role == role
    assert f"ARPACK did not converge on {role} (n=2000)" in str(caught.value)


def test_cli_norm_without_convergence_is_one_error_line(monkeypatch, capsys):
    """rho(L) above --dense-limit with no convergence: exit code 1 and one
    `error:` line, no traceback."""
    monkeypatch.setattr(spectra_module, "_arpack", _not_converged)
    assert main(["bounds", "--gen", "complete:n=30,seed=1", "--dense-limit", "10"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: ARPACK did not converge on laplacian_norm (n=30); above the dense "
        "limit 10 no dense solve takes over"]
    assert "Traceback" not in err


def test_verify_pipeline_memory():
    """The whole verify pipeline on complete n = 300, library calls in the
    CLI's order: the traced peak and what the pair keeps afterwards, in units
    of one n x n array."""
    n = 300
    matrix = generate_odn("complete", n, seed=3, diag=("uniform", 0, 1))
    decomp = decompose(matrix)
    m_hat = sparsify_laplacian(decomp, EPS, SEED).matrix(decomp.center)
    del decomp
    tracemalloc.start()
    try:
        spectra = PairSpectra(decompose(matrix), decompose(m_hat))
        record = verify_sparsifier(spectra, epsilon=EPS)
        assert sparsifier_norm_check(spectra, epsilon=EPS,
                                     sparsifier_ok=record.passed).passed
        assert adjacency_norm_check(spectra).passed
        assert spectral_report(spectra, epsilon=EPS).passed
        assert weyl_check(spectra).passed
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.passed and record.mode == "exact"
    # Measured: 5.0 and 2.0; 6.2 and 4.0 with L and L_hat held through the report.
    assert peak <= 11 * n * n * 8
    assert retained <= 5 * n * n * 8


def test_difference_norm_of_a_csr_with_duplicate_entries():
    """A raw CSR Laplacian may store one entry in several parts: they are
    summed before it is subtracted."""
    lap = decompose(_disconnected()).laplacian_dense()
    coo = sp.coo_matrix(lap)
    # Every entry stored twice, as two halves, in one row-sorted CSR.
    order = np.argsort(np.tile(coo.row, 2), kind="stable")
    rows = np.tile(coo.row, 2)[order]
    halves = sp.csr_matrix((np.tile(coo.data / 2, 2)[order], np.tile(coo.col, 2)[order],
                            np.searchsorted(rows, np.arange(lap.shape[0] + 1))),
                           shape=lap.shape)
    assert not halves.has_canonical_format
    other = 1.5 * lap
    expected = float(np.abs(np.linalg.eigvalsh(other - lap)).max())
    got = sparsifier_norm_check(other, halves, EPS).norm_diff
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    assert not halves.has_canonical_format  # the caller's matrix is left as it was


def _verify_verdicts(spectra):
    """The verdicts of the verify command on a pair, in its order."""
    record = verify_sparsifier(spectra, epsilon=EPS)
    lap_status = sparsifier_norm_check(spectra, epsilon=EPS, sparsifier_ok=record.passed).status
    adjacency = adjacency_norm_check(spectra).passed
    report = spectral_report(spectra, epsilon=EPS)
    return (record.passed, lap_status, adjacency, weyl_check(spectra).passed,
            report.eigenvalue_bound_passed, report.angles_passed)


def _norm_rule_pairs():
    """(id, M, M_hat) over n = 1..60, each M with its sparsifier and with a
    copy whose weights are scaled by 0.5..1.5 (a pencil that may fail): dense
    and sparse sides, n <= 3, disconnected graphs, zero diagonals, bipartite
    grids, whose adjacency differences have +-lambda spectra, and a few
    pairs with a zero difference."""
    rng = np.random.default_rng(21)
    cases = [(f"n{n}-{density}", random_odn(rng, n, density))
             for n in (1, 2, 3) for density in (0.5, 1.0)]
    cases += [(f"n{n}-{density}", random_odn(rng, n, density))
              for n, density in ((8, 0.1), (15, 1.0), (24, 0.9), (30, 0.05), (37, 0.3),
                                 (45, 0.7), (52, 0.15), (60, 1.0), (60, 0.5))]
    cases += [("zero-diagonal-dense", random_odn(rng, 20, 1.0, 0.0, 0.0)),
              ("zero-diagonal-sparse", random_odn(rng, 40, 0.2, 0.0, 0.0)),
              ("disconnected", _disconnected()),
              ("isolated-vertex", complete_with_isolated_vertex(30)),
              ("grid-6x10", generate_odn("grid", rows=6, cols=10, seed=3)),
              ("grid-5x5", generate_odn("grid", rows=5, cols=5, seed=1,
                                        diag=("uniform", 0, 1)))]
    pairs = []
    for name, m in cases:
        decomp = decompose(m)
        scaled = m.vals * rng.uniform(0.5, 1.5, len(m.vals))
        pairs += [(f"{name}-sparsifier", m,
                   sparsify_laplacian(decomp, EPS, SEED).matrix(decomp.center)),
                  (f"{name}-scaled", m, OdnMatrix(m.n, m.rows, m.cols, scaled, m.diag))]
    pairs += [(f"{name}-same", m, m) for name, m in cases[::4]]
    return pairs


NORM_RULE_PAIRS = _norm_rule_pairs()


@pytest.mark.parametrize("matrix,m_hat", [pair[1:] for pair in NORM_RULE_PAIRS],
                         ids=[pair[0] for pair in NORM_RULE_PAIRS])
def test_every_norm_bracket_holds_the_dense_norm(matrix, m_hat):
    """Each difference role's (low, high) holds max |eigvalsh| of the dense
    difference and rho(L) is at least max |eigvalsh(L)|; every verdict of
    the verify command equals the one the exact norms give, as a dense
    `eigvalsh` of each difference did before ARPACK solved them all."""
    spectra, exact = (PairSpectra(decompose(matrix), decompose(m_hat)) for _ in range(2))
    base, hat = exact.base, exact.hat

    def dense_norm(x):
        return float(np.abs(np.linalg.eigvalsh(x)).max(initial=0.0))

    norms = {
        "matrix_diff_norm": dense_norm(matrix.to_dense() - m_hat.to_dense()),
        "laplacian_diff_norm": dense_norm(base.laplacian_dense() - hat.laplacian_dense()),
        "adjacency_diff_norm": dense_norm((base.adjacency - hat.adjacency).toarray()),
    }
    rho = dense_norm(base.laplacian_dense())
    exact.__dict__.update({name: (norm, norm) for name, norm in norms.items()},
                          laplacian_norm=rho)
    assert _verify_verdicts(spectra) == _verify_verdicts(exact)
    for name, norm in norms.items():
        low, high = getattr(spectra, name)
        assert low <= norm <= high, name
        assert high - low <= 1e-12 * norm, name
    assert rho <= spectra.laplacian_norm <= rho * (1 + 1e-12)
