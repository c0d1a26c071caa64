"""Acceptance suite: every certified bound checked at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s or on failure). The heavy shared work (five generator models,
two epsilon values, twenty sparsifier seeds each) is computed once in a
module-scoped fixture; eigenvalue oracles are direct numpy eigensolves,
independent of the library's report paths.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import odnsparse as od
from odnsparse.report import dumps_report, strip_timings

from conftest import random_odn, random_symmetric

EPSILONS = (0.1, 0.25)
SEEDS = tuple(range(20))

MODEL_SPECS = {
    "complete-50": dict(model="complete", n=50, seed=101, diag=("uniform", 0.0, 1.0)),
    "erdos-renyi-200": dict(
        model="erdos-renyi", n=200, density=0.2, seed=202, diag=("uniform", 0.0, 1.0)
    ),
    "path-100": dict(model="path", n=100, seed=303, diag=("uniform", 0.0, 1.0)),
    "grid-10x10": dict(
        model="grid", rows=10, cols=10, seed=404, diag=("uniform", 0.0, 1.0)
    ),
    "equicorrelation-20": dict(model="equicorrelation", n=20, correlation=0.5),
}


def _criterion(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@dataclass
class RunRecord:
    model: str
    epsilon: float
    seed: int
    n: int
    stored_pairs: int
    verify_passed: bool
    gen_min: float
    gen_max: float
    probe_min: float
    probe_max: float
    ratio_passed: bool
    max_deviation: float
    bound: float
    norm_diff: float
    eps_rho: float
    samples: int
    distinct_edges: int
    nnz_after: int


@dataclass
class ModelData:
    matrix: od.OdnMatrix
    decomp: od.LaplacianDecomposition
    rho: float
    foster_sum: float
    components: int


@pytest.fixture(scope="module")
def models():
    out = {}
    for name, spec in MODEL_SPECS.items():
        matrix = od.generate_odn(**spec)
        decomp = od.decompose(matrix)
        lap = decomp.laplacian_dense()
        rho = float(np.abs(np.linalg.eigvalsh(lap)).max())
        resistance, _ = od.effective_resistances(decomp)
        foster = (matrix.vals * resistance).sum()
        out[name] = ModelData(
            matrix=matrix,
            decomp=decomp,
            rho=rho,
            foster_sum=float(foster),
            components=decomp.components[0],
        )
    return out


@pytest.fixture(scope="module")
def runs(models):
    records = []
    for name, data in models.items():
        matrix, decomp, rho = data.matrix, data.decomp, data.rho
        dense = matrix.to_dense()
        lam = np.linalg.eigvalsh(dense)[::-1]
        lap = decomp.laplacian_dense()
        spread = (decomp.delta_max - decomp.delta_min) / 2.0
        for epsilon in EPSILONS:
            bound = epsilon * math.sqrt(matrix.n) * rho + spread
            for seed in SEEDS:
                res = od.sparsify_laplacian(decomp, epsilon, seed=seed)
                ver = od.verify_sparsifier(
                    decomp.laplacian, res.laplacian, epsilon, probes=1000, seed=seed
                )
                ratio = od.eigenvalue_ratio_check(
                    decomp.laplacian, res.laplacian, epsilon
                )
                m_hat = od.reconstruct(res.adjacency, decomp.center)
                lam_hat = np.linalg.eigvalsh(m_hat.to_dense())[::-1]
                norm_diff = float(
                    np.abs(np.linalg.eigvalsh(lap - res.laplacian.toarray())).max()
                )
                records.append(
                    RunRecord(
                        model=name,
                        epsilon=epsilon,
                        seed=seed,
                        n=matrix.n,
                        stored_pairs=matrix.stored_pairs,
                        verify_passed=ver.passed,
                        gen_min=ver.gen_min,
                        gen_max=ver.gen_max,
                        probe_min=ver.probe_min,
                        probe_max=ver.probe_max,
                        ratio_passed=ratio.passed,
                        max_deviation=float(np.abs(lam - lam_hat).max()),
                        bound=bound,
                        norm_diff=norm_diff,
                        eps_rho=epsilon * rho,
                        samples=res.samples_drawn,
                        distinct_edges=res.distinct_edges,
                        nnz_after=res.nnz_after,
                    )
                )
    return records


def test_criterion_01_eigenvalue_deviation_end_to_end(runs):
    failures = []
    for model in MODEL_SPECS:
        for epsilon in EPSILONS:
            group = [r for r in runs if r.model == model and r.epsilon == epsilon]
            assert len(group) == len(SEEDS)
            passing = [r for r in group if r.verify_passed]
            if len(passing) < 19:
                failures.append(f"{model} eps={epsilon}: only {len(passing)}/20 verified")
            for r in passing:
                if r.max_deviation > r.bound * (1 + 1e-9):
                    failures.append(
                        f"{model} eps={epsilon} seed={r.seed}: "
                        f"dev {r.max_deviation} > bound {r.bound}"
                    )
    worst = max(r.max_deviation / r.bound for r in runs if r.verify_passed)
    _criterion(
        "criterion 1 (deviation bound end-to-end)",
        not failures,
        failures[0] if failures else f"worst deviation/bound = {worst:.3g} over {len(runs)} runs",
    )


def test_criterion_02_sparsifier_quadratic_form_corridor(runs):
    failures = []
    for r in runs:
        if not r.verify_passed:
            continue
        if r.gen_min < 1 - r.epsilon - 1e-9 or r.gen_max > 1 + r.epsilon + 1e-9:
            failures.append(f"{r.model} eps={r.epsilon} seed={r.seed}: extremes")
        if r.probe_min < r.gen_min - 1e-9 or r.probe_max > r.gen_max + 1e-9:
            failures.append(f"{r.model} eps={r.epsilon} seed={r.seed}: probes exit")
    _criterion(
        "criterion 2 (quadratic-form corridor + probes)",
        not failures,
        failures[0] if failures else "1000 probes inside exact extremes on every passing run",
    )


def test_criterion_03_eigenvalue_ratio_corollary(runs):
    bad = [r for r in runs if r.verify_passed and not r.ratio_passed]
    _criterion(
        "criterion 3 (eigenvalue ratio corollary)",
        not bad,
        f"{len(bad)} passing runs violated" if bad else "all sorted ratios within (1 +- eps)",
    )


def test_criterion_04_laplacian_norm_bound(runs):
    bad = [
        r for r in runs
        if r.verify_passed and r.norm_diff > r.eps_rho * (1 + 1e-9)
    ]
    worst = max(
        (r.norm_diff / r.eps_rho for r in runs if r.verify_passed), default=0.0
    )
    _criterion(
        "criterion 4 (||L - L_hat|| <= eps rho(L))",
        not bad,
        f"worst ratio {worst:.3g}",
    )


def _block_diagonal(a: od.OdnMatrix, b: od.OdnMatrix) -> od.OdnMatrix:
    rows = np.concatenate([a.rows, b.rows + a.n])
    cols = np.concatenate([a.cols, b.cols + a.n])
    vals = np.concatenate([a.vals, b.vals])
    return od.OdnMatrix(a.n + b.n, rows, cols, vals, np.concatenate([a.diag, b.diag]))


def test_criterion_05_adjacency_norm_inequality():
    rng = np.random.default_rng(550)
    checked = 0
    for n in (5, 20, 50):
        for k in range(100):
            if k % 10 == 0 and n > 5:
                half = n // 2
                g = od.decompose(
                    _block_diagonal(
                        random_odn(rng, half, density=0.6),
                        random_odn(rng, n - half, density=0.6),
                    )
                )
            else:
                g = od.decompose(random_odn(rng, n, density=float(rng.uniform(0.05, 0.9))))
            h = od.decompose(random_odn(rng, n, density=float(rng.uniform(0.05, 0.9))))
            check = od.adjacency_norm_check(g, h)
            assert check.passed, f"n={n} pair {k}: {check.lhs} > {check.rhs}"
            checked += 1
    _criterion("criterion 5 (adjacency vs laplacian norms)", checked == 300,
               f"{checked} random graph pairs, zero violations")


def test_criterion_06_weyl_property_suite():
    rng = np.random.default_rng(660)
    checked = 0
    for n in (5, 20, 50):
        for _ in range(100):
            a = random_symmetric(rng, n)
            b = random_symmetric(rng, n)
            assert od.weyl_check(a, b).passed
            checked += 1
    _criterion("criterion 6 (Weyl bound suite)", checked == 300,
               f"{checked} random symmetric pairs, zero violations")


def test_criterion_07_angle_bound_two_by_two_family():
    a = np.diag([2.0, 1.0])
    a_sys = od.eigen_decompose(a)
    details = []
    for delta in (0.001, 0.01, 0.1):
        b = np.array([[2.0, delta], [delta, 1.0]])
        b_sys = od.eigen_decompose(b)
        r_norm = float(np.abs(np.linalg.eigvalsh(b - a)).max())
        angle = od.davis_kahan(a_sys, b_sys, r_norm)[0]
        exact = math.sin(0.5 * math.atan2(2.0 * delta, 1.0))
        assert angle.bound is not None
        assert angle.sin_theta <= angle.bound, f"delta={delta}"
        assert abs(angle.sin_theta - exact) <= 1e-6, f"delta={delta}"
        details.append(f"d={delta}: sin={angle.sin_theta:.2e} <= {angle.bound:.2e}")
    _criterion("criterion 7 (angle bound, 2x2 family)", True, "; ".join(details))


def test_criterion_08_edge_budget_and_compression(runs):
    over = [
        r for r in runs
        if r.nnz_after > 2 * math.ceil(9.0 * r.n * math.log(r.n) / r.epsilon**2) + r.n
    ]
    assert not over

    big = od.generate_odn("complete", 200, seed=808, diag=1.0)
    decomp = od.decompose(big)
    compressed = True
    details = []
    for seed in range(3):
        res = od.sparsify_laplacian(decomp, 0.25, seed=seed)
        m_hat = od.reconstruct(res.adjacency, decomp.center)
        if not res.nnz_after < big.nnz:
            compressed = False
        assert res.nnz_after == m_hat.nnz  # diagonal is d=1 everywhere
        details.append(f"seed {seed}: {big.nnz} -> {res.nnz_after}")
    _criterion(
        "criterion 8 (edge budget + compression at n=200)",
        not over and compressed,
        "; ".join(details),
    )


def test_criterion_09_resistance_sum_identity(models):
    failures = []
    details = []
    for name, data in models.items():
        expected = data.matrix.n - data.components
        err = abs(data.foster_sum - expected)
        details.append(f"{name}: |{data.foster_sum:.10f} - {expected}| = {err:.1e}")
        if err > 1e-8:
            failures.append(name)
    # deliberately disconnected input
    rng = np.random.default_rng(990)
    disconnected = _block_diagonal(
        random_odn(rng, 12, density=0.7), random_odn(rng, 9, density=0.7)
    )
    d = od.decompose(disconnected)
    comp = d.components[0]
    resistance, _ = od.effective_resistances(d)
    foster = (disconnected.vals * resistance).sum()
    err = abs(foster - (disconnected.n - comp))
    details.append(f"disconnected ({comp} components): err = {err:.1e}")
    if err > 1e-8:
        failures.append("disconnected")
    _criterion("criterion 9 (weighted resistance sum = n - c)", not failures,
               "; ".join(details))


def test_criterion_10_diagonal_exactness():
    matrix = od.validate_odn(np.diag([0.0, 10.0]))
    decomp = od.decompose(matrix)
    for epsilon in (0.05, 0.1, 0.25, 0.5, 0.99):
        res = od.sparsify_laplacian(decomp, epsilon, seed=0)
        m_hat = od.reconstruct(res.adjacency, decomp.center)
        rep = od.spectral_report(matrix, m_hat, epsilon)
        assert np.all(np.abs(rep.deviations - 5.0) <= 1e-12), f"eps={epsilon}"
        assert abs(rep.bound - 5.0) <= 1e-12, f"eps={epsilon}"
        assert abs(rep.max_deviation - rep.bound) <= 1e-12
    _criterion("criterion 10 (diagonal input exactness)", True,
               "deviations = bound = 5 at 1e-12 for all epsilon")


def test_criterion_11_pca_variance_bounds():
    eq = od.generate_odn("equicorrelation", 20, correlation=0.5)
    lam = np.linalg.eigvalsh(eq.to_dense())[::-1]
    np.testing.assert_allclose(lam[0], 10.5, rtol=1e-12)
    np.testing.assert_allclose(lam[1:], 0.5, rtol=1e-12)

    rng = np.random.default_rng(111)
    data = np.outer(rng.standard_normal(300), rng.uniform(0.4, 1.0, 12))
    data += 0.35 * rng.standard_normal((300, 12))
    corr = od.correlation_from_data(data)

    details = []
    verified = 0
    total = 0
    for matrix, label in ((eq, "equicorrelation-20"), (corr, "factor-12")):
        timings = None
        for epsilon in EPSILONS:
            for seed in range(5):
                cmp = od.pca_compare(matrix, epsilon, 3, seed=seed)
                total += 1
                if cmp.verification.passed:
                    verified += 1
                    assert cmp.status == "pass", (
                        f"{label} eps={epsilon} seed={seed}: gaps {cmp.gaps} "
                        f"exceed bound {cmp.per_component_bound}"
                    )
                    assert abs(cmp.cumulative - cmp.cumulative_hat) <= (
                        cmp.cumulative_bound_literal + 1e-9
                    )
                timings = cmp
        details.append(
            f"{label}: dense {timings.dense_seconds * 1e3:.2f} ms, "
            f"iterative top-3 {timings.iterative_seconds * 1e3:.2f} ms"
        )
    assert verified >= total - 1, f"only {verified}/{total} runs verified"
    _criterion("criterion 11 (PCA variance bounds)", True,
               f"{verified}/{total} verified; " + "; ".join(details))


def test_criterion_12_report_determinism(tmp_path):
    argv = [
        sys.executable, "-m", "odnsparse.cli", "sparsify",
        "--gen", "erdos-renyi:n=60,density=0.3,seed=5,diag=uniform(0,1)",
        "--epsilon", "0.2", "--seed", "9",
    ]
    # The child imports the same odnsparse as this process, installed or not.
    source = os.path.dirname(os.path.dirname(od.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        proc = subprocess.run(
            argv + ["--out-report", str(out)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        paths.append(out)
    first, second = (json.loads(p.read_text()) for p in paths)
    identical = dumps_report(strip_timings(first)) == dumps_report(strip_timings(second))
    _criterion("criterion 12 (report determinism)", identical,
               "byte-identical modulo the timings subtree")


def test_criterion_13_unbiased_adjacency():
    matrix = od.generate_odn("erdos-renyi", 20, density=0.5, seed=77)
    decomp = od.decompose(matrix)
    target = decomp.adjacency.toarray()
    total = np.zeros_like(target)
    seeds = 200
    for seed in range(seeds):
        total += od.sparsify_laplacian(decomp, 0.25, seed=seed).adjacency.toarray()
    mean = total / seeds
    rel = np.linalg.norm(mean - target) / np.linalg.norm(target)
    _criterion("criterion 13 (sampling unbiasedness)", rel <= 3.0 / math.sqrt(seeds),
               f"relative Frobenius error {rel:.4f} <= {3.0 / math.sqrt(seeds):.4f}")
