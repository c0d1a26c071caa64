import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odnsparse import (
    decompose,
    generate_odn,
    pca_compare,
    reconstruct,
    sparsify_laplacian,
    spectral_report,
    verify_sparsifier,
    write_matrix_market,
)
from odnsparse.cli import main
from odnsparse.report import (
    SCHEMA_VERSION,
    dumps_report,
    pca_to_dict,
    sparsifier_to_dict,
    spectral_to_dict,
    strip_timings,
    validate_report,
    verification_to_dict,
    write_pca_csv,
    write_report,
    write_spectral_csv,
)


@pytest.fixture(scope="module")
def pipeline():
    m = generate_odn("erdos-renyi", 15, density=0.5, seed=3, diag=("uniform", 0, 1))
    d = decompose(m)
    res = sparsify_laplacian(d, 0.25, seed=5)
    m_hat = reconstruct(res.adjacency, d.center)
    return m, d, res, m_hat


def build_full_report(m, d, res, m_hat):
    ver = verify_sparsifier(d.laplacian, res.laplacian, 0.25)
    spect = spectral_report(m, m_hat, 0.25)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "odnsparse", "version": "0.1.0"},
        "input": {
            "source": "generator:test",
            "n": m.n,
            "stored_pairs": m.stored_pairs,
            "nnz_offdiag": m.nnz_offdiag,
            "nnz": m.nnz,
        },
        "parameters": {
            "epsilon": 0.25,
            "constant": 9.0,
            "seed": 5,
            "dense_limit": 4096,
            "resistance_mode": "exact",
            "epsilon_above_small_regime": True,
        },
        "sparsifier": sparsifier_to_dict(res),
        "verification": verification_to_dict(ver),
        "spectral": spectral_to_dict(spect),
        "checks": {"all_passed": True, "failures": []},
        "timings": {"started_at": "2025-01-01T00:00:00+00:00", "stages": {}},
    }


def build_pca_report():
    m = generate_odn("equicorrelation", 10, correlation=0.4)
    cmp = pca_compare(m, 0.25, 2, seed=1)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "odnsparse", "version": "0.1.0"},
        "input": {"source": "file:x.csv", "n": 10},
        "parameters": {"epsilon": 0.25, "components": 2},
        "applications": {"pca": pca_to_dict(cmp)},
        "checks": {"all_passed": True, "failures": []},
        "timings": {},
    }


class TestSchema:
    def test_full_report_validates(self, pipeline):
        validate_report(build_full_report(*pipeline))

    def test_pca_report_validates(self):
        validate_report(build_pca_report())

    def test_bad_report_rejected(self, pipeline):
        report = build_full_report(*pipeline)
        report["sparsifier"]["distinct_edges"] = "many"
        with pytest.raises(Exception):
            validate_report(report)

    def test_unknown_top_level_key_rejected(self, pipeline):
        report = build_full_report(*pipeline)
        report["surprise"] = 1
        with pytest.raises(Exception):
            validate_report(report)

    @pytest.mark.parametrize("section,key,value", [
        ("verification", "probes", 1000),
        ("verification", "seed", 7),
        ("verification", "probe_min", 0.99),
        ("verification", "probe_max", 1.01),
        ("verification", "mode", "probes-only"),
        ("parameters", "probes", 1000),
        ("applications", "quadform", {"records": []}),
        ("parameters", "resistance_mode", "approximate"),
        ("eigenvalue_ratios", "passed", True),
    ], ids=["probes", "seed", "probe_min", "probe_max", "probes-only", "parameters.probes",
            "quadform", "approximate", "eigenvalue_ratios"])
    def test_version_1_probe_fields_rejected(self, pipeline, section, key, value):
        """Schema 7.0 rejects the removed fields: the Rayleigh probes, the
        quadratic-form application, the approximate resistance mode and the
        eigenvalue-ratio section."""
        import jsonschema

        assert SCHEMA_VERSION == "7.0"
        report = build_full_report(*pipeline)
        validate_report(report)
        report.setdefault(section, {})[key] = value
        with pytest.raises(jsonschema.ValidationError):
            validate_report(report)


class TestSchemaFour:
    def test_null_angles_and_vacuous_count(self, pipeline):
        """Schema 4.0: sin_theta is null exactly where it was not solved, and
        `vacuous_angles` counts those pairs; the count is required."""
        import jsonschema

        report = build_full_report(*pipeline)
        validate_report(report)
        spectral = report["spectral"]
        nulls = [pair["sin_theta"] is None for pair in spectral["pairs"]]
        assert spectral["vacuous_angles"] == sum(nulls) > 0
        for pair in spectral["pairs"]:
            if pair["sin_theta"] is None:
                assert pair["dk_passed"]
                assert pair["dk_bound"] is None or pair["dk_bound"] >= 1.0
        del spectral["vacuous_angles"]
        with pytest.raises(jsonschema.ValidationError):
            validate_report(report)


class TestSchemaFive:
    def test_eps_hat(self, pipeline):
        """Schema 5.0: `verification.eps_hat` is the epsilon the exact pencil
        achieved, max(1 - gen_min, gen_max - 1), and null in the trivial-zero
        mode."""
        report = build_full_report(*pipeline)
        validate_report(report)
        ver = report["verification"]
        assert ver["mode"] == "exact"
        assert ver["eps_hat"] == max(1.0 - ver["gen_min"], ver["gen_max"] - 1.0)
        zero = verification_to_dict(verify_sparsifier(np.zeros((3, 3)), np.zeros((3, 3)), 0.25))
        assert zero["mode"] == "trivial-zero" and zero["eps_hat"] is None
        report["verification"] = zero
        validate_report(report)


class TestSchemaSeven:
    def test_iterative_converged_rejected(self):
        """Schema 7.0 drops the PCA section's `iterative_converged`: both
        sides' variances come from the pair's values solves, not from ARPACK.
        A report that carries it does not validate."""
        import jsonschema

        report = build_pca_report()
        pca = report["applications"]["pca"]
        assert "iterative_converged" not in pca
        validate_report(report)
        pca["iterative_converged"] = True
        with pytest.raises(jsonschema.ValidationError):
            validate_report(report)


class TestRecordKeys:
    """A record serializes its own fields: the key sets are pinned here, so
    that a field added to a record is a schema change made on purpose."""

    def test_verification_keys(self, pipeline):
        _, d, res, _ = pipeline
        for record in (verify_sparsifier(d.laplacian, res.laplacian, 0.25),
                       verify_sparsifier(np.zeros((3, 3)), np.zeros((3, 3)), 0.25)):
            assert set(verification_to_dict(record)) == {
                "n", "epsilon", "gen_min", "gen_max", "eps_hat", "kernel_leak", "passed",
                "mode"}


class TestSchemaSix:
    # Schema 5.1's `norm_checks` section as `verify` wrote it.
    NORM_CHECKS = {
        "laplacian": {"norm_diff": 0.5, "bound": 1.0, "status": "pass", "passed": True},
        "adjacency": {"lhs": 0.4, "rhs": 2.0, "passed": True},
        "weyl": {"max_deviation": 0.3, "norm": 0.5, "passed": True},
    }

    def test_norm_checks_rejected(self, pipeline):
        """Schema 6.0 drops 5.1's `norm_checks`: a report that carries it,
        even null, does not validate."""
        import jsonschema

        report = build_full_report(*pipeline)
        validate_report(report)
        for section in (self.NORM_CHECKS, None):
            report["norm_checks"] = section
            with pytest.raises(jsonschema.ValidationError):
                validate_report(report)

    def test_verify_report_holds_its_certificates_only(self, pipeline, tmp_path, capsys):
        """`verify` reports the sections and the verdicts `sparsify` reports
        for a pair, and a pair that fails the pencil fails
        `sparsifier-inequality`, with exit code 2."""
        m, d, _, m_hat = pipeline
        paths = {name: tmp_path / f"{name}.mtx" for name in ("m", "m_hat", "double")}
        write_matrix_market(m, paths["m"])
        write_matrix_market(m_hat, paths["m_hat"])
        write_matrix_market(reconstruct(2.0 * d.adjacency, d.center), paths["double"])
        report_path = tmp_path / "r.json"
        for other, code, failures in (("m_hat", 0, []),
                                      ("double", 2, ["sparsifier-inequality"])):
            assert main(["verify", str(paths["m"]), str(paths[other]),
                         "--out-report", str(report_path)]) == code
            report = json.loads(report_path.read_text())
            validate_report(report)
            assert set(report) == {"schema_version", "tool", "input", "parameters",
                                   "verification", "spectral", "checks", "timings"}
            assert report["checks"]["failures"] == failures
        capsys.readouterr()


class TestSerialization:
    def test_no_nan_allowed(self):
        with pytest.raises(ValueError):
            dumps_report({"x": float("nan")})

    def test_deterministic_dump(self, pipeline):
        a = dumps_report(build_full_report(*pipeline))
        b = dumps_report(build_full_report(*pipeline))
        assert a == b

    def test_strip_timings(self):
        report = {"a": 1, "timings": {"x": 2}}
        stripped = strip_timings(report)
        assert "timings" not in stripped
        assert "timings" in report  # original untouched

    def test_write_report(self, tmp_path, pipeline):
        path = tmp_path / "r.json"
        report = build_full_report(*pipeline)
        write_report(report, path)
        assert json.loads(path.read_text()) == report


def _json_dumps(report) -> str:
    """The reference text `dumps_report` must equal byte for byte."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


# Keys and strings with newlines, quotes, the text of a record boundary and
# non-ASCII characters; scalars with JSON's edge floats and ints past 64 bits.
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(
    ["\n", '"', "},", "},\n  {", '"a": 1,', "\u00e9t\u00e9", "\u65e5\u672c", "\\", ""]))
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 2.0 ** 53 + 1]), _TEXT)
_RECORDS = st.lists(st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=5),
                    min_size=1, max_size=5)
_TREES = st.recursive(
    st.one_of(_SCALAR, _RECORDS, st.just([]), st.just({})),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=25)


class TestReportWriter:
    """`dumps_report` writes lists of flat records with json's C encoder and
    must still give `json.dumps(..., indent=2, sort_keys=True,
    allow_nan=False)`'s bytes."""

    @given(_TREES)
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, tree):
        assert dumps_report(tree) == _json_dumps(tree)

    @given(_TREES, st.sampled_from([float("nan"), float("inf"), float("-inf")]),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_floats_raise_as_in_json(self, tree, bad, in_records):
        report = {"tree": tree, "bad": [{"value": bad}] if in_records else [bad]}
        with pytest.raises(ValueError):
            json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(ValueError):
            dumps_report(report)

    def test_records_of_other_containers_and_keys(self):
        """Lists that are not records (a nested value, an empty record, a
        non-str key) and a tuple go json's own way, with the same bytes."""
        for tree in ([{"a": [1]}], [{"a": 1}, {}], [{"a": 1}, 2], {"x": {1: [{"a": 2}]}},
                     ({"a": 1.5}, {"b": None}), [{"a": np.float64(0.1), "b": True}]):
            assert dumps_report(tree) == _json_dumps(tree)

    @pytest.mark.parametrize("argv", [
        ["sparsify", "--gen", "grid:rows=30,cols=30,diag=uniform(0,1)"],
        ["sparsify", "--gen", "complete:n=40,seed=2"],
        ["pca-demo", "--components", "3"],
    ], ids=["grid", "complete", "pca"])
    def test_cli_reports_equal_json_dumps(self, argv, tmp_path, capsys):
        if argv[0] == "pca-demo":
            rng = np.random.default_rng(4)
            data = rng.standard_normal((80, 1)) + 0.5 * rng.standard_normal((80, 6))
            np.savetxt(tmp_path / "d.csv", data, delimiter=",", comments="",
                       header=",".join(f"c{k}" for k in range(6)))
            argv = argv + ["--input", str(tmp_path / "d.csv")]
        path = tmp_path / "r.json"
        assert main(argv + ["--out-report", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert text == _json_dumps(json.loads(text))


class TestCsv:
    def test_spectral_csv(self, tmp_path, pipeline):
        m, d, res, m_hat = pipeline
        spect = spectral_report(m, m_hat, 0.25)
        path = tmp_path / "s.csv"
        write_spectral_csv(spect, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "lambda", "lambda_hat", "deviation", "sin_theta", "dk_bound"]
        assert len(rows) == m.n + 1
        assert float(rows[1][1]) == spect.values[0]
        bounds = {row[5] for row in rows[1:]}
        assert all(b == "undefined" or float(b) >= 0 for b in bounds)

    def test_null_angles_write_empty_cells(self, tmp_path):
        """An unsolved (vacuous or undefined) angle is an empty sin_theta cell,
        a solved one its repr."""
        m = generate_odn("complete", 60, seed=4, diag=("uniform", 0, 1))
        d = decompose(m)
        spect = spectral_report(m, sparsify_laplacian(d, 0.25, seed=7).matrix(d.center), 0.25)
        assert 0 < spect.vacuous_angles < m.n
        path = tmp_path / "s.csv"
        write_spectral_csv(spect, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        assert "None" not in path.read_text()
        for row, angle in zip(rows, spect.angles):
            if angle.sin_theta is None:
                assert row[4] == ""
            else:
                assert float(row[4]) == angle.sin_theta
        assert sum(row[4] == "" for row in rows) == spect.vacuous_angles

    def test_pca_csv(self, tmp_path):
        m = generate_odn("equicorrelation", 8, correlation=0.3)
        cmp = pca_compare(m, 0.25, 2, seed=4)
        path = tmp_path / "p.csv"
        write_pca_csv(cmp, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "variance", "variance_hat", "gap", "bound"]
        assert len(rows) == 3
        np.testing.assert_allclose(float(rows[1][1]), cmp.variances[0])
