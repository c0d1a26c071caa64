import json

import numpy as np
import pytest

from odnsparse import OdnMatrix, read_matrix_market, write_matrix_market
from odnsparse.cli import main
from odnsparse.report import validate_report


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k5_path(tmp_path):
    from odnsparse import generate_odn

    path = tmp_path / "k5.mtx"
    write_matrix_market(
        generate_odn("complete", 5, weight=1.0, diag=1.0), path
    )
    return path


class TestSparsify:
    def test_generated_input_passes(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        matrix_path = tmp_path / "m.mtx"
        code, out, err = run(
            [
                "sparsify",
                "--gen", "complete:n=50,seed=7,diag=uniform(0,1)",
                "--epsilon", "0.25",
                "--seed", "7",
                "--out-report", str(report_path),
                "--out-matrix", str(matrix_path),
                "--out-csv", str(tmp_path / "s.csv"),
            ],
            capsys,
        )
        assert code == 0
        assert "PASS" in out
        report = json.loads(report_path.read_text())
        validate_report(report)
        assert report["checks"]["all_passed"]
        assert report["sparsifier"]["nnz_after"] < report["input"]["nnz"]
        m_hat = read_matrix_market(matrix_path)
        assert m_hat.n == 50

    def test_diagonal_input(self, tmp_path, capsys):
        path = tmp_path / "d.mtx"
        write_matrix_market(
            OdnMatrix(2, [], [], [], np.array([0.0, 10.0])), path
        )
        report_path = tmp_path / "r.json"
        code, out, _ = run(
            ["sparsify", "--input", str(path), "--out-report", str(report_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        devs = [p["deviation"] for p in report["spectral"]["pairs"]]
        assert devs == [5.0, 5.0]
        assert report["spectral"]["bound"] == 5.0

    def test_invalid_epsilon_exits_one(self, capsys):
        code, _, err = run(
            ["sparsify", "--gen", "complete:n=10", "--epsilon", "1.5"], capsys
        )
        assert code == 1
        assert "epsilon" in err

    def test_missing_input_exits_one(self, capsys):
        code, _, _ = run(["sparsify", "--input", "/nonexistent.mtx"], capsys)
        assert code == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sparsify"])  # neither --input nor --gen
        assert exc.value.code == 1

    def test_regime_warning(self, capsys):
        code, _, err = run(["bounds", "--gen", "complete:n=5", "--epsilon", "0.25"], capsys)
        assert code == 0
        assert "1/120" in err
        code, _, err = run(["bounds", "--gen", "complete:n=5", "--epsilon", "0.008"], capsys)
        assert code == 0
        assert err == ""


class TestVerify:
    def test_identical_pass(self, k5_path, capsys):
        code, out, _ = run(
            ["verify", str(k5_path), str(k5_path), "--epsilon", "0.1"], capsys
        )
        assert code == 0
        assert "PASS" in out

    def test_scaled_fails(self, k5_path, tmp_path, capsys):
        m = read_matrix_market(k5_path)
        doubled = OdnMatrix(m.n, m.rows, m.cols, 2 * m.vals, 2 * m.diag)
        doubled_path = tmp_path / "k5x2.mtx"
        write_matrix_market(doubled, doubled_path)
        code, out, _ = run(
            ["verify", str(k5_path), str(doubled_path), "--epsilon", "0.5"], capsys
        )
        assert code == 2
        assert "FAIL" in out

    def test_pipeline_output_passes(self, k5_path, tmp_path, capsys):
        m_hat_path = tmp_path / "k5hat.mtx"
        code, _, _ = run(
            [
                "sparsify",
                "--input", str(k5_path),
                "--epsilon", "0.3",
                "--seed", "7",
                "--out-matrix", str(m_hat_path),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            [
                "verify", str(k5_path), str(m_hat_path),
                "--epsilon", "0.3", "--seed", "7",
            ],
            capsys,
        )
        assert code == 0

    def test_dimension_mismatch_exits_one(self, k5_path, tmp_path, capsys):
        small = tmp_path / "small.mtx"
        write_matrix_market(OdnMatrix(2, [], [], [], np.zeros(2)), small)
        code, _, err = run(["verify", str(k5_path), str(small)], capsys)
        assert code == 1


class TestPcaDemo:
    @staticmethod
    def write_csv(path, data):
        header = ",".join(f"c{i}" for i in range(data.shape[1]))
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    def test_factor_data_passes(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        data = np.outer(rng.standard_normal(250), rng.uniform(0.4, 1.0, 6))
        data += 0.35 * rng.standard_normal((250, 6))
        csv_path = tmp_path / "d.csv"
        self.write_csv(csv_path, data)
        report_path = tmp_path / "r.json"
        code, out, _ = run(
            [
                "pca-demo",
                "--input", str(csv_path),
                "--components", "2",
                "--out-report", str(report_path),
                "--out-csv", str(tmp_path / "p.csv"),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        validate_report(report)
        assert report["applications"]["pca"]["status"] == "pass"

    def test_anti_correlated_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(100)
        csv_path = tmp_path / "anti.csv"
        self.write_csv(csv_path, np.column_stack([v, -v + 0.01 * rng.standard_normal(100)]))
        code, _, err = run(["pca-demo", "--input", str(csv_path)], capsys)
        assert code == 2
        assert "correlation" in err

    def test_p_too_large_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        data = np.outer(rng.standard_normal(80), rng.uniform(0.5, 1.0, 3))
        data += 0.2 * rng.standard_normal((80, 3))
        csv_path = tmp_path / "d.csv"
        self.write_csv(csv_path, data)
        code, _, err = run(
            ["pca-demo", "--input", str(csv_path), "--components", "9"], capsys
        )
        assert code == 1


class TestBounds:
    def test_invalid_epsilon_exits_one(self, capsys):
        code, out, err = run(["bounds", "--gen", "complete:n=5", "--epsilon", "1.5"],
                             capsys)
        assert code == 1
        assert out == ""
        assert "epsilon" in err

    def test_diagonal_matrix(self, tmp_path, capsys):
        path = tmp_path / "d.mtx"
        write_matrix_market(OdnMatrix(2, [], [], [], np.array([0.0, 10.0])), path)
        code, out, _ = run(["bounds", "--input", str(path)], capsys)
        assert code == 0
        assert "deviation_bound=5" in out

    def test_example_value(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        write_matrix_market(
            OdnMatrix(2, [0], [1], [1.0], np.array([2.0, 3.0])), path
        )
        code, out, _ = run(
            ["bounds", "--input", str(path), "--epsilon", "0.1"], capsys
        )
        assert code == 0
        expected = 0.1 * np.sqrt(2) * 2.0 + 0.5
        printed = float(out.split("deviation_bound=")[1].split()[0])
        np.testing.assert_allclose(printed, expected, rtol=1e-10)

    def test_matches_library_bound(self, capsys, tmp_path):
        from odnsparse import eigenvalue_deviation_bound, generate_odn

        m = generate_odn("complete", 5, weight=1.0, diag=1.0)
        report_path = tmp_path / "b.json"
        code, out, _ = run(
            [
                "bounds", "--gen", "complete:n=5,w=1,diag=1",
                "--epsilon", "0.25", "--out-report", str(report_path),
            ],
            capsys,
        )
        assert code == 0
        # printed at 12 significant digits
        printed = float(out.split("deviation_bound=")[1].split()[0])
        np.testing.assert_allclose(
            printed, eigenvalue_deviation_bound(m, 0.25), rtol=1e-10
        )
        validate_report(json.loads(report_path.read_text()))
