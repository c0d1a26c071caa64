import json
import re

import numpy as np
import pytest

import odnsparse
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

    def test_probes_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sparsify", "--gen", "complete:n=10", "--probes", "100"])
        assert exc.value.code == 1
        assert "--probes" in capsys.readouterr().err

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

    def test_reads_are_timed(self, k5_path, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code, _, err = run(
            ["verify", str(k5_path), str(k5_path), "-v", "--out-report", str(report_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        validate_report(report)
        assert report["timings"]["stages"]["read"] > 0
        assert "timing: read " in err

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

    @pytest.mark.parametrize("gen,lines", [
        ("complete:n=20,seed=3,diag=uniform(0,1)", None),
        ("erdos-renyi:n=4,density=0,diag=uniform(0,1),seed=2", 2),
    ], ids=["complete", "no-edges"])
    def test_prints_the_certificates_as_sparsify_does(self, gen, lines, tmp_path, capsys):
        """verify prints sparsify's lines for the pair sparsify wrote: the
        deviation bound against the largest deviation, and the pencil's
        extremes against their target, which a pair with no edges lacks.
        No norm line is printed."""
        from odnsparse import generate_odn, parse_generator_spec

        a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        write_matrix_market(generate_odn(**parse_generator_spec(gen)), a)
        code, sparsify_out, _ = run(["sparsify", "--input", str(a), "--out-matrix", str(b)],
                                    capsys)
        assert code == 0
        code, verify_out, _ = run(["verify", str(a), str(b)], capsys)
        assert code == 0
        sparsify_lines = sparsify_out.splitlines()[1:]
        verify_lines = verify_out.splitlines()
        assert sparsify_lines[0].startswith(verify_lines[0] + " centered_diag=")
        assert sparsify_lines[1:] == verify_lines[1:]
        assert re.fullmatch(r"bound=\S+ max_deviation=\S+", verify_lines[0])
        if lines is None:
            assert re.fullmatch(r"ratio extremes: \[0\.\d{6}, 1\.\d{6}\] "
                                r"target \[0\.750000, 1\.250000\]", verify_lines[1])
            lines = 3
        assert len(verify_lines) == lines
        assert verify_lines[-1] == "PASS: all checks passed"

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

    def test_header_only_csv_exits_one(self, tmp_path, capsys, recwarn):
        csv_path = tmp_path / "h.csv"
        csv_path.write_text("a,b,c\n")
        code, out, err = run(["pca-demo", "--input", str(csv_path)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {csv_path}: the CSV has no data rows\n"
        assert len(recwarn) == 0

    def test_one_row_csv_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("a,b,c\n1,2,3\n")
        code, _, err = run(["pca-demo", "--input", str(csv_path)], capsys)
        assert code == 1
        assert err.splitlines()[-1].startswith("error: need >= 2 samples")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_reported_at_its_cell(self, bad, tmp_path, capsys, recwarn):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"a,b,c\n1,2,3\n2,{bad},4\n3,5,6\n")
        code, out, err = run(["pca-demo", "--input", str(csv_path)], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == f"error: non-finite entry {float(bad)!r} at (1, 1)"
        assert len(recwarn) == 0

    def test_validates_nothing(self, tmp_path, capsys, monkeypatch):
        from odnsparse import core

        calls = []
        for name in ("_validate_dense", "_validate_sparse"):
            def counting(*args, _name=name, _validate=getattr(core, name)):
                calls.append(_name)
                return _validate(*args)

            monkeypatch.setattr(core, name, counting)
        rng = np.random.default_rng(5)
        data = np.outer(rng.standard_normal(120), rng.uniform(0.4, 1.0, 8))
        data += 0.3 * rng.standard_normal((120, 8))
        csv_path = tmp_path / "d.csv"
        self.write_csv(csv_path, data)
        code, _, _ = run(["pca-demo", "--input", str(csv_path)], capsys)
        assert code == 0
        assert calls == []


class TestBounds:
    def test_invalid_epsilon_exits_one(self, capsys):
        code, out, err = run(["bounds", "--gen", "complete:n=5", "--epsilon", "1.5"],
                             capsys)
        assert code == 1
        assert out == ""
        assert "epsilon" in err

    @pytest.mark.parametrize("spec,limit", [("erdos-renyi:n=50,density=0", "10"),
                                            ("complete:n=1", "0")])
    def test_no_edges_above_dense_limit(self, spec, limit, capsys):
        code, out, _ = run(["bounds", "--gen", spec, "--dense-limit", limit], capsys)
        assert code == 0
        assert "deviation_bound=0\n" in out

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


@pytest.mark.parametrize("argv", [
    ["bounds", "--gen", "complete:n=5", "--constant", "-1"],
    ["bounds", "--gen", "complete:n=5", "--constant", "nan"],
    ["bounds", "--gen", "complete:n=5", "--constant", "inf"],
    ["sparsify", "--gen", "complete:n=5", "--constant", "inf"],
    ["bounds", "--gen", "complete:n=5", "--epsilon", "1e-200"],
    ["sparsify", "--gen", "complete:n=5", "--epsilon", "1e-200"],
    ["bounds", "--gen", "complete:n=4,diag=uniform(0,inf)"],
    ["sparsify", "--gen", "complete:n=4,diag=uniform(0,inf)"],
    ["sparsify", "--gen", "complete:n=4,diag=uniform(1,0)"],
], ids=["bounds-constant-negative", "bounds-constant-nan", "bounds-constant-inf",
        "sparsify-constant-inf", "bounds-epsilon-tiny", "sparsify-epsilon-tiny",
        "bounds-diag-infinite", "sparsify-diag-infinite", "sparsify-diag-reversed"])
def test_invalid_parameter_exits_one_with_one_error_line(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.splitlines()[-1]]


@pytest.mark.parametrize("command", ["sparsify", "pca-demo"])
def test_negative_seed_exits_one_before_any_solve(command, tmp_path, monkeypatch, capsys):
    """A seed numpy's SeedSequence would refuse only after the resistances
    is refused first, in one error line naming the seed."""
    from odnsparse import sparsify

    def no_resistances(*args, **kwargs):
        raise AssertionError("resistances computed before the seed was checked")

    monkeypatch.setattr(sparsify, "effective_resistances", no_resistances)
    source = (["--gen", "complete:n=6"] if command == "sparsify"
              else ["--input", str(_factor_csv(tmp_path))])
    code, out, err = run([command, *source, "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: seed must be a non-negative integer, got -1"]


@pytest.mark.parametrize("epsilon", ["1e-10"])
def test_sample_budget_beyond_memory_exits_one(epsilon, capsys):
    """q = 7.2e21, past int64 and any memory: a typed error naming q and the
    int64 limit, before anything is drawn."""
    from odnsparse.sparsify import sample_count

    q = sample_count(5, float(epsilon), 9.0)
    code, out, err = run(["sparsify", "--gen", "complete:n=5", "--epsilon", epsilon], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"error: the sample budget q={q} is past the int64 limit {2**63 - 1} of the draws; "
        "use a larger epsilon or a smaller constant C"]


def test_sample_budget_of_terabytes_runs(capsys):
    """q = 7.2e11 draws, 5.8 TB as uniforms, are one multinomial over K5's
    10 edges: the run passes at once."""
    from odnsparse.sparsify import sample_count

    code, out, _ = run(["sparsify", "--gen", "complete:n=5", "--epsilon", "1e-5"], capsys)
    assert code == 0
    assert f"samples={sample_count(5, 1e-5, 9.0)} distinct_edges=10" in out


class TestCommonFlags:
    @pytest.fixture
    def pair_paths(self, k5_path, tmp_path, capsys):
        """K5 and a sparsifier of it."""
        hat = tmp_path / "k5hat.mtx"
        code, _, _ = run(["sparsify", "--input", str(k5_path), "--epsilon", "0.3",
                          "--out-matrix", str(hat)], capsys)
        assert code == 0
        return k5_path, hat

    def _argv(self, command, pair_paths, tmp_path):
        a, b = pair_paths
        return {
            "sparsify": ["sparsify", "--input", str(a)],
            "verify": ["verify", str(a), str(b)],
            "pca-demo": ["pca-demo", "--input", str(_factor_csv(tmp_path))],
            "bounds": ["bounds", "--input", str(a)],
        }[command]

    @pytest.mark.parametrize("command", ["sparsify", "verify", "pca-demo", "bounds"])
    def test_every_report_records_peak_rss(self, command, pair_paths, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        code, _, err = run(self._argv(command, pair_paths, tmp_path)
                           + ["-v", "--out-report", str(report_path)], capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        validate_report(report)
        peak = report["timings"]["peak_rss_mb"]
        assert 1.0 < peak < 1e6  # MB, not KiB or bytes
        lines = [line for line in err.splitlines() if line.startswith("memory: ")]
        assert lines == [f"memory: peak RSS {peak:.1f} MB"]

    @pytest.mark.parametrize("command", ["sparsify", "verify", "pca-demo", "bounds"])
    def test_every_report_records_blas_pools(self, command, pair_paths, tmp_path, capsys):
        """timings.blas holds each bundled OpenBLAS pool's owner, library and
        thread count, as -v prints them, and the report still validates."""
        from odnsparse.spectra import _blas_pools

        report_path = tmp_path / "r.json"
        code, _, err = run(self._argv(command, pair_paths, tmp_path)
                           + ["-v", "--out-report", str(report_path)], capsys)
        assert code == 0
        report = json.loads(report_path.read_text())
        validate_report(report)
        pools = report["timings"]["blas"]
        assert [(pool["owner"], pool["library"], pool["threads"]) for pool in pools] == [
            (owner, library, threads) for owner, library, threads in _blas_pools()]
        assert [line for line in err.splitlines() if line.startswith("blas: ")] == [
            f"blas: {pool['owner']}: {pool['library']}, {pool['threads']} threads"
            for pool in pools]

    @pytest.mark.parametrize("command,paths", [
        ("sparsify", ["factor dense", "pencil arpack", "laplacian_norm arpack",
                      "matrix_diff_norm arpack", "matrix_values dense",
                      "matrix_hat_values dense", "matrix_vectors dense",
                      "matrix_hat_vectors dense"]),
        ("verify", ["factor dense", "pencil arpack", "laplacian_norm arpack",
                    "matrix_diff_norm arpack", "matrix_values dense",
                    "matrix_hat_values dense", "matrix_vectors dense",
                    "matrix_hat_vectors dense"]),
        ("pca-demo", ["factor dense", "pencil arpack", "laplacian_norm arpack",
                      "matrix_values dense", "matrix_hat_values dense"]),
        ("bounds", ["laplacian_norm arpack"]),
    ])
    def test_verbose_names_blas_pools_and_solver_paths(self, command, paths, pair_paths,
                                                       tmp_path, capsys):
        """-v prints each bundled OpenBLAS pool with its thread count, and the
        form of L's grounded factor and the solver of the pencil's extremes,
        of the eigenvalues of M and M_hat, of each 2-norm and of the
        eigenvectors of M and M_hat that the angle check solved (K5's live
        angles take a dense solve)."""
        from odnsparse.spectra import _blas_pools

        code, _, err = run(self._argv(command, pair_paths, tmp_path) + ["-v"], capsys)
        assert code == 0
        lines = err.splitlines()
        assert [line for line in lines if line.startswith("blas: ")] == [
            f"blas: {owner}: {library}, {threads} threads"
            for owner, library, threads in _blas_pools()]
        assert [line[6:] for line in lines if line.startswith("path: ")] == paths

    @pytest.mark.parametrize("command", ["sparsify", "verify", "pca-demo", "bounds"])
    def test_report_records_the_paths_verbose_prints(self, command, pair_paths, tmp_path,
                                                     capsys):
        """timings.paths holds each role's path, as -v prints it."""
        report_path = tmp_path / "r.json"
        code, _, err = run(self._argv(command, pair_paths, tmp_path)
                           + ["-v", "--out-report", str(report_path)], capsys)
        assert code == 0
        printed = [line[6:].split(" ", 1) for line in err.splitlines()
                   if line.startswith("path: ")]
        assert printed
        assert json.loads(report_path.read_text())["timings"]["paths"] == dict(printed)

    def test_verbose_names_the_band_factor(self, capsys):
        """A 30 x 30 grid, held as CSR, whose grounded L has bandwidth 30
        after reverse Cuthill-McKee: L is factored in band storage, and M and
        M_hat, of bandwidth 30 too, are solved in band storage."""
        code, _, err = run(["sparsify", "--gen", "grid:rows=30,cols=30,diag=uniform(0,1)",
                            "-v"], capsys)
        assert code == 0
        assert [line[6:] for line in err.splitlines() if line.startswith("path: ")] == [
            "factor band kd=30", "pencil arpack", "laplacian_norm arpack",
            "matrix_diff_norm arpack", "matrix_values band kd=30",
            "matrix_hat_values band kd=30"]

    @pytest.mark.parametrize("command,extra,stages", [
        ("sparsify", [], ["read", "decompose", "sparsify", "verify", "spectral"]),
        ("sparsify", ["--out-matrix"], ["read", "decompose", "sparsify", "verify",
                                        "write", "spectral"]),
        ("verify", [], ["read", "checks", "spectral"]),
        ("pca-demo", [], ["load", "correlation", "pca"]),
        ("bounds", [], ["read", "bounds"]),
    ], ids=["sparsify", "sparsify-out-matrix", "verify", "pca-demo", "bounds"])
    def test_report_times_each_stage_once(self, command, extra, stages, pair_paths,
                                          tmp_path, capsys):
        """Each command's timings.stages names each of its stages once (the
        report sorts its keys), timings.import_s holds the package's import
        time, and -v prints one timing line for the import and then one for
        each stage, in the order they ran."""
        argv = self._argv(command, pair_paths, tmp_path) + extra
        if extra:
            argv.append(str(tmp_path / "out.mtx"))
        report_path = tmp_path / "r.json"
        code, _, err = run(argv + ["-v", "--out-report", str(report_path)], capsys)
        assert code == 0
        timings = json.loads(report_path.read_text())["timings"]
        assert list(timings["stages"]) == sorted(stages)
        assert all(seconds >= 0 for seconds in timings["stages"].values())
        assert timings["import_s"] == odnsparse._import_s > 0
        assert [line.split()[1] for line in err.splitlines()
                if line.startswith("timing: ")] == ["import"] + stages

    @pytest.mark.parametrize("command,starts", [
        ("sparsify", [("start", ("matrix",)), "sparsify_laplacian",
                      ("start", ("matrix_hat",)), "verify_sparsifier", "spectral_report"]),
        ("verify", [("start", ()), "verify_sparsifier", "spectral_report"]),
    ])
    def test_solves_start_once_their_matrix_exists(self, command, starts, pair_paths,
                                                   tmp_path, monkeypatch, capsys):
        """sparsify starts M's values solve once the pair is built and
        M_hat's once M_hat is set; verify starts both once the pair is
        built; both before the pencil (`verify_sparsifier`)."""
        from odnsparse import cli
        from odnsparse.spectra import PairSpectra

        events = []

        def recording(name, routine):
            def call(*args, **kwargs):
                events.append(name)
                return routine(*args, **kwargs)
            return call

        def starting(spectra, *sides, _start=PairSpectra.start_values):
            events.append(("start", sides))
            return _start(spectra, *sides)

        monkeypatch.setattr(PairSpectra, "start_values", starting)
        for name in ("sparsify_laplacian", "verify_sparsifier", "spectral_report"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        code, _, _ = run(self._argv(command, pair_paths, tmp_path), capsys)
        assert code == 0
        assert events[:len(starts)] == starts

    @pytest.mark.parametrize("command", ["pca-demo", "bounds"])
    def test_commands_without_a_spectral_report_start_no_worker(
            self, command, tmp_path, monkeypatch, capsys):
        """bounds on a 30 x 30 grid, whose M would be solved in band storage,
        never reads M's values, so it starts no solve; pca-demo's correlation
        matrix of a one-factor CSV is complete, so both its sides are solved
        dense by the caller, and no worker starts either."""
        from odnsparse import spectra as spectra_module

        def no_worker(cpu):
            raise AssertionError("a band worker was started")

        monkeypatch.setattr(spectra_module, "_BandWorker", no_worker)
        argv = {"bounds": ["bounds", "--gen", "grid:rows=30,cols=30,diag=uniform(0,1)"],
                "pca-demo": ["pca-demo", "--input", str(_factor_csv(tmp_path))]}[command]
        assert run(argv, capsys)[0] == 0

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_seed_is_only_recorded(self, command, pair_paths, tmp_path, capsys):
        """verify and bounds sample nothing: --seed changes only
        parameters.seed, and their help says so."""
        outputs = []
        for seed in (1, 2):
            report_path = tmp_path / f"r{seed}.json"
            code, out, _ = run(self._argv(command, pair_paths, tmp_path)
                               + ["--seed", str(seed), "--out-report", str(report_path)],
                               capsys)
            assert code == 0
            report = json.loads(report_path.read_text())
            assert report["parameters"].pop("seed") == seed
            del report["timings"]
            outputs.append((out, report))
        assert outputs[0] == outputs[1]
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "only copied into the report's parameters.seed" in " ".join(
            capsys.readouterr().out.split())


def _factor_csv(tmp_path):
    rng = np.random.default_rng(4)
    data = (rng.standard_normal((60, 1)) * rng.uniform(0.5, 1.0, 6)
            + 0.5 * rng.standard_normal((60, 6)))
    path = tmp_path / "factor.csv"
    np.savetxt(path, data, delimiter=",", header=",".join(f"c{k}" for k in range(6)),
               comments="")
    return path


def test_failure_after_a_started_solve_does_not_wait_for_it(tmp_path):
    """A sparsify that fails in the sampler, on a budget past int64, after M's
    band solve was started, exits with its usual code and error line at once,
    in a fresh process whose band solve never ends: the worker is a daemon
    thread."""
    import subprocess
    import sys
    import time

    from conftest import child_env

    script = ("import sys, time\n"
              "from odnsparse import spectra\n"
              "from odnsparse.cli import main\n"
              "spectra._dsbevd = lambda band: time.sleep(600)\n"
              "sys.exit(main(sys.argv[1:]))\n")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", script, "sparsify", "--gen",
         "grid:rows=30,cols=30,diag=uniform(0,1)", "--epsilon", "1e-10"],
        capture_output=True, text=True, timeout=120, env=child_env(), cwd=tmp_path)
    assert time.monotonic() - started < 60
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: the sample budget q=")
    assert "is past the int64 limit" in proc.stderr
