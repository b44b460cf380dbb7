import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from liftcert import cli, tensor_lift
from liftcert.cli import main
from liftcert.matrixio import dump_json, load_matrix_csv, matrix_to_csv
from oracles import matrix_from_csv_per_entry, matrix_to_csv_per_entry


def save_matrix_csv(path, A):
    Path(path).write_text(matrix_to_csv(A))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env(**extra):
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def flag_error(capsys, *argv):
    """stderr of a command that argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestLift:
    def test_identity_lift_values(self, capsys):
        code, out, _ = run_cli(capsys, "lift", "--n", "2", "--m", "2",
                               "--d", "2", "--matrix", "id")
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        got = np.array([[float(x) for x in row.split(",")] for row in rows])
        expected = np.array([[1, 0, 0], [0, 0.5, 0], [0, 0.5, 0], [0, 0, 1.0]])
        assert np.array_equal(got, expected)
        assert out.splitlines()[0].startswith("# config:")

    def test_round_trip_is_lossless(self, tmp_path, capsys):
        out_csv = tmp_path / "lift.csv"
        code, _, _ = run_cli(capsys, "lift", "--n", "3", "--m", "2", "--d", "2",
                             "--matrix", "random:5", "--out", str(out_csv))
        assert code == 0
        A = load_matrix_csv(out_csv)
        save_matrix_csv(tmp_path / "again.csv", A)
        assert np.array_equal(A, load_matrix_csv(tmp_path / "again.csv"))
        assert A.shape == (9, 3)

    def test_descriptor_file(self, tmp_path, capsys):
        desc = tmp_path / "lift.json"
        code, _, _ = run_cli(capsys, "lift", "--n", "2", "--m", "2", "--d", "2",
                             "--matrix", "id", "--out", str(tmp_path / "l.csv"),
                             "--descriptor", str(desc))
        assert code == 0
        payload = json.loads(desc.read_text())
        assert payload["kind"] == "symmetrized"
        assert payload["column_order"] == [[1, 1], [1, 2], [2, 2]]

    def test_degree_above_numpys_dimension_limit(self, capsys):
        code, out, _ = run_cli(capsys, "lift", "--n", "1", "--m", "1", "--d", "70")
        assert code == 0
        assert [line for line in out.splitlines() if not line.startswith("#")] == ["1"]

    def test_bad_matrix_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lift", "--n", "2", "--m", "2",
                               "--d", "2", "--matrix", "nonsense")
        assert code == 2
        assert "matrix spec" in err

    def test_non_integer_random_seed_names_the_flag(self, capsys):
        code, _, err = run_cli(capsys, "lift", "--n", "2", "--m", "2",
                               "--d", "2", "--matrix", "random:x")
        assert code == 2 and "--matrix random:seed" in err and "'x'" in err

    def test_random_spec_is_random_or_random_colon_int(self, capsys):
        # "randomly" was taken as "random", with the default seed.
        lift = ("lift", "--n", "2", "--m", "2", "--d", "2", "--matrix")
        for spec in ("randomly", "random5", "random_3"):
            code, out, err = run_cli(capsys, *lift, spec)
            assert code == 2 and out == "" and f"unknown matrix spec '{spec}'" in err
        code, _, err = run_cli(capsys, *lift, "random:")
        assert code == 2 and "--matrix random:seed" in err
        _, bare, _ = run_cli(capsys, *lift, "random", "--seed", "4")
        _, keyed, _ = run_cli(capsys, *lift, "random:4")
        assert bare.splitlines()[2:] == keyed.splitlines()[2:] != []

    def test_golden_bytes(self, tmp_path, capsys):
        # Pinned output bytes: any change to them is a change in output.
        csv_path, desc = tmp_path / "lift.csv", tmp_path / "lift.json"
        code, _, _ = run_cli(capsys, "lift", "--n", "4", "--m", "3", "--d", "3",
                             "--matrix", "random:3", "--out", str(csv_path),
                             "--descriptor", str(desc))
        assert code == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
            "5ade7741ea47f35db073a6975b189fcac88c0b4403250360e570b513bf35321d"
        assert hashlib.sha256(desc.read_bytes()).hexdigest() == \
            "b703182e5b9278efb23d9e12e11f54dc9388e55cbe2f463e12cf95ceee6e76a4"

    @pytest.mark.parametrize("flag", ["--n", "--m", "--d"])
    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_sizes_must_be_positive_ints(self, capsys, flag, value):
        argv = {"--n": "2", "--m": "2", "--d": "2", flag: value}
        err = flag_error(capsys, "lift", *[tok for item in argv.items() for tok in item])
        assert f"argument {flag}" in err


class TestSpectrum:
    def test_reports_values_and_rank(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.diag([3.0, 1.0, 1e-14]))
        code, out, _ = run_cli(capsys, "spectrum", "--matrix", str(path),
                               "--leave-one-out")
        assert code == 0
        payload = json.loads(out)
        assert payload["numerical_rank"] == 2
        assert abs(payload["singular_values"][0] - 3.0) <= 1e-12
        assert "leave_one_out" in payload

    def test_rank_honours_tol(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.diag([3.0, 1.0, 1e-14]))
        code, out, _ = run_cli(capsys, "spectrum", "--matrix", str(path),
                               "--tol", "1e-15")
        assert code == 0 and json.loads(out)["numerical_rank"] == 3

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.eye(2))
        assert "argument --tol" in flag_error(capsys, "spectrum", "--matrix", str(path),
                                              "--tol", tol)

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--matrix", "no_such.csv")
        assert code == 2 and "no_such.csv" in err

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        code, _, err = run_cli(capsys, "spectrum", "--matrix", str(bad))
        assert code == 2 and "line 2" in err

    def test_numerical_failure_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def no_convergence(A):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr("liftcert.cli.singular_values", no_convergence)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.eye(2))
        code, out, err = run_cli(capsys, "spectrum", "--matrix", str(path))
        assert code == 3 and out == ""
        assert err == "internal error: SVD did not converge\n"


class TestLoadMatrixCsv:
    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# header\n\n 1.5, -2e-300 \n# mid\n3,4\n")
        assert np.array_equal(load_matrix_csv(path), [[1.5, -2e-300], [3.0, 4.0]])

    def test_bad_line_is_counted_in_the_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# header\n1,2\n\n3,\n")
        with pytest.raises(ValueError, match=r"a\.csv: line 4 is not numeric CSV"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("text", ["1,2\n3\n", "1\n2,3\n", "1,2\n3,4,5\n"])
    def test_ragged_rows(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="ragged rows"):
            load_matrix_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# only a comment\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("entry, shown", [("inf", "inf"), ("-inf", "-inf"),
                                              ("nan", "nan"), ("1e400", "inf")])
    def test_non_finite_entry_names_its_line(self, tmp_path, entry, shown):
        path = tmp_path / "a.csv"
        path.write_text(f"# header\n1,2\n\n3,{entry}\n")
        with pytest.raises(ValueError, match=rf"a\.csv: line 4 has a non-finite entry {shown}$"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("argv", [
        ["lift", "--n", "4", "--m", "1", "--d", "2", "--matrix", "file:{}"],
        ["spectrum", "--matrix", "{}"],
        ["certify", "--variety", "determinantal:2,2,1", "--basis", "file:{}"],
    ], ids=["lift", "spectrum", "certify"])
    def test_commands_refuse_non_finite_files(self, tmp_path, capsys, argv):
        path = tmp_path / "x.csv"
        path.write_text("1\ninf\n0\n0\n")
        code, out, err = run_cli(capsys, *[arg.format(path) for arg in argv])
        assert code == 2 and out == ""
        assert err == f"error: {path}: line 2 has a non-finite entry inf\n"

    @pytest.mark.parametrize("text", [
        "4.9e-324,-2.5e-310\n2.2250738585072014e-308,1e-320\n",
        "-0.0,0.0\n0,-0\n",
        "1.7976931348623157e+308,-1.7976931348623157e+308\n",
        "# header\n  1.5 ,\t-2 \n\n 3,  4\n",
        "+.5,5.\n-.25,+7.\n",
        "1\n-0.0\n5.\n",
        "1_000,2\n",
    ], ids=["subnormal", "signed-zero", "max-float", "padded", "bare-point", "one-column",
            "underscore"])
    def test_same_array_as_per_entry_parse(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_text(text)
        got, want = load_matrix_csv(path), matrix_from_csv_per_entry(text)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # sign bits of zeros included

    @pytest.mark.parametrize("line, bad", [("1,2 # note", 2), ("1\f,2", 3)])
    def test_lines_the_c_reader_would_take_from_the_file_are_refused(self, tmp_path, line, bad):
        # \f ends a line for str.splitlines, so ",2" is line 3.
        path = tmp_path / "a.csv"
        path.write_text(f"# header\n{line}\n")
        with pytest.raises(ValueError, match=rf"a\.csv: line {bad} is not numeric CSV"):
            load_matrix_csv(path)

    def test_comment_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# only a comment\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_matrix_csv(path)


class TestCertify:
    def test_random_basis_report(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--variety",
                               "determinantal:4,4,1", "--basis", "random:3",
                               "--rho", "0.1", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] > 0
        assert payload["verdict"] == "certified_far"
        assert payload["config"]["generator_count"] == 36
        assert len(payload["basis_sha256"]) == 64

    def test_planted_basis_reports_dont_know(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((16, 3))
        B[:, 1] = 0.0
        B[0, 1] = 1.0  # vec(e1 e1^T) planted as column 1
        path = tmp_path / "basis.csv"
        save_matrix_csv(path, B)
        code, out, _ = run_cli(capsys, "certify", "--variety",
                               "determinantal:4,4,1", "--basis",
                               f"planted:{path}+1")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] <= 1e-10
        assert payload["verdict"] == "dont_know"

    def test_file_basis(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "b.csv"
        save_matrix_csv(path, rng.standard_normal((16, 3)))
        code, out, _ = run_cli(capsys, "certify", "--variety",
                               "determinantal:4,4,1", "--basis", str(path))
        assert code == 0
        assert json.loads(out)["m"] == 3

    def test_rerun_writes_identical_bytes(self, tmp_path, capsys):
        outputs = []
        for run in range(2):
            path = tmp_path / f"report{run}.json"
            code, _, _ = run_cli(capsys, "certify", "--variety",
                                 "determinantal:4,4,1", "--basis", "random:3",
                                 "--rho", "0.1", "--seed", "7", "--out", str(path))
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seven_by_seven_rank_three_variety(self, capsys):
        # 1225 minors of 24 terms each; dense, the generators would be
        # 1225 x C(52, 4) = 1225 x 270725, above the cap.
        code, out, _ = run_cli(capsys, "certify", "--variety", "determinantal:7,7,3",
                               "--basis", "random:2", "--rho", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["generator_count"] == 1225
        assert (payload["d"], payload["verdict"]) == (4, "certified_far")

    def test_lift_is_capped_on_what_it_stores(self, capsys):
        # The order-4 lift of a 49 x 4 basis stores C(52, 4) x C(7, 4) =
        # 270725 x 35 means; its 49**4 = 5764801 full rows would be above the cap.
        code, out, _ = run_cli(capsys, "certify", "--variety", "determinantal:7,7,3",
                               "--basis", "random:4", "--rho", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert (payload["m"], payload["verdict"]) == (4, "certified_far")
        assert payload["eta"] > 0

    def test_bad_variety_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--variety", "conic:9",
                               "--basis", "random:2")
        assert code == 2 and "variety" in err

    @pytest.mark.parametrize("spec, named", [
        ("determinantal:4,4", "determinantal variety needs n1,n2,r"),
        ("bogus", "unknown variety kind 'bogus'"),
    ])
    def test_variety_spec_error_names_the_flag(self, capsys, spec, named):
        code, _, err = run_cli(capsys, "certify", "--variety", spec, "--basis", "random:2")
        assert code == 2 and err == f"error: --variety: {named}\n"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        # A rank-1 column planted in the basis: eta is rounding noise, which a
        # negative tolerance would certify as far.
        path = tmp_path / "B.csv"
        save_matrix_csv(path, np.eye(9)[:, :2])
        err = flag_error(capsys, "certify", "--variety", "determinantal:3,3,1",
                         "--basis", f"planted:{path}+0", "--tol", tol)
        assert "argument --tol" in err

    @pytest.mark.parametrize("rho", ["nan", "-5", "inf"])
    def test_rho_must_be_finite_and_non_negative(self, capsys, rho):
        err = flag_error(capsys, "certify", "--variety", "determinantal:3,3,1",
                         "--basis", "random:2", "--rho", rho)
        assert "argument --rho" in err

    def test_dependent_basis_is_refused(self, tmp_path, capsys):
        v = np.arange(1.0, 10.0)
        path = tmp_path / "dup.csv"
        save_matrix_csv(path, np.column_stack([v, 2 * v]))
        for spec in (f"file:{path}", f"planted:{path}+0"):
            code, out, err = run_cli(capsys, "certify", "--variety", "determinantal:3,3,1",
                                     "--basis", spec)
            assert code == 2 and out == ""
            assert err == "error: basis column 1 is zero or nearly in the span of earlier columns\n"
        code, out, err = run_cli(capsys, "certify", "--variety", "determinantal:3,3,1",
                                 "--basis", "random:12")
        assert code == 2 and out == ""
        assert err == "error: basis has 12 columns in R^9, so they are dependent\n"

    def test_planted_near_parallel_basis_is_orthonormalized(self, tmp_path, capsys):
        # A second column just above the pivot cut: one Gram-Schmidt pass
        # against the kept first column left a Gram residual of 1.9e-7, and
        # certify refused the basis as not orthonormal.
        v = np.arange(1.0, 10.0)
        w = v + 1e-8 * np.random.default_rng(12).standard_normal(9)
        path = tmp_path / "nearly.csv"
        save_matrix_csv(path, np.column_stack([v, w]))
        code, out, err = run_cli(capsys, "certify", "--variety", "determinantal:3,3,1",
                                 "--basis", f"planted:{path}+0", "--tol", "0")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["config"]["planted"] and payload["m"] == 2

    @pytest.mark.parametrize("m", ["-1", "0", "x", ""])
    def test_random_basis_needs_positive_m(self, capsys, m):
        code, _, err = run_cli(capsys, "certify", "--variety", "determinantal:3,3,1",
                               "--basis", f"random:{m}")
        assert code == 2 and "--basis random:m" in err

    @pytest.mark.parametrize("index", ["x", "-1", "1.5"])
    def test_planted_index_names_the_flag(self, tmp_path, capsys, index):
        path = tmp_path / "B.csv"
        save_matrix_csv(path, np.eye(9)[:, :2])
        code, _, err = run_cli(capsys, "certify", "--variety", "determinantal:3,3,1",
                               "--basis", f"planted:{path}+{index}")
        assert code == 2 and "--basis planted:path.csv+index" in err


def test_import_leaves_scipy_unloaded():
    code = ("import sys, liftcert, liftcert.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestBlasThreads:
    @pytest.fixture
    def thread_counts(self):
        """Each loaded OpenBLAS set to 2 threads; yields a reader of the counts."""
        controls = cli._openblas_threads()
        if not controls:
            pytest.skip("no OpenBLAS thread control in this process")
        before = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(2)
        yield lambda: [get() for get, _ in controls]
        for (_, set_threads), count in zip(controls, before):
            set_threads(count)

    @pytest.mark.parametrize("fault, code", [(None, 0), (np.linalg.LinAlgError, 3),
                                             (ValueError, 2), (RuntimeError, None)])
    def test_main_runs_on_one_thread_and_restores_the_count(
            self, tmp_path, capsys, monkeypatch, thread_counts, fault, code):
        real, seen = cli.singular_values, []

        def spy(A):
            seen.append(thread_counts())
            if fault:
                raise fault("injected")
            return real(A)
        monkeypatch.setattr(cli, "singular_values", spy)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.arange(6.0).reshape(3, 2))
        if code is None:
            with pytest.raises(fault):
                main(["spectrum", "--matrix", str(path)])
        else:
            assert run_cli(capsys, "spectrum", "--matrix", str(path))[0] == code
        ones, twos = ([k] * len(thread_counts()) for k in (1, 2))
        assert seen == [ones] and thread_counts() == twos

    def test_experiment_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # Without the pin, a second OpenBLAS thread changes the last bits of
        # both CSVs at this master_seed.
        outputs = {}
        for threads in ("1", "2"):
            for target, m in (("prop73", 8), ("claim76", 4)):
                config = tmp_path / f"{target}.json"
                config.write_text(json.dumps({
                    "target": target, "params": {"n": 10, "m": m}, "rho_grid": [0.3],
                    "trials": 1, "master_seed": 1, "threshold": 1e-8, "name": target}))
                subprocess.run([sys.executable, "-m", "liftcert.cli", "experiment",
                                "--config", str(config), "--out-dir", str(tmp_path / threads)],
                               env=src_env(OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, check=True, timeout=300)
                outputs.setdefault(target, []).append((tmp_path / threads / f"{target}.csv").read_bytes())
        assert all(one == two for one, two in outputs.values())


class TestMatrixToCsv:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1e16, 1 / 3, -0.1, 2.0**70]

    @pytest.mark.parametrize("shape", [(3, 4), (12, 1), (1, 12), (12,), (0, 3), (3, 0), ()])
    def test_matches_the_per_entry_writer(self, shape):
        values = np.resize(np.array(self.SPECIAL), int(np.prod(shape))).reshape(shape)
        for header in (None, ["config: {\"tol\": \"5%\"}", "second"]):
            assert matrix_to_csv(values, header) == matrix_to_csv_per_entry(values, header)

    def test_matches_the_per_entry_writer_on_random_scales(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((500, 4)) * 10.0 ** rng.integers(-320, 308, (500, 4))
        assert matrix_to_csv(A) == matrix_to_csv_per_entry(A)


class TestJson:
    def test_refuses_nan_and_infinity(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                dump_json({"rho": value})


class TestExperiment:
    def config_file(self, tmp_path, **overrides):
        raw = {"target": "thm51",
               "params": {"n": 8, "m": 2, "d": 2, "delta": 0.5, "base": "zero"},
               "rho_grid": [0.1], "trials": 6, "master_seed": 21,
               "threshold": 1e-6, "name": "demo", "min_passes": 6}
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_twice_identical_bytes(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out-dir", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out-dir", str(tmp_path / "b"))
        assert code == 0
        for name in ("demo.csv", "demo_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_csv_headers_record_config(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path)
        run_cli(capsys, "experiment", "--config", str(cfg),
                "--out-dir", str(tmp_path))
        text = (tmp_path / "demo.csv").read_text()
        assert text.splitlines()[0].startswith("# config:")
        assert text.splitlines()[1] == "rho,trial,seed,sigma,threshold,pass"

    def test_acceptance_failure_exit_code(self, tmp_path, capsys):
        cfg = self.config_file(
            tmp_path,
            params={"n": 8, "m": 2, "d": 2, "delta": 0.5, "base": "duplicated"},
            rho_grid=[1e-300], min_passes=1)
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                             "--out-dir", str(tmp_path))
        assert code == 1

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and "JSON" in err
        path.write_text(json.dumps({"target": "thm51", "rho_grid": [0.1],
                                    "trials": 1, "master_seed": 0,
                                    "threshold": 1e-6, "bogus_field": 1}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and "bogus_field" in err
        path.write_text(json.dumps({"target": "thm51", "params": {"n": 8, "m": 2}, "rho": 0.1,
                                    "trials": 1, "master_seed": 0, "threshold": 1e-6}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2 and "unknown config fields: ['rho']" in err

    @pytest.mark.parametrize("overrides, named", [
        ({"params": {"m": 2}}, "missing required param 'n'"),
        ({"params": {"n": 8, "m": 2, "dd": 3}}, "unknown param 'dd'"),
        ({"threshold": float("nan")}, "threshold must be finite"),
        ({"rho_grid": [-0.1]}, "rho_grid entries must be finite and >= 0"),
        ({"target": "claim76", "params": {"n": 5, "m": 3}}, "params n=5, m=3 break"),
        ({"params": [8, 2]}, "params must be JSON objects"),
        ({"trials": "x"}, "trials must be int, got 'x'"),
        ({"trials": 2.7}, "trials must be int, got 2.7"),
        ({"master_seed": 1.9}, "master_seed must be int, got 1.9"),
        ({"rho_grid": "ab"}, "rho_grid must be a nonempty list of reals"),
        ({"rho_grid": 0.3}, "rho_grid must be a nonempty list of reals"),
        ({"name": "../../x"}, "name must be a plain file name"),
        ({"study": "scaling", "rho_grid": [0.1, 0.2]},
         "a scaling study needs at least 3 rho_grid points, got 2"),
        ({"params": {"n": 8, "m": 2, "base": "zeros"}},
         "param 'base' must be one of ['zero', 'random', 'duplicated'], got 'zeros'"),
        ({"target": "certify", "params": {"variety": "determinantal:4,4"}},
         "param 'variety': determinantal variety needs n1,n2,r"),
        ({"study": "scaling", "rho_grid": [0.1, 0.1, 0.1]},
         "a scaling study needs at least 3 rho_grid points, got 1 distinct in [0.1, 0.1, 0.1]"),
    ])
    def test_bad_field_is_usage_error(self, tmp_path, capsys, overrides, named):
        cfg = self.config_file(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                               "--out-dir", str(tmp_path / "a" / "b"))
        assert code == 2 and named in err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("target, params, message", [
        ("thm51", {"n": 6, "m": 2, "d": 2}, "matrix has non-finite entries"),
        ("certify", {"m": 3}, "basis has non-finite entries"),
        ("lemma74", {"n": 4, "m": 3}, "power-sum forms overflow at rho = 1e+308"),
    ])
    def test_overflow_in_a_trial_is_internal_error(self, tmp_path, capsys, target, params,
                                                   message):
        cfg = self.config_file(tmp_path, target=target, params=params, rho_grid=[1e308],
                               master_seed=0)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 3 and out == ""
        assert err == f"internal error: {message}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_probe_overflow_is_internal_error_before_any_file(self, tmp_path, capsys):
        # At rho = 1e300 every pilot combination overflows to nan.
        cfg = self.config_file(tmp_path, target="caa_probe", min_passes=None,
                               params={"n": 5, "m": 4, "k": 2, "rho": 1e300, "pilot_trials": 8})
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 3 and out == ""
        assert err == "internal error: pilot median combination norm is nan\n"
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_measured_value_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # The pilot passes; the first trial's combination norm overflows.
        real = cli.hs.khatri_rao
        calls = []

        def late_overflow(U, V):
            calls.append(1)
            return real(U, V) * (1e308 if len(calls) > 8 else 1.0) * 10.0
        monkeypatch.setattr(cli.hs, "khatri_rao", late_overflow)
        cfg = self.config_file(tmp_path, target="caa_probe", min_passes=None,
                               params={"n": 5, "m": 4, "k": 2, "pilot_trials": 8})
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 3 and out == ""
        assert err.startswith("internal error: trial 0 at rho 0.1 measured nan against threshold")
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    def test_power_matrix_gather_is_checked_before_it_is_built(self, tmp_path, capsys,
                                                               monkeypatch):
        # The 126 x 4 plan passes a cap of 1000 entries; the 100 x 126 x 4
        # gather does not.  At dim 40, r 6, N 100 the real cap let 39 GB through.
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 1000)
        monkeypatch.setattr(cli.hs.ps, "_plan", lambda *args: pytest.fail("the plan was built"))
        cfg = self.config_file(tmp_path, target="conj82", params={"dim": 6, "r": 4, "N": 100},
                               min_passes=None)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert "shape (100, 126, 4)" in err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    def test_min_passes_above_trials_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.hs, "run_experiment", lambda config: pytest.fail("a trial ran"))
        cfg = self.config_file(tmp_path, trials=5)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err.startswith("error: min_passes = 6 exceeds trials = 5")
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    def test_float_param_out_of_range_is_usage_error(self, tmp_path, capsys):
        # tau_factor = -1 failed inside the first trial with "tau must be
        # non-negative", naming no param.
        cfg = self.config_file(tmp_path, target="jacobian_probe",
                               params={"n": 4, "m": 2, "k": 1, "tau_factor": -1.0})
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert err == "error: param 'tau_factor' must be >= 0.0, got -1.0\n"

    def test_help_enumerates_targets(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("thm51", "thm52", "cor53", "certify", "prop71", "prop72",
                     "prop73", "lemma74", "conj81", "conj82", "caa_probe",
                     "jacobian_probe", "sigma_basic"):
            assert name in out


class TestPowersum:
    def test_csv_schema_and_exit(self, tmp_path, capsys):
        out_path = tmp_path / "p.csv"
        code, _, _ = run_cli(capsys, "powersum", "--check", "prop73",
                             "--n", "4", "--m", "3", "--rho", "0.1",
                             "--trials", "4", "--seed", "3",
                             "--min-passes", "4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "trial,seed,sigma_target,threshold,pass"
        assert len(lines) == 2 + 4
        assert all(line.endswith(",1") for line in lines[2:])

    def test_failing_min_passes(self, capsys):
        code, out, _ = run_cli(capsys, "powersum", "--check", "conj81",
                               "--n", "8", "--m", "2", "--s", "2", "--d", "2",
                               "--rho", "0.2", "--trials", "2", "--seed", "3",
                               "--threshold", "1e9", "--min-passes", "1")
        assert code == 1

    def test_min_passes_above_trials_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # It used to run every trial and then exit 1, since no rho can pass
        # more trials than it runs.
        monkeypatch.setattr(cli.hs, "run_experiment", lambda config: pytest.fail("a trial ran"))
        out_path = tmp_path / "p.csv"
        code, out, err = run_cli(capsys, "powersum", "--check", "claim77",
                                 "--n", "4", "--m", "3", "--rho", "0.1", "--trials", "1",
                                 "--seed", "0", "--min-passes", "5", "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert err.startswith("error: min_passes = 5 exceeds trials = 1")

    def test_missing_param_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "powersum", "--check", "conj82",
                               "--rho", "0.1", "--trials", "1", "--seed", "0")
        assert code == 2 and "missing required param 'dim'" in err

    @pytest.mark.parametrize("check, n, m", [("claim76", "6", "2"), ("claim77", "4", "3")])
    def test_zero_rho_gives_finite_sigmas(self, capsys, check, n, m):
        code, out, err = run_cli(capsys, "powersum", "--check", check, "--n", n, "--m", m,
                                 "--rho", "0", "--trials", "2", "--seed", "0")
        assert code == 0 and err == ""
        rows = out.splitlines()[2:]
        assert len(rows) == 2
        assert all(np.isfinite(float(row.split(",")[2])) for row in rows)

    @pytest.mark.parametrize("check, n, m", [("claim76", "6", "2"), ("claim77", "4", "3")])
    def test_tiny_rho_gives_finite_sigmas(self, capsys, check, n, m):
        # The layer split weighs by (rho_j / rho)**2, so rho**2 underflowing
        # to 0 cannot turn the layers into inf or nan.
        code, out, err = run_cli(capsys, "powersum", "--check", check, "--n", n, "--m", m,
                                 "--rho", "1e-200", "--trials", "2", "--seed", "0")
        assert code == 0 and err == ""
        rows = out.splitlines()[2:]
        assert len(rows) == 2
        assert all(np.isfinite(float(row.split(",")[2])) for row in rows)

    @pytest.mark.parametrize("rho", ["nan", "-1", "inf"])
    def test_rho_must_be_finite_and_non_negative(self, capsys, rho):
        err = flag_error(capsys, "powersum", "--check", "claim77", "--n", "4", "--m", "3",
                         "--rho", rho, "--trials", "1", "--seed", "0")
        assert "argument --rho" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_arithmetic_failure_is_internal_error(self, capsys):
        code, out, err = run_cli(capsys, "powersum", "--check", "claim77", "--n", "4",
                                 "--m", "3", "--rho", "1e308", "--trials", "1", "--seed", "0")
        assert code == 3 and out == ""
        assert err.startswith("internal error: ")

    def test_huge_rho_checks_the_completion_without_overflow(self, capsys):
        # The completion check took norms of the 1e160-scale forms, which
        # overflowed (a RuntimeWarning) and so could never fire.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "powersum", "--check", "claim77", "--n", "4",
                                     "--m", "3", "--rho", "1e160", "--trials", "1",
                                     "--seed", "0")
        assert code == 0 and err == ""
        assert [str(w.message) for w in caught] == []

    def test_unknown_check_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["powersum", "--check", "prop99", "--rho", "0.1",
                  "--trials", "1", "--seed", "0"])
        assert exc.value.code == 2
