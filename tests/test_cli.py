import hashlib
import json
import os
import platform
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from liftcert import cli, tensor_lift
from liftcert.cli import main
from liftcert.matrixio import (dump_json, load_matrix_csv, matrix_sha256, matrix_to_csv,
                               write_text)
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

    @pytest.mark.parametrize("n, m", [(1, 900), (900, 1)])
    def test_index_rows_past_the_cap_name_the_lift(self, capsys, n, m):
        # With n = 1 the 121905300 x 3 column multisets outgrow the 1 x 121905300
        # lift; they were refused as "the multiset index rows for n = 900, d = 3".
        code, out, err = run_cli(capsys, "lift", "--n", str(n), "--m", str(m), "--d", "3")
        assert code == 2 and out == ""
        assert f"multiset index rows of the lift with n = {n}, m = {m}, d = 3 " in err

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


class TestFreedHeap:
    @pytest.fixture
    def libc(self, monkeypatch):
        """Every ``mallopt`` call goes to ``libc.mallopt`` (None: no such symbol); the
        heap setting runs afresh at the next ``main`` and again after the test."""
        real = cli.ctypes.CDLL
        libc = type("Libc", (), {})()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name, *a, **k: libc if name is None
                            else real(name, *a, **k))
        cli._keep_freed_heap.cache_clear()
        yield libc
        cli._keep_freed_heap.cache_clear()

    @staticmethod
    def experiment(tmp_path, out):
        config = tmp_path / "thm51.json"
        config.write_text(json.dumps({
            "target": "thm51", "params": {"n": 6, "m": 2, "d": 2}, "rho_grid": [0.1],
            "trials": 3, "master_seed": 0, "threshold": 0.0, "name": "thm51"}))
        assert main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / out)]) == 0
        return b"".join((tmp_path / out / name).read_bytes()
                        for name in ("thm51.csv", "thm51_summary.json"))

    def test_both_settings_are_made_once_before_the_first_trial(
            self, tmp_path, capsys, monkeypatch, libc):
        events, real = [], cli.hs.run_experiment
        libc.mallopt = lambda param, value: events.append((param, value)) or 1
        monkeypatch.setattr(cli.hs, "run_experiment",
                            lambda config: events.append("trials") or real(config))
        self.experiment(tmp_path, "first")
        self.experiment(tmp_path, "second")
        assert events == [(-3, 32 << 20), (-1, 8 * tensor_lift.MAX_DENSE_ENTRIES),
                          "trials", "trials"]

    @pytest.mark.parametrize("mallopt", [None, lambda param, value: 0],
                             ids=["no symbol", "refused"])
    def test_without_mallopt_the_command_gives_the_same_bytes(
            self, tmp_path, capsys, monkeypatch, libc, mallopt):
        calls = []
        if mallopt:
            libc.mallopt = lambda param, value: calls.append(param) or mallopt(param, value)
        without = self.experiment(tmp_path, "without")
        monkeypatch.undo()
        cli._keep_freed_heap.cache_clear()
        assert self.experiment(tmp_path, "with") == without
        assert calls == ([-3] if mallopt else [])

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_a_second_experiment_faults_in_few_fresh_pages(self, tmp_path):
        # ru_minflt of the child's second call, with the heap setting and with it stubbed
        # out.  Without it, each call of claim76 maps and faults in its arrays afresh (lemma74
        # alone settles under glibc's dynamic threshold by its second call).
        config = tmp_path / "claim76.json"
        config.write_text(json.dumps({
            "target": "claim76", "params": {"n": 10, "m": 4}, "rho_grid": [0.3],
            "trials": 3, "master_seed": 0, "threshold": 1e-8, "name": "claim76"}))
        child = ("import contextlib, io, resource, sys\n"
                 "from liftcert import cli\n"
                 "if sys.argv[1] == 'off':\n"
                 "    cli._keep_freed_heap = lambda: None\n"
                 "for _ in range(2):\n"
                 "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        cli.main(['experiment', '--config', sys.argv[2], '--out-dir', sys.argv[3]])\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        faults = {mode: int(subprocess.run(
            [sys.executable, "-c", child, mode, str(config), str(tmp_path / mode)],
            env=src_env(), capture_output=True, check=True, text=True, timeout=300).stdout)
            for mode in ("on", "off")}
        assert faults["on"] * 10 < faults["off"], faults


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


class TestMatrixSha256:
    """The hash reads the shape and the row-major float64 values, not their
    layout in memory."""

    def test_equals_an_independent_recomputation(self):
        A = np.arange(-7.0, 8.0).reshape(5, 3) / 7.0
        words = struct.pack("<qq", 5, 3) + b"".join(struct.pack("<d", x) for x in A.flat)
        assert matrix_sha256(A) == hashlib.sha256(words).hexdigest()

    def test_layout_and_byte_order_do_not_change_it(self):
        A = np.random.default_rng(17).standard_normal((6, 4))
        want = matrix_sha256(A)
        wide = np.zeros((6, 8))
        wide[:, ::2] = A
        for copy in (np.asfortranarray(A), wide[:, ::2], A.astype(">f8")):
            assert not (copy.flags.c_contiguous and copy.dtype == A.dtype)
            assert matrix_sha256(copy) == want

    def test_shape_is_hashed(self):
        A = np.arange(6.0).reshape(2, 3)
        assert A.tobytes() == A.reshape(3, 2).tobytes()
        assert matrix_sha256(A) != matrix_sha256(A.reshape(3, 2))

    def test_negative_zero_differs_from_zero(self):
        assert matrix_sha256(np.array([[-0.0]])) != matrix_sha256(np.array([[0.0]]))


class TestJson:
    def test_refuses_nan_and_infinity(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                dump_json({"rho": value})


class TestWriteText:
    def test_shorter_text_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text(path, "1,2,3\n" * 1000)
        write_text(path, "4,5\n")
        assert path.read_bytes() == b"4,5\n"
        write_text(path, "")
        assert path.read_bytes() == b""

    def test_links_keep_their_inode_and_are_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("x" * 500)
        inode = target.stat().st_ino
        (tmp_path / "soft.json").symlink_to(target)
        os.link(target, tmp_path / "hard.json")
        write_text(tmp_path / "soft.json", "soft\n")
        assert (tmp_path / "soft.json").is_symlink()
        assert target.read_text() == "soft\n" and target.stat().st_ino == inode
        write_text(tmp_path / "hard.json", "hard\n")
        assert target.read_text() == "hard\n" and target.stat().st_ino == inode
        assert (tmp_path / "hard.json").stat().st_ino == inode

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_text(tmp_path / "new.csv", "1\n")
        finally:
            os.umask(old)
        assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o666 & ~0o027
        (tmp_path / "new.csv").chmod(0o600)
        write_text(tmp_path / "new.csv", "2\n")
        assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o600

    @pytest.mark.parametrize("where", ["directory", "missing/parent.csv"])
    def test_unwritable_target_is_usage_error_naming_it(self, tmp_path, capsys, where):
        (tmp_path / "directory").mkdir()
        out = tmp_path / where
        code, stdout, err = run_cli(capsys, "lift", "--n", "2", "--m", "1", "--d", "2",
                                    "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("argv", [
        ["lift", "--n", "3", "--m", "2", "--d", "2", "--matrix", "random:1"],
        ["spectrum", "--matrix", "{m}", "--leave-one-out"],
        ["certify", "--variety", "determinantal:3,3,1", "--basis", "random:2", "--rho", "0.1"],
        ["powersum", "--check", "claim77", "--n", "4", "--m", "3", "--rho", "0.1",
         "--trials", "1", "--seed", "0"],
    ], ids=["lift", "spectrum", "certify", "powersum"])
    def test_dev_null_is_a_valid_out(self, tmp_path, capsys, argv):
        # A character device cannot be cut to length; only regular files are.
        save_matrix_csv(tmp_path / "m.csv", np.arange(12.0).reshape(4, 3) + np.eye(4, 3))
        argv = [arg.format(m=tmp_path / "m.csv") for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--out", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_dev_stdout_into_a_pipe_matches_stdout(self):
        argv = [sys.executable, "-m", "liftcert.cli", "lift", "--n", "3", "--m", "2", "--d", "2",
                "--matrix", "random:1"]
        plain = subprocess.run(argv, env=src_env(), capture_output=True, check=True)
        piped = subprocess.run(argv + ["--out", "/dev/stdout"], env=src_env(),
                               capture_output=True, check=True)
        assert piped.stdout == plain.stdout and piped.stderr == b""


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

    def test_thm51_orbits_past_int64_give_a_finite_sigma(self, tmp_path, capsys):
        # int64 orbit sizes wrapped negative here: sqrt warned, and the run exited 3.
        cfg = self.config_file(tmp_path, params={"n": 2, "m": 1, "d": 70}, rho_grid=[0.3],
                               trials=1, min_passes=1, threshold=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                   "--out-dir", str(tmp_path))
        assert code == 0, err
        sigma = float((tmp_path / "demo.csv").read_text().splitlines()[-1].split(",")[3])
        assert np.isfinite(sigma) and sigma > 0

    @pytest.mark.parametrize("target, d, want", [
        # One orbit of one position, not d plans of O(k) each.
        ("thm51", 100000, 0),
        # Refused before its 10**9 bases and keys are built.
        ("thm52", 10**9, 2),
    ])
    def test_n_equals_one_with_huge_d_ends_quickly(self, tmp_path, target, d, want):
        cfg = self.config_file(tmp_path, target=target, params={"n": 1, "m": 1, "d": d},
                               trials=1, min_passes=1, threshold=0.0)
        out = subprocess.run([sys.executable, "-m", "liftcert.cli", "experiment", "--config",
                              str(cfg), "--out-dir", str(tmp_path / "out")],
                             env=src_env(), capture_output=True, text=True, timeout=20)
        assert out.returncode == want, out.stderr
        if want == 2:
            assert "would have shape (1000000000, 1, 1)" in out.stderr
            assert not (tmp_path / "out").exists()

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
        ({"target": "claim76", "params": {"n": 5, "m": 3}},
         "params n=5, m=3: the dimension budget"),
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
         "params variety=determinantal:4,4, m=3, planted=False: determinantal variety needs "
         "n1,n2,r"),
        ({"study": "scaling", "rho_grid": [0.1, 0.1, 0.1]},
         "a scaling study needs at least 3 rho_grid points, got 1 distinct in [0.1, 0.1, 0.1]"),
        ({"name": "."}, "name must be a plain file name, got '.'"),
        ({"name": ".."}, "name must be a plain file name, got '..'"),
        # C(n+d-1, d) is about 1e735, past the float range.
        ({"target": "thm51", "params": {"n": 100, "m": 2, "d": 10**9}},
         "a row of the random row isometry would have shape (~10^735,)"),
        ({"target": "cor53", "params": {"n": 100, "m": 2, "d": 10**9}},
         "a row of the random row isometry would have shape (~10^735,)"),
        ({"target": "thm52", "params": {"n": 100, "m": 2, "d": 10**9}},
         "a row of the random row isometry would have shape (~10^735,)"),
        # m**d has 30103 digits, past the 4300 that str() prints.
        ({"target": "thm52", "params": {"n": 2, "m": 2, "d": 100000}},
         "params n=2, m=2, d=100000, delta=0.5, base=zero: the dimension budget m**d"),
        ({"target": "thm52", "params": {"n": 2, "m": 1, "d": 100000}},
         "row isometry would have shape (~10^30103, 50001)"),
        # Small copies, under a lowered cap, of a 45150 x 45150 completion, a
        # 100000000 x 3 draw and a 100000 x 100000 base.
        ({"target": "lemma74", "params": {"n": 10, "m": 1}, "cap": 55 * 55 - 1},
         "params n=10, m=1: the N2 x N2 completion would have shape (55, 55)"),
        ({"target": "conj82", "params": {"dim": 3, "r": 2, "N": 1000}, "cap": 2999},
         "a Gaussian draw would have shape (1000, 3)"),
        ({"target": "sigma_basic", "params": {"n": 50, "k": 50}, "cap": 2499},
         "the zero base would have shape (50, 50)"),
        ({"target": "sigma_basic", "params": {"n": 50, "k": 50, "base": "random"}, "cap": 2499},
         "the random base would have shape (50, 50)"),
        ({"target": "caa_probe", "params": {"n": 5, "m": 4, "k": 2, "rho": -1.0}},
         "param 'rho' must be >= 0.0, got -1.0"),
        # Its 9 x 100000 columns fit; their order-3 lift and its 3**6 full rows do not.
        ({"target": "prop71", "params": {"n": 3, "m": 100000}},
         "the largest array of the order-3 lift would have shape"),
        ({"target": "prop71", "params": {"n": 3, "m": 30}, "cap": 729 * 4960 - 1},
         "params n=3, m=30: the order-6 projection would have shape (729, 4960)"),
        # Its 17**6 x 1 projection fits; the 17**6 x 6 index rows of its orbits
        # do not, and were refused only after a 193 MB lift had been built.
        ({"target": "prop71", "params": {"n": 17, "m": 1}},
         "the index rows of the order-6 projection would have shape (24137569, 6)"),
        # Each operator row fits the cap; the whole isometry does not.
        ({"target": "thm52", "params": {"n": 60, "m": 1, "d": 4}},
         "params n=60, m=1, d=4, delta=0.5, base=zero: the random row isometry would have shape "
         "(12960000, 297833)"),
        ({"target": "thm51", "params": {"n": 200, "m": 1, "d": 4}},
         "params n=200, m=1, d=4, delta=0.5, base=zero: the random row isometry would have "
         "shape (68685050, 34342525)"),
        # Its 2000 x 1 base fits; the 3 x 1335334000 factor rows of one
        # trial's order-3 lift do not.
        ({"target": "conj81", "params": {"n": 2000, "m": 1, "s": 1, "d": 3}},
         "params n=2000, m=1, s=1, d=3, control=none, shared_base=True: one trial's arrays "
         "would have shape (4006002000,)"),
        # Its 300 x 300 base fits; one trial's 90000 x 11326 block matrix does not.
        ({"target": "prop72", "params": {"n": 300, "m": 1, "ell": 150}},
         "params n=300, m=1, ell=150: one trial's arrays would have shape (1019340000,)"),
    ])
    def test_bad_field_is_usage_error(self, tmp_path, capsys, monkeypatch, overrides, named):
        # "cap" is no config field: it lowers MAX_DENSE_ENTRIES for the case.
        overrides = dict(overrides)
        if "cap" in overrides:
            monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", overrides.pop("cap"))
        cfg = self.config_file(tmp_path, **overrides)
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg),
                               "--out-dir", str(tmp_path / "a" / "b"))
        assert code == 2 and named in err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    def test_rerun_over_longer_outputs_matches_a_fresh_run(self, tmp_path, capsys):
        # The second config's files are shorter; no tail of the first may remain.
        (tmp_path / "long").mkdir()
        long_cfg = self.config_file(tmp_path / "long", rho_grid=[0.1, 0.2])
        short_cfg = self.config_file(tmp_path, trials=2, min_passes=2)
        for cfg, out_dir in ((long_cfg, "reused"), (short_cfg, "reused"), (short_cfg, "fresh")):
            code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / out_dir))
            assert code == 0
        for name in ("demo.csv", "demo_summary.json"):
            assert (tmp_path / "reused" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()

    def test_serialization_error_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # The CSV is built before the summary, so it must not be written first.
        monkeypatch.setattr(cli.hs.ExperimentResult, "summary", lambda self: {"x": float("nan")})
        cfg = self.config_file(tmp_path)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "fresh"))
        assert code == 2 and out == "" and "not JSON compliant" in err
        assert not (tmp_path / "fresh").exists()
        old = tmp_path / "old"
        old.mkdir()
        (old / "demo.csv").write_bytes(b"earlier csv\n")
        (old / "demo_summary.json").write_bytes(b"{}\n")
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg), "--out-dir", str(old))
        assert code == 2
        assert (old / "demo.csv").read_bytes() == b"earlier csv\n"
        assert (old / "demo_summary.json").read_bytes() == b"{}\n"

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

    # At 10**9 trials seeds were derived until memory ran out, and 10**9 pilot
    # draws ran for minutes.  At n = 100000 the Khatri-Rao product (224 GiB),
    # the triu_indices mask of the symmetric columns (9.3 GiB) and the
    # identity of the Jacobian (74.5 GiB) ended in a MemoryError, exit 1.
    @pytest.mark.parametrize("target, params, trials, named, module, builder", [
        ("const_control", {}, 1001, "rho_grid x trials reports would have shape (1, 1001)",
         cli.hs._rng, "derive_seed"),
        ("caa_probe", {"n": 5, "m": 4, "k": 2, "pilot_trials": 1001}, 1,
         "pilot_trials combination norms would have shape (1001,)", cli.hs, "khatri_rao"),
        ("caa_probe", {"n": 40, "m": 2, "k": 1}, 1, "Khatri-Rao product would have shape (1600, 2)",
         cli.hs, "khatri_rao"),
        ("prop71", {"n": 40, "m": 1}, 1, "symmetric columns would have shape (1600, 1)",
         np, "triu_indices"),
        ("prop71", {"n": 3, "m": 200}, 1, "symmetric columns would have shape (9, 200)",
         np, "triu_indices"),
        ("jacobian_probe", {"n": 10, "m": 2, "k": 1}, 1,
         "Khatri-Rao Jacobian would have shape (100, 40)", np, "eye"),
        # At this cap the columns are refused when the config is bound, before
        # make_symmetric_columns runs; its lift's refusal at the real cap is a
        # case of test_bad_field_is_usage_error.
        ("prop71", {"n": 3, "m": 100000}, 1, "symmetric columns would have shape (9, 100000)",
         cli.hs.ps, "make_symmetric_columns"),
        # The 9 x 1 columns, their lift and the 729 x 1 projection fit; the
        # 729 x 6 index rows of its orbits do not.
        ("prop71", {"n": 3, "m": 1}, 1,
         "params n=3, m=1: the index rows of the order-6 projection would have shape (729, 6)",
         cli.hs.ps, "make_symmetric_columns"),
        # The 15 x 15 completion fits; the C(8,4) = 70-row degree-4 block does
        # not.  At n = 60 the real cap let 8.1 to 16.2 GiB blocks through.
        ("prop73", {"n": 5, "m": 1}, 1,
         "params n=5, m=1: the degree-4 merge block would have shape (70, 15)",
         cli.hs.ps, "build_sym4_IkronA"),
        ("lemma74", {"n": 5, "m": 1}, 1,
         "params n=5, m=1: the degree-4 merge block would have shape (70, 30)",
         cli.hs.ps, "build_solution_space_M"),
        ("claim76", {"n": 5, "m": 1}, 1,
         "params n=5, m=1: the degree-4 merge block would have shape (70, 30)",
         cli.hs.ps, "build_claim_W"),
    ])
    def test_arrays_past_the_cap_are_refused_before_they_are_built(
            self, tmp_path, capsys, monkeypatch, target, params, trials, named, module, builder):
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 1000)
        monkeypatch.setattr(module, builder, lambda *args, **kw: pytest.fail(f"{builder} ran"))
        cfg = self.config_file(tmp_path, target=target, params=params, trials=trials,
                               threshold=0.0, min_passes=None)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        assert named in err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    # Every size or budget refusal that README, CI and the tests above promise
    # past config validation, with the lowered cap (MAX_DENSE_ENTRIES) of
    # the tests' small copies; config-validation refusals keep their texts.
    @pytest.mark.parametrize("target, params, cap", [
        ("claim76", {"n": 5, "m": 3}, None),
        ("certify", {"variety": "determinantal:4,4"}, None),
        ("prop72", {"n": 300, "m": 1, "ell": 150}, None),
        ("conj82", {"dim": 3, "r": 2, "N": 10**8}, None),
        ("conj82", {"dim": 40, "r": 6, "N": 100}, None),
        ("sigma_basic", {"n": 100000, "k": 100000}, None),
        ("lemma74", {"n": 300, "m": 1}, None),
        ("lemma74", {"n": 100000, "m": 1}, None),
        ("thm51", {"n": 100, "m": 2, "d": 10**9}, None),
        ("cor53", {"n": 100, "m": 2, "d": 10**9}, None),
        ("thm52", {"n": 100, "m": 2, "d": 10**9}, None),
        ("thm51", {"n": 200, "m": 1, "d": 4}, None),
        ("thm52", {"n": 60, "m": 1, "d": 4}, None),
        ("thm52", {"n": 1, "m": 1, "d": 10**9}, None),
        ("thm52", {"n": 2, "m": 2, "d": 100000}, None),
        ("thm52", {"n": 2, "m": 1, "d": 100000}, None),
        ("caa_probe", {"n": 100000, "m": 3, "k": 2}, None),
        ("caa_probe", {"n": 5, "m": 4, "k": 2, "pilot_trials": 10**9}, None),
        ("prop71", {"n": 100000, "m": 1}, None),
        ("prop71", {"n": 3, "m": 100000}, None),
        ("prop71", {"n": 17, "m": 1}, None),
        ("jacobian_probe", {"n": 100000, "m": 2, "k": 1}, None),
        ("conj81", {"n": 2000, "m": 1, "s": 1, "d": 3}, None),
        ("lemma74", {"n": 10, "m": 1}, 55 * 55 - 1),
        ("conj82", {"dim": 3, "r": 2, "N": 1000}, 2999),
        ("conj82", {"dim": 6, "r": 4, "N": 100}, 1000),
        ("sigma_basic", {"n": 50, "k": 50}, 2499),
        ("sigma_basic", {"n": 50, "k": 50, "base": "random"}, 2499),
        ("prop71", {"n": 3, "m": 30}, 729 * 4960 - 1),
        ("caa_probe", {"n": 5, "m": 4, "k": 2, "pilot_trials": 1001}, 1000),
        ("caa_probe", {"n": 40, "m": 2, "k": 1}, 1000),
        ("prop71", {"n": 40, "m": 1}, 1000),
        ("prop71", {"n": 3, "m": 200}, 1000),
        ("prop71", {"n": 3, "m": 1}, 1000),
        ("jacobian_probe", {"n": 10, "m": 2, "k": 1}, 1000),
    ])
    def test_refusal_names_every_resolved_param_once(self, tmp_path, capsys, monkeypatch,
                                                      target, params, cap):
        if cap is not None:
            monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", cap)
        cfg = self.config_file(tmp_path, target=target, params=params, trials=1,
                               master_seed=0, threshold=0.0, min_passes=None)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 2 and out == ""
        resolved = cli.hs.TARGETS[target].resolve(params)
        named = [f"{name}={value}" for name, value in resolved.items()]
        assert err.startswith(f"error: params {', '.join(named)}: ")
        # Once in either form: "n=300" in the prefix, or "n = 300" in a message.
        for name, value in resolved.items():
            pair = rf"{re.escape(name)} ?= ?{re.escape(str(value))}"
            assert len(re.findall(rf"(?<![\w.]){pair}(?![\w.])", err)) == 1, name
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["cfg.json"]

    def test_memory_error_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        # An allocation under the cap that did not fit exited 1, the code of a
        # failed acceptance, with a traceback.
        def run(config):
            raise MemoryError("Unable to allocate 74.5 GiB")
        monkeypatch.setattr(cli.hs, "run_experiment", run)
        cfg = self.config_file(tmp_path)
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == 3 and out == ""
        assert err == "internal error: Unable to allocate 74.5 GiB\n"
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

    def test_refusal_names_its_params(self, capsys):
        # Its N2 x N2 completion is past the cap; the message named only n.
        code, out, err = run_cli(capsys, "powersum", "--check", "lemma74", "--n", "300",
                                 "--m", "1", "--rho", "0.1", "--trials", "1", "--seed", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: params n=300, m=1: the N2 x N2 completion")

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
