"""The CLI contract, one row per config or command: its exit code, a
substring of its stderr, the files it writes or must not write, and the
memory limit, timeout or peak it runs under.

Rows run in-process through ``cli.main``, except those a fresh process has
to check, which run in a few children started once for the module:
- ``blas`` rows run three times, under ``OPENBLAS_NUM_THREADS`` 1 and 2 as
  OpenBLAS loads and on glibc's default heap (``cli._keep_freed_heap``
  stubbed out), and each file they write must have the same bytes in all
  three;
- ``strict`` rows run under ``python -W error``;
- rows with ``mem`` run in a child whose address space ``resource.setrlimit``
  caps, the ``ulimit -v`` of a shell;
- rows with a ``timeout`` and no ``mem`` run in a child of their own;
- rows with ``peak_mb`` are each spawned as ``python -m liftcert.cli``, with
  stdout to a file, by a small child whose ``os.wait4`` reads each one's peak.
A child runs its rows in table order and reports each one's exit code,
seconds and stderr; a row with a ``timeout`` must end within it.

``{config}`` in a row's argv is its config, written as JSON; ``{out}`` is
where it writes, ``<process>/<row id>`` under the module's work directory.
An experiment that exits 0 or 1 writes ``{out}/<name>.csv`` and
``{out}/<name>_summary.json``; one that exits 2 or 3 leaves no ``{out}``.
"""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from liftcert import cli
from liftcert.matrixio import load_matrix_csv
from liftcert.varieties import orthonormalize_basis

# ulimit -v 2000000: 2000000 KiB of address space.
LIMIT = 2_000_000 * 1024


class Row(NamedTuple):
    id: str
    argv: tuple
    config: dict | None = None
    code: int = 0
    message: str = ""
    written: tuple = ()
    mem: int | None = None
    timeout: float | None = None
    blas: bool = False
    strict: bool = False        # run under python -W error
    peak_mb: float | None = None
    check: Callable | None = None  # called with the work directory and {out}


def experiment(id, config, code=0, **kw):
    """An experiment row: exit 0 or 1 writes its CSV and summary, 2 or 3 no {out}."""
    name = config.get("name")
    written = (f"{{out}}/{name}.csv", f"{{out}}/{name}_summary.json") if code < 2 else ()
    return Row(id, ("experiment", "--config", "{config}", "--out-dir", "{out}"), config, code,
               written=written, **kw)


def blas(id, target, params, rho_grid, trials, threshold, check=None, **fields):
    """A config of the BLAS-thread and heap rows, at master_seed 1."""
    return experiment(f"blas-{id}", {"target": target, "params": params, "rho_grid": rho_grid,
                                     "trials": trials, "threshold": threshold, **fields,
                                     "master_seed": 1, "name": "blas"}, blas=True, check=check)


def refused(id, target, params, message, trials=1, **kw):
    """A config past the cap or a budget: exit 2, under a 2 GB address space
    and in 20 s unless the row says otherwise."""
    config = {"target": target, "params": params, "rho_grid": [0.1], "trials": trials,
              "master_seed": 0, "threshold": 0.0}
    return experiment(f"refuse-{id}", config, code=2, message=message,
                      **{"mem": LIMIT, "timeout": 20, **kw})


def contains(name, text):
    def check(work, out):
        assert text in Path(out, name).read_text()
    return check


def rank_12_at_rho_0(work, out):
    csv = Path(out, "blas.csv").read_text()
    assert len(re.findall(r"^0,[0-9],[0-9]*,12,", csv, re.M)) == 3


AGAIN = {"target": "thm51", "params": {"n": 6, "m": 2, "d": 2}, "rho_grid": [0.1],
         "master_seed": 0, "threshold": 0.0, "name": "again"}


def two_trials_over_it_match_a_fresh_run(work, out):
    config = Path(work, "again2.json")
    config.write_text(json.dumps({**AGAIN, "trials": 2}))
    for out_dir in (out, f"{out}-fresh"):
        assert run_command(["experiment", "--config", str(config), "--out-dir", out_dir])[0] == 0
    for name in ("again.csv", "again_summary.json"):
        assert Path(out, name).read_bytes() == Path(f"{out}-fresh", name).read_bytes()


def basis_sha256_of_the_orthonormal_basis(work, out):
    # Its shape as int64 words, then its float64 values.
    Q = orthonormalize_basis(load_matrix_csv(Path(work, "b.csv")))
    h = hashlib.sha256(struct.pack("<qq", *Q.shape) + Q.astype("<f8").tobytes()).hexdigest()
    assert json.loads(Path(f"{out}.json").read_text())["basis_sha256"] == h


def _savetxt(array, **kw):
    return lambda path: np.savetxt(path, array, delimiter=",", **kw)


def _nearly_parallel(path):
    v = np.arange(1.0, 10.0)
    w = v + 1e-8 * np.random.default_rng(12).standard_normal(9)
    np.savetxt(path, np.column_stack([v, w]), delimiter=",")


INPUTS = {
    "m.csv": _savetxt(np.arange(12.0).reshape(4, 3) + np.eye(4, 3)),
    "nearly.csv": _nearly_parallel,
    "inf.csv": lambda path: Path(path).write_text("1\ninf\n"),
    # 715 x 440 takes the QR-first singular values.
    "tall.csv": _savetxt(np.random.default_rng(5).standard_normal((715, 440)), fmt="%.17g"),
    "b.csv": _savetxt(np.random.default_rng(3).standard_normal((9, 2)), fmt="%.17g"),
}

SMOKE = {"target": "thm51", "params": {"n": 6, "m": 2, "d": 2}, "rho_grid": [0.1],
         "trials": 3, "master_seed": 0, "threshold": 0.0, "name": "smoke"}

ROWS = [
    experiment("thm51-n6-m2-d2", SMOKE),
    Row("spectrum-4x3-leave-one-out", ("spectrum", "--matrix", "m.csv", "--leave-one-out")),
    Row("lift-n3-m2-d2", ("lift", "--n", "3", "--m", "2", "--d", "2", "--matrix", "random:1")),
    Row("lift-n2-m3-d3", ("lift", "--n", "2", "--m", "3", "--d", "3", "--matrix", "random:1")),
    Row("lift-n5-m6-d3", ("lift", "--n", "5", "--m", "6", "--d", "3", "--matrix", "random:1")),
    Row("lift-n1-m1-d70", ("lift", "--n", "1", "--m", "1", "--d", "70")),
    # Its 2**27 x 27 index rows are refused before they are built.
    Row("lift-n2-m1-d27", ("lift", "--n", "2", "--m", "1", "--d", "27"), code=2, timeout=60,
        message="the index rows of the 2**27 coordinate space would have shape (134217728, 27)"),
    experiment("config-rho-field", {"target": "thm51", "params": {"n": 6, "m": 2, "d": 2},
                                    "rho": 0.1, "trials": 1, "master_seed": 0,
                                    "threshold": 0.0},
               code=2, message="unknown config fields: ['rho']"),
    Row("certify-determinantal-3-3-1-random-2",
        ("certify", "--variety", "determinantal:3,3,1", "--basis", "random:2", "--rho", "0.1")),
    Row("powersum-claim77-n4-m3-rho-0", ("powersum", "--check", "claim77", "--n", "4", "--m", "3",
                                         "--rho", "0", "--trials", "1", "--seed", "0")),
    Row("powersum-claim77-n4-m3-rho-1e-200", ("powersum", "--check", "claim77", "--n", "4",
                                              "--m", "3", "--rho", "1e-200", "--trials", "1",
                                              "--seed", "0")),
    Row("certify-planted-nearly-parallel-tol-0",
        ("certify", "--variety", "determinantal:3,3,1", "--basis", "planted:nearly.csv+0",
         "--tol", "0")),
    experiment("jacobian_probe-n4-m2-k1-tau_factor-negative",
               {"target": "jacobian_probe", "params": {"n": 4, "m": 2, "k": 1, "tau_factor": -1.0},
                "rho_grid": [0.1], "trials": 1, "master_seed": 0, "threshold": 0.0},
               code=2, message="param 'tau_factor' must be >= 0.0, got -1.0"),
    Row("spectrum-inf-entry", ("spectrum", "--matrix", "inf.csv"), code=2,
        message="inf.csv: line 2 has a non-finite entry inf"),
    # cli.main pins OpenBLAS to one thread, so the 1- and 2-thread runs are
    # both single-threaded: these rows check that the pin holds and that a
    # rerun and glibc's default heap give the same bytes, not that results are
    # independent of the thread count.  They cover prop73's whole-spectrum
    # rank, thm52's mode products, the stacked draws, builds and SVDs of the
    # fixed-base targets (at rho 0, and under conj81's duplicate control, one
    # matrix per rho) and the harness's one SVD site; conj82's 30 trials are two
    # stacks.  certify, planted and not, and caa_probe run through the same
    # three stages.  thm51 at n 8, m 5, d 3 takes the lift's orbit sums: its
    # selector would have 125 x 35 entries, past the dense product's 4096.
    blas("prop73-n10-m8", "prop73", {"n": 10, "m": 8}, [0.3], 1, 1e-8),
    blas("claim76-n10-m4", "claim76", {"n": 10, "m": 4}, [0.3], 1, 1e-8),
    blas("thm52-n6-m3-d3", "thm52", {"n": 6, "m": 3, "d": 3}, [0.0, 0.3], 20, 1e-7),
    blas("cor53-n10-m3-d3-blocks2", "cor53", {"n": 10, "m": 3, "d": 3, "blocks": 2}, [0.3], 5,
         1e-7),
    blas("thm51-n10-m4-d3-scaling", "thm51", {"n": 10, "m": 4, "d": 3}, [0.1, 0.2, 0.4, 0.8, 1.6],
         4, 1e-7, study="scaling"),
    blas("thm51-n8-m5-d3", "thm51", {"n": 8, "m": 5, "d": 3}, [0.0, 0.3], 4, 1e-7),
    blas("prop71-n3-m3", "prop71", {"n": 3, "m": 3}, [0.3], 2, 1e-8),
    blas("prop72-n8-m3-ell3", "prop72", {"n": 8, "m": 3, "ell": 3}, [0.0, 0.3], 5, 1e-8),
    blas("lemma74-n10-m6", "lemma74", {"n": 10, "m": 6}, [0.3], 1, 1e-8),
    blas("claim77-n5-m3", "claim77", {"n": 5, "m": 3}, [0.3], 2, 1e-8),
    blas("conj81-n10-m3-s3-d3", "conj81", {"n": 10, "m": 3, "s": 3, "d": 3}, [0.5], 3, 1e-6),
    blas("conj81-n10-m3-s3-d3-duplicate", "conj81",
         {"n": 10, "m": 3, "s": 3, "d": 3, "control": "duplicate"}, [0.5], 3, 1e-6),
    blas("conj81-n10-m3-s3-d3-unshared", "conj81",
         {"n": 10, "m": 3, "s": 3, "d": 3, "shared_base": False}, [0.0, 0.5], 3, 1e-6),
    blas("conj82-dim6-r4-N100", "conj82", {"dim": 6, "r": 4, "N": 100}, [0.0, 0.3], 1, 1e-6),
    blas("conj82-dim6-r4-N100-30-trials", "conj82", {"dim": 6, "r": 4, "N": 100}, [0.0, 0.3],
         30, 1e-6),
    blas("sigma_basic-n6-k5-random", "sigma_basic", {"n": 6, "k": 5, "base": "random"},
         [0.0, 0.3], 3, 0.0),
    blas("certify", "certify", {}, [0.0, 0.3], 3, 1e-9),
    blas("certify-planted", "certify", {"planted": True}, [0.0, 0.3], 3, 1e-9),
    blas("caa_probe-n5-m4-k2", "caa_probe", {"n": 5, "m": 4, "k": 2, "pilot_trials": 16},
         [0.5, 1.0], 3, 0.0),
    # Counted with the one rank rule: its rank-12 Jacobian at rho = 0 read 16
    # when the zero cut counted rounding noise.
    blas("jacobian_probe-n4-m3-k2", "jacobian_probe", {"n": 4, "m": 3, "k": 2}, [0.0, 0.3], 3,
         0.0, check=rank_12_at_rho_0),
    # A probe whose pilot overflows exits 3 and writes nothing.
    experiment("caa_probe-n5-m4-k2-pilot-overflow",
               {"target": "caa_probe", "params": {"n": 5, "m": 4, "k": 2, "rho": 1e300,
                                                  "pilot_trials": 8},
                "rho_grid": [0.5], "trials": 4, "master_seed": 0, "threshold": 0.0,
                "name": "caa"},
               code=3, message="internal error: pilot median combination norm is nan"),
    # A rerun writes over the longer files of a 4-trial run and cuts them to length.
    experiment("thm51-n6-m2-d2-rerun-over-4-trials", {**AGAIN, "trials": 4},
               check=two_trials_over_it_match_a_fresh_run),
    # A device is written but not cut to length.
    Row("certify-out-dev-null", ("certify", "--variety", "determinantal:3,3,1", "--basis",
                                 "random:2", "--rho", "0.1", "--out", "/dev/null")),
    Row("spectrum-out-dev-null", ("spectrum", "--matrix", "m.csv", "--out", "/dev/null")),
    Row("blas-spectrum-715x440-leave-one-out",
        ("spectrum", "--matrix", "tall.csv", "--leave-one-out", "--out", "{out}.json"),
        written=("{out}.json",), blas=True),
    Row("powersum-claim77-n4-m3-min-passes-above-trials",
        ("powersum", "--check", "claim77", "--n", "4", "--m", "3", "--rho", "0.1", "--trials", "1",
         "--seed", "0", "--min-passes", "5"),
        code=2, message="min_passes = 5 exceeds trials = 1"),
    # A rho = 0 grid point leaves the log-log slope null.
    experiment("thm51-n6-m2-d2-scaling-from-rho-0",
               {"target": "thm51", "params": {"n": 6, "m": 2, "d": 2, "base": "random"},
                "rho_grid": [0.0, 0.1, 0.2], "trials": 3, "master_seed": 0, "threshold": 0.0,
                "study": "scaling", "name": "rho0"},
               check=contains("rho0_summary.json", '"loglog_slope": null')),
    # A scaling study whose envelope rho^d passes the float range exited 3 and wrote nothing.
    experiment("thm51-n2-m1-d103-envelope-past-the-float-range",
               {"target": "thm51", "params": {"n": 2, "m": 1, "d": 103},
                "rho_grid": [1000.0, 1001.0, 1002.0], "trials": 1, "master_seed": 0,
                "threshold": 0.0, "study": "scaling", "name": "env"},
               check=contains("env_summary.json", '"envelope_ok": false')),
    # One trial's 90000 x 11326 block matrix is past the cap: refused when the
    # config is bound, under a message naming n, m and ell.
    refused("prop72-n300-m1-ell150", "prop72", {"n": 300, "m": 1, "ell": 150},
            "n=300, m=1, ell=150", mem=None),
    # 100 x C(45, 6) x 6 monomial factors, about 39 GB: refused before it is allocated.
    refused("conj82-dim40-r6-N100", "conj82", {"dim": 40, "r": 6, "N": 100},
            "dim=40, r=6, N=100", timeout=None),
    # Draws of 37 GiB (lemma74), 2.2 GiB (conj82) and 74.5 GiB (sigma_basic), a
    # 45150 x 45150 completion (lemma74), a C(n+d-1, d) past the float range
    # (thm51), an m**d past the 4300 digits str() prints (thm52), a 224 GiB
    # Khatri-Rao product (caa_probe), a 9.3 GiB triu_indices mask (prop71), a
    # 74.5 GiB identity in the Jacobian (jacobian_probe), 10**9 pilot draws
    # (caa_probe), an order-3 lift of 1.7e14 columns, whose 9 x 100000
    # symmetric columns took 4.3 s to draw (prop71), and 595665-row degree-4
    # blocks of 8.1 GiB (prop73) and 16.2 GiB (lemma74, claim76), which exited
    # 3: each refused before it is allocated, formed or printed, under a
    # message naming one param of its config.
    refused("lemma74-n100000-m1", "lemma74", {"n": 100000, "m": 1}, "n=100000, m=1"),
    refused("conj82-dim3-r2-N1e8", "conj82", {"dim": 3, "r": 2, "N": 100000000}, "N=100000000"),
    refused("sigma_basic-n100000-k100000", "sigma_basic", {"n": 100000, "k": 100000},
            "k=100000"),
    refused("lemma74-n300-m1", "lemma74", {"n": 300, "m": 1}, "n=300, m=1"),
    refused("thm51-n100-m2-d1e9", "thm51", {"n": 100, "m": 2, "d": 1000000000}, "d=1000000000"),
    refused("thm52-n2-m2-d100000", "thm52", {"n": 2, "m": 2, "d": 100000}, "d=100000"),
    refused("caa_probe-n100000-m3-k2", "caa_probe", {"n": 100000, "m": 3, "k": 2}, "n=100000"),
    refused("prop71-n100000-m1", "prop71", {"n": 100000, "m": 1}, "n=100000"),
    refused("jacobian_probe-n100000-m2-k1", "jacobian_probe", {"n": 100000, "m": 2, "k": 1},
            "n=100000"),
    refused("caa_probe-n5-m4-k2-pilot_trials-1e9", "caa_probe",
            {"n": 5, "m": 4, "k": 2, "pilot_trials": 1000000000}, "pilot_trials=1000000000"),
    refused("prop71-n3-m100000", "prop71", {"n": 3, "m": 100000}, "m=100000"),
    refused("prop73-n60-m1", "prop73", {"n": 60, "m": 1}, "n=60, m=1"),
    refused("lemma74-n60-m1", "lemma74", {"n": 60, "m": 1}, "n=60, m=1"),
    refused("claim76-n60-m1", "claim76", {"n": 60, "m": 1}, "n=60, m=1"),
    # Its 9870 x 9870 completion fits; its two 9870 x 7000 noise layers do not,
    # and were refused only after the completion's SVD.
    refused("claim77-n140-m7000", "claim77", {"n": 140, "m": 7000},
            "params n=140, m=7000: a Gaussian draw would have shape (2, 9870, 7000)"),
    # 10**9 trials derived seeds until memory ran out.
    refused("const_control-1e9-trials", "const_control", {}, "the rho_grid x trials reports "
            "would have shape (1, 1000000000)", trials=1000000000),
    # 1225 minors of 24 terms each; dense, their generators would be 1225 x 270725.
    Row("certify-determinantal-7-7-3-random-2", ("certify", "--variety", "determinantal:7,7,3",
                                                 "--basis", "random:2", "--rho", "0.1"),
        mem=LIMIT),
    # Its order-4 lift of a 49 x 4 basis keeps 270725 x 35 means; the full 49**4
    # rows would be above the cap.
    Row("certify-determinantal-7-7-3-random-4", ("certify", "--variety", "determinantal:7,7,3",
                                                 "--basis", "random:4", "--rho", "0.1"),
        mem=LIMIT),
    Row("certify-basis-sha256", ("certify", "--variety", "determinantal:3,3,1", "--basis",
                                 "file:b.csv", "--out", "{out}.json"),
        written=("{out}.json",), check=basis_sha256_of_the_orthonormal_basis),
    # Multinomials past 2**63 wrapped in int64: conj82 read a wrong sigma and thm51 exited 3.
    experiment("conj82-dim2-r70-N100",
               {"target": "conj82", "params": {"dim": 2, "r": 70, "N": 100}, "rho_grid": [0.3],
                "trials": 1, "master_seed": 0, "threshold": 0.0, "name": "c82"}),
    experiment("thm51-n2-m1-d70", {"target": "thm51", "params": {"n": 2, "m": 1, "d": 70},
                                   "rho_grid": [0.3], "trials": 1, "master_seed": 0,
                                   "threshold": 0.0, "name": "t51"}, strict=True),
    # n = 1 with a huge d took minutes (thm51) or built 1e9 bases (thm52).
    experiment("thm51-n1-m1-d100000", {"target": "thm51", "params": {"n": 1, "m": 1, "d": 100000},
                                       "rho_grid": [0.1], "trials": 1, "master_seed": 0,
                                       "threshold": 0.0, "name": "n1"}, timeout=20),
    refused("thm52-n1-m1-d1e9", "thm52", {"n": 1, "m": 1, "d": 1000000000}, "n=1, m=1", mem=None),
    # The 2**20-position lift: its orbit ids are 8 MB, where the 2**20 x 20
    # index rows alone would be 160 MB.
    Row("lift-n2-m1-d20-to-stdout-peak", ("lift", "--n", "2", "--m", "1", "--d", "20"),
        written=("{out}.stdout",), peak_mb=150),
    Row("lift-n2-m1-d20-out-peak", ("lift", "--n", "2", "--m", "1", "--d", "20", "--out",
                                    "{out}.csv"), written=("{out}.csv",), peak_mb=150),
]

# Child name: (environment, keep the freed heap?, address-space limit).
CHILDREN = {"blas1": ({"OPENBLAS_NUM_THREADS": "1"}, True, None),
            "blas2": ({"OPENBLAS_NUM_THREADS": "2"}, True, None),
            "heap": ({}, False, None), "capped": ({}, True, LIMIT), "timed": ({}, True, None),
            "strict": ({"PYTHONWARNINGS": "error"}, True, None)}


def processes(row):
    """Where the row runs: "main" (in-process) or children."""
    if row.blas:
        return ["blas1", "blas2", "heap"]
    if row.peak_mb:
        return ["peak"]
    if row.strict:
        return ["strict"]
    if row.mem:
        assert row.mem == CHILDREN["capped"][2]
        return ["capped"]
    return ["timed"] if row.timeout else ["main"]


def resolve(row, process, work):
    """The row's argv, and its {out}, as run in ``process``."""
    out = str(Path(work, process, row.id))
    return [arg.format(config=Path(work, f"{row.id}.json"), out=out) for arg in row.argv], out


def run_command(argv):
    """``cli.main(argv)``: (exit code, seconds, stderr); an uncaught exception
    exits 1 with its traceback, as Python's would."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
    return code, time.perf_counter() - start, err.getvalue()


# Runs its rows through run_command, as this module does; prints each one's
# [exit code, seconds, stderr].
CHILD = """\
import contextlib, io, json, resource, sys, time, traceback
limit, heap, jobs = json.loads(sys.argv[1])
if limit:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from liftcert import cli
if not heap:
    cli._keep_freed_heap = lambda: None
""" + inspect.getsource(run_command) + """
print(json.dumps([run_command(argv) for argv in jobs]))
"""

# Spawns each row as python -m liftcert.cli; prints its [exit code, peak RSS in MB,
# stderr].  A process that execs keeps its parent's peak RSS at the spawn as its
# own floor, so this small parent spawns them, not the test process.
PEAK = """\
import json, os, sys
jobs = json.loads(sys.argv[1])
runs = []
for argv, out in jobs:
    actions = [(os.POSIX_SPAWN_OPEN, fd, out + "." + name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644) for fd, name in ((1, "stdout"), (2, "stderr"))]
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "liftcert.cli", *argv],
                         os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    with open(out + ".stderr") as err:
        runs.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, err.read()])
print(json.dumps(runs))
"""


def spawn(argv, env, out):
    """Start ``python *argv`` in ``out``'s directory, with stdout to ``out``.stdout
    and stderr to ``out``.stderr."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    with open(f"{out}.stdout", "w") as stdout, open(f"{out}.stderr", "w") as stderr:
        return subprocess.Popen([sys.executable, *argv], cwd=out.parent, env=env,
                                stdout=stdout, stderr=stderr)


class Work:
    """The work directory: the inputs and configs, and every child, started at
    once and reaped when a row first asks for it."""

    def __init__(self, path):
        self.path, self.children, self.results = path, {}, {}
        for name, write in INPUTS.items():
            write(path / name)
        for row in ROWS:
            if row.config is not None:
                (path / f"{row.id}.json").write_text(json.dumps(row.config))
        for process in ["main", "peak", *CHILDREN]:
            (path / process).mkdir()
        for name, (env, heap, limit) in CHILDREN.items():
            rows = [row for row in ROWS if name in processes(row)]
            jobs = [resolve(row, name, path)[0] for row in rows]
            spec = json.dumps([limit, heap, jobs])
            # Killed past its rows' timeouts, counting 120 s for a row without one.
            self.children[name] = (spawn(["-c", CHILD, spec], env, path / name), rows,
                                   sum(row.timeout or 120 for row in rows))
        rows = [row for row in ROWS if row.peak_mb]
        spec = json.dumps([resolve(row, "peak", path) for row in rows])
        self.children["peak"] = (spawn(["-c", PEAK, spec], {}, path / "peak"), rows,
                                 120 * len(rows))

    def child(self, name):
        """Each of the child's rows' (exit code, seconds or peak MB, stderr), by row id."""
        if name not in self.results:
            child, rows, timeout = self.children.pop(name)
            try:
                code = child.wait(timeout)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                pytest.fail(f"{name} ran past {timeout} s")
            assert code == 0, f"{name} exited {code}: {(self.path / f'{name}.stderr').read_text()}"
            self.results[name] = dict(zip([row.id for row in rows], json.loads(
                (self.path / f"{name}.stdout").read_text()), strict=True))
        return self.results[name]

    def close(self):
        for child, _, _ in self.children.values():
            child.kill()
            child.wait()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = Work(tmp_path_factory.mktemp("contract"))
    yield work
    work.close()


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS])
def test_row(work, monkeypatch, row):
    monkeypatch.chdir(work.path)
    written = {}
    for process in processes(row):
        argv, out = resolve(row, process, work.path)
        code, measured, stderr = (run_command(argv) if process == "main"
                                  else work.child(process)[row.id])
        if row.peak_mb:
            assert measured <= row.peak_mb, f"peaked at {measured:.1f} MB"
        else:
            assert measured <= (row.timeout or math.inf)
        assert code == row.code and row.message in stderr, (process, code, stderr)
        if row.config is not None and row.code > 1:
            assert not Path(out).exists()
        names = [name.format(out=out) for name in row.written]
        assert all(Path(name).stat().st_size for name in names)
        written[process] = [Path(name).read_bytes() for name in names]
        if row.check:
            row.check(work.path, out)
    # A BLAS row's files have the same bytes in all three processes.
    first, *_ = written.values()
    assert [process for process, files in written.items() if files != first] == []
