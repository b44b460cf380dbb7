"""The three benchmark workloads: inputs, ops and output checks.

A workload is built from the workload seed alone.  Its set-up writes the
inputs the program sees (experiment configs, CSV matrices, certify bases)
into a work directory; ``cycle`` is the fixed list of ops the timed loop
repeats.  An op's ``run`` is the timed call into liftcert's public entry
points; its ``check`` runs outside the timed region and returns a list of
problems (empty when the op's output is correct).

Checks, per op:
- the op raised (``run`` failed);
- an invariant broke: a planted certify did not give ``dont_know``, a
  degenerate control did not stay below its threshold, a prop73 trial
  missed its rank oracle, a healthy config did not pass every trial, a
  spectrum broke the leave-one-out sandwich;
- on the reference seed, a sigma, eta or singular value differs from
  ``reference.json`` by more than 1e-10 relative (values that are zero in
  exact arithmetic get an absolute floor instead);
- a repeat of an op gave output bytes that differ from its first run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from liftcert import cli
from liftcert import varieties as vt

REFERENCE_SEED = 0
REL_TOL = 1e-10
ZERO_FLOOR = 1e-12
# CertificateReport.wall_time_ms is a timing inside a report that should be
# byte-reproducible.  It is counted in varieties.report_nondeterministic_keys
# rather than failing the op; any other key that differs fails it.
KNOWN_NONDETERMINISTIC = {"wall_time_ms"}


class Op(NamedTuple):
    key: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], list]


def derived_seed(seed: int, *path) -> int:
    payload = json.dumps([seed, *path]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")


def compare(label: str, values, refs, exact_zero: bool) -> list:
    if len(values) != len(refs):
        return [f"{label}: {len(values)} values, reference has {len(refs)}"]
    floor = ZERO_FLOOR if exact_zero else 0.0
    return [f"{label}[{i}]: {v!r} differs from reference {r!r}"
            for i, (v, r) in enumerate(zip(values, refs))
            if abs(v - r) > REL_TOL * abs(r) + floor]


def quiet_cli(argv: list) -> int:
    """cli.main with its progress line to stdout swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    """Common bookkeeping: reference values and first-run output bytes."""

    name = ""

    def __init__(self, seed: int, work: Path, reference: dict | None):
        self.seed = seed
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.reference = reference.get(self.name) if reference else None
        self.first_output: dict[str, object] = {}
        self.nondeterministic_keys: set[str] = set()
        self.observed: dict[str, list] = {}

    def same_bytes(self, key: str, data: bytes) -> list:
        first = self.first_output.setdefault(key, data)
        return [] if first == data else [f"{key}: rerun output bytes differ"]

    def against_reference(self, key: str, values: list, exact_zero: bool) -> list:
        self.observed[key] = values
        if self.reference is None:
            return []
        return compare(key, values, self.reference[key], exact_zero)

    def cycle(self) -> list[Op]:
        raise NotImplementedError


class ExperimentWorkload(Workload):
    """Ops that run ``liftcert experiment`` on one config file each.

    ``CONFIGS`` rows are (name, kind, config fields); kind is ``healthy``
    (every trial passes), ``degenerate`` (every sigma stays below the
    threshold; the value is zero in exact arithmetic) or ``rank_oracle``
    (prop73: the pass column is the rank oracle, which every trial must hit).
    """

    CONFIGS: list = []

    def __init__(self, seed, work, reference):
        super().__init__(seed, work, reference)
        self.out_dir = self.work / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.configs = []
        for name, kind, fields in self.CONFIGS:
            config = {**fields, "name": name,
                      "master_seed": derived_seed(seed, self.name, name)}
            if kind != "degenerate":
                config["min_passes"] = fields["trials"]
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(config, sort_keys=True))
            self.configs.append((name, kind, config, path))

    def experiment_op(self, name, kind, config, path) -> Op:
        argv = ["experiment", "--config", str(path), "--out-dir", str(self.out_dir)]

        def check(rc) -> list:
            csv_bytes = (self.out_dir / f"{name}.csv").read_bytes()
            json_bytes = (self.out_dir / f"{name}_summary.json").read_bytes()
            problems = self.same_bytes(name, csv_bytes + json_bytes)
            rows = list(csv.DictReader(
                line for line in csv_bytes.decode().splitlines()
                if not line.startswith("#")))
            sigmas = [float(r["sigma"]) for r in rows]
            passes = [r["pass"] == "1" for r in rows]
            want_rows = config["trials"] * len(config["rho_grid"])
            if len(rows) != want_rows:
                problems.append(f"{name}: {len(rows)} rows, expected {want_rows}")
            if kind == "degenerate":
                if any(passes) or max(sigmas) >= config["threshold"]:
                    problems.append(f"{name}: degenerate control reached sigma "
                                    f"{max(sigmas):.3e} >= {config['threshold']}")
            elif rc != 0 or not all(passes):
                what = "rank oracle missed" if kind == "rank_oracle" else "trial failed"
                problems.append(f"{name}: {what} ({passes.count(False)} of "
                                f"{len(passes)}, exit {rc})")
            scaling = json.loads(json_bytes).get("scaling")
            if scaling and not (scaling["median_nondecreasing"] and scaling["envelope_ok"]):
                problems.append(f"{name}: scaling flags {scaling}")
            problems += self.against_reference(name, sigmas, kind == "degenerate")
            return problems

        units = config["trials"] * len(config["rho_grid"])
        return Op(name, units, lambda: quiet_cli(argv), check)

    def cycle(self) -> list[Op]:
        return [self.experiment_op(*c) for c in self.configs]


class McLift(ExperimentWorkload):
    name = "mc_lift"
    CONFIGS = [
        ("thm51_scaling", "healthy",
         {"target": "thm51", "params": {"n": 10, "m": 4, "d": 3},
          "rho_grid": [0.1, 0.2, 0.4, 0.8, 1.6], "trials": 2,
          "threshold": 1e-7, "study": "scaling"}),
        ("thm51_duplicated", "degenerate",
         {"target": "thm51", "params": {"n": 10, "m": 4, "d": 3, "base": "duplicated"},
          "rho_grid": [1e-300], "trials": 6, "threshold": 1e-7}),
        ("cor53", "healthy",
         {"target": "cor53", "params": {"n": 10, "m": 3, "d": 3, "blocks": 2},
          "rho_grid": [0.3], "trials": 5, "threshold": 1e-7}),
        ("conj81", "healthy",
         {"target": "conj81", "params": {"n": 10, "m": 3, "s": 3, "d": 3},
          "rho_grid": [0.5], "trials": 3, "threshold": 1e-6}),
        ("conj81_duplicate", "degenerate",
         {"target": "conj81",
          "params": {"n": 10, "m": 3, "s": 3, "d": 3, "control": "duplicate"},
          "rho_grid": [0.5], "trials": 3, "threshold": 1e-6}),
        ("thm52", "healthy",
         {"target": "thm52", "params": {"n": 6, "m": 3, "d": 3},
          "rho_grid": [0.3], "trials": 70, "threshold": 1e-7}),
    ]


class PowersumSpectral(ExperimentWorkload):
    name = "powersum_spectral"
    CONFIGS = [
        ("prop71", "healthy",
         {"target": "prop71", "params": {"n": 3, "m": 3},
          "rho_grid": [0.3], "trials": 1, "threshold": 1e-8}),
        ("conj82", "healthy",
         {"target": "conj82", "params": {"dim": 6, "r": 4, "N": 100},
          "rho_grid": [0.3], "trials": 1, "threshold": 1e-6}),
        ("prop73", "rank_oracle",
         {"target": "prop73", "params": {"n": 10, "m": 8},
          "rho_grid": [0.3], "trials": 1, "threshold": 1e-8}),
        ("claim76", "healthy",
         {"target": "claim76", "params": {"n": 10, "m": 4},
          "rho_grid": [0.3], "trials": 1, "threshold": 1e-8}),
        ("lemma74", "healthy",
         {"target": "lemma74", "params": {"n": 10, "m": 6},
          "rho_grid": [0.3], "trials": 1, "threshold": 1e-8}),
        ("prop72", "healthy",
         {"target": "prop72", "params": {"n": 8, "m": 3, "ell": 3},
          "rho_grid": [0.3], "trials": 24, "threshold": 1e-8}),
    ]
    SPECTRUM_SHAPE = (200, 60)
    SPECTRUM_COUNT = 3

    def __init__(self, seed, work, reference):
        super().__init__(seed, work, reference)
        self.matrices = []
        for k in range(self.SPECTRUM_COUNT):
            A = np.random.default_rng([seed, k]).standard_normal(self.SPECTRUM_SHAPE)
            path = self.work / f"spectrum_{k}.csv"
            path.write_text("".join(",".join(format(x, ".17g") for x in row) + "\n"
                                    for row in A.tolist()))
            self.matrices.append(path)

    def spectrum_op(self, k: int, path: Path) -> Op:
        key = f"spectrum_{k}"
        out = self.out_dir / f"{key}.json"
        argv = ["spectrum", "--matrix", str(path), "--leave-one-out", "--out", str(out)]

        def check(rc) -> list:
            data = out.read_bytes()
            problems = self.same_bytes(key, data)
            payload = json.loads(data)
            s = payload["singular_values"]
            loo = payload["leave_one_out"]
            cols = payload["shape"][1]
            if rc != 0 or not loo / math.sqrt(cols) <= s[-1] * (1 + 1e-12) \
                    or not s[-1] <= loo * (1 + 1e-12):
                problems.append(f"{key}: leave-one-out sandwich broken "
                                f"(loo {loo!r}, sigma_min {s[-1]!r}, exit {rc})")
            problems += self.against_reference(key, s + [loo], False)
            return problems

        return Op(key, 1, lambda: quiet_cli(argv), check)

    def cycle(self) -> list[Op]:
        return super().cycle() + [self.spectrum_op(k, p)
                                  for k, p in enumerate(self.matrices)]


class Certify(Workload):
    """Operators built in set-up, then many ``varieties.certify`` calls.

    Each operator gets perturbed random bases (certified far) and planted
    bases whose first column lies on the variety (``dont_know``).
    """

    name = "certify"
    # spec -> (perturbed bases, planted bases).  The counts put the median op
    # inside the determinantal:4,4,2 calls and p90 inside the 5,5,2 calls,
    # away from the jumps between operator sizes.
    SPECS = {"determinantal:4,4,1": (4, 1), "determinantal:4,4,2": (10, 2),
             "determinantal:5,5,2": (10, 2), "separable:2,2,2": (4, 1)}
    M = 3
    RHO = 0.1
    TOLERANCE = 1e-9

    def __init__(self, seed, work, reference):
        super().__init__(seed, work, reference)
        self.ops = {spec: vt.variety_from_spec(spec) for spec in self.SPECS}
        self.bases = []
        for s, (spec, op) in enumerate(self.ops.items()):
            perturbed, planted_count = self.SPECS[spec]
            for j in range(perturbed + planted_count):
                rng = np.random.default_rng([seed, s, j])
                B = rng.standard_normal((op.n, self.M))
                B /= np.linalg.norm(B, axis=0)
                planted = j >= perturbed
                if planted:
                    B[:, 0] = self.planted_point(spec, derived_seed(seed, spec), j)
                else:
                    B += self.RHO * rng.standard_normal(B.shape)
                Q = vt.orthonormalize_basis(B, keep_first=planted)
                self.bases.append((f"{spec}#{j}", op, Q, planted))

    @staticmethod
    def planted_point(spec: str, seed: int, tag: int) -> np.ndarray:
        kind, _, args = spec.partition(":")
        nums = [int(t) for t in args.split(",")]
        if kind == "determinantal":
            return vt.random_rank_le_point(*nums, seed=seed, tag=tag)
        return vt.random_separable_point(tuple(nums), seed=seed, tag=tag)

    def certify_op(self, key, op, Q, planted) -> Op:
        def check(report) -> list:
            problems = []
            want = "dont_know" if planted else "certified_far"
            if report.verdict != want:
                problems.append(f"{key}: verdict {report.verdict}, expected {want} "
                                f"(eta {report.eta!r})")
            payload = report.to_json()
            first = self.first_output.setdefault(key, payload)
            changed = {k for k in payload if payload[k] != first.get(k)}
            self.nondeterministic_keys |= changed
            if changed - KNOWN_NONDETERMINISTIC:
                problems.append(f"{key}: rerun report differs in "
                                f"{sorted(changed - KNOWN_NONDETERMINISTIC)}")
            problems += self.against_reference(key, [report.eta], planted)
            return problems

        return Op(key, 1, lambda: vt.certify(op, Q, tolerance=self.TOLERANCE), check)

    def cycle(self) -> list[Op]:
        return [self.certify_op(*b) for b in self.bases]


WORKLOADS = {cls.name: cls for cls in (McLift, Certify, PowersumSpectral)}
