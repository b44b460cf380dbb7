"""Command-line frontend: lift inspection, spectrum queries, certificates,
and the Monte Carlo experiment targets, all with deterministic seeded I/O.

Exit codes: 0 on success (and on configured acceptance passing), 1 when a
configured acceptance threshold fails, 2 on usage errors or malformed input
files, 3 when a numerical routine or arithmetic fails in the library or an
allocation that passed the size cap does not fit in memory.  Every
output records the fully resolved configuration in its header.

Each command runs with OpenBLAS on one thread, restored when it returns.
The first command of a process also sets glibc's mmap and trim thresholds,
so trials reuse freed heap pages instead of faulting in fresh ones; that
setting is never restored, and is skipped where ``mallopt`` is absent.
Importing this module sets neither.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness as hs
from . import rng as _rng
from .matrixio import dump_json, format_float, load_matrix_csv, matrix_to_csv, write_text
from .spectral import _rank_of_values, leave_one_out, singular_values
from .tensor_lift import MAX_DENSE_ENTRIES, sym_lift
from .varieties import certify as run_certify
from .varieties import orthonormalize_basis, variety_from_spec


def _at_least(kind: type, low):
    """argparse type: a finite ``kind`` (int or float) of at least ``low``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(
                f"must be a finite {kind.__name__} >= {low}, got {text!r}")
        return value
    return parse


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_base_matrix(spec: str, n: int, m: int, seed: int) -> np.ndarray:
    if spec == "id":
        return np.eye(n, m)
    if spec == "random" or spec.startswith("random:"):
        tail = spec[len("random:"):]
        try:
            local_seed = int(tail) if spec != "random" else seed
        except ValueError:
            raise ValueError(f"--matrix random:seed: seed must be an int, got {tail!r}") from None
        return _rng.unit_columns((n, m), local_seed, "cli", "lift_base")
    if spec.startswith("file:"):
        M = load_matrix_csv(spec[len("file:"):])
        if M.shape != (n, m):
            raise ValueError(f"matrix file has shape {M.shape}, expected ({n}, {m})")
        return M
    raise ValueError(f"unknown matrix spec {spec!r} (use id, random[:seed], file:path)")


def _cmd_lift(args) -> int:
    U = _load_base_matrix(args.matrix, args.n, args.m, args.seed)
    L = sym_lift(U, args.d)
    config = {"command": "lift", "n": args.n, "m": args.m, "d": args.d,
              "matrix": args.matrix, "seed": args.seed}
    header = [f"config: {json.dumps(config, sort_keys=True)}",
              f"descriptor: {json.dumps(L.descriptor(), sort_keys=True)}"]
    _emit(matrix_to_csv(L.data, header), args.out)
    if args.descriptor:
        write_text(args.descriptor, dump_json(L.descriptor()))
    return 0


def _cmd_spectrum(args) -> int:
    A = load_matrix_csv(args.matrix)
    s = singular_values(A)
    payload = {
        "config": {"command": "spectrum", "matrix": args.matrix, "tol": args.tol},
        "shape": list(A.shape),
        "singular_values": [float(x) for x in s],
        "numerical_rank": _rank_of_values(s, args.tol),
    }
    if args.leave_one_out:
        payload["leave_one_out"] = leave_one_out(A)
    _emit(dump_json(payload), args.out)
    return 0


def _resolve_basis(spec: str, op, rho: float, seed: int) -> tuple[np.ndarray, bool]:
    """Returns (orthonormal basis, planted?) for the certify subcommand."""
    if spec.startswith("random:"):
        try:
            m = _at_least(int, 1)(spec[len("random:"):])
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"--basis random:m: m {exc}") from exc
        base = _rng.unit_columns((op.n, m), seed, "cli", "basis")
        pert = base + rho * _rng.gaussians((op.n, m), seed, "cli", "basis_noise")
        return orthonormalize_basis(pert), False
    if spec.startswith("planted:"):
        path, _, index = spec[len("planted:"):].partition("+")
        if not index:
            raise ValueError("planted basis needs the form planted:path.csv+index")
        try:
            idx = _at_least(int, 0)(index)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"--basis planted:path.csv+index: index {exc}") from exc
        B = load_matrix_csv(path)
        if idx >= B.shape[1]:
            raise ValueError(f"planted column index {idx} out of range")
        order = [idx] + [j for j in range(B.shape[1]) if j != idx]
        return orthonormalize_basis(B[:, order], keep_first=True), True
    path = spec[len("file:"):] if spec.startswith("file:") else spec
    return orthonormalize_basis(load_matrix_csv(path)), False


def _cmd_certify(args) -> int:
    try:
        op = variety_from_spec(args.variety)
    except ValueError as exc:
        raise ValueError(f"--variety: {exc}") from exc
    basis, planted = _resolve_basis(args.basis, op, args.rho, args.seed)
    report = run_certify(op, basis, tolerance=args.tol)
    payload = {
        "config": {"command": "certify", "variety": args.variety,
                   "basis": args.basis, "rho": args.rho, "seed": args.seed,
                   "tol": args.tol, "planted": planted,
                   "generator_count": op.p},
    }
    payload.update(report.to_json())
    _emit(dump_json(payload), args.out)
    return 0


def _cmd_experiment(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {args.config} is not valid JSON: {exc}") from exc
    config = hs.ExperimentConfig.from_dict(raw)
    result = hs.run_experiment(config)
    # Both texts are built first, so a serialization error writes no file.
    csv_text, json_text = result.to_csv(), dump_json(result.summary())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.name}.csv"
    json_path = out_dir / f"{config.name}_summary.json"
    write_text(csv_path, csv_text)
    write_text(json_path, json_text)
    sys.stdout.write(f"wrote {csv_path} and {json_path}\n")
    return 0 if result.accepted() else 1


def _cmd_powersum(args) -> int:
    params = {key: getattr(args, key) for key in _powersum_params()
              if getattr(args, key) is not None}
    threshold = args.threshold if args.threshold is not None \
        else hs.TARGETS[args.check].threshold
    config = hs.ExperimentConfig(
        target=args.check, params=params, rho_grid=[args.rho],
        trials=args.trials, master_seed=args.seed, threshold=threshold,
        name=f"powersum_{args.check}", min_passes=args.min_passes)
    result = hs.run_experiment(config)
    lines = [f"# config: {json.dumps(config.resolved(), sort_keys=True)}"]
    lines.append("trial,seed,sigma_target,threshold,pass")
    for r in result.reports:
        lines.append(",".join([str(r.trial), str(r.seed), format_float(r.sigma),
                               format_float(r.threshold), str(int(r.passed))]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if result.accepted() else 1


def _powersum_params() -> list[str]:
    """The int params of the powersum checks; each has a --flag."""
    return list(dict.fromkeys(name for target in hs.TARGETS.values()
                              if target.threshold is not None
                              for name, param in target.params.items() if param.type is int))


@functools.cache
def _openblas_threads() -> list:
    """(get, set) thread counts of each OpenBLAS in /proc/self/maps: numpy has no thread API,
    and OpenBLAS reads OPENBLAS_NUM_THREADS only as it loads.  Empty on macOS, MKL, Accelerate."""
    try:
        with open("/proc/self/maps") as maps:
            libs = [ctypes.CDLL(path) for path in {line.split(maxsplit=5)[-1].strip()
                                                   for line in maps if "openblas" in line}]
    except OSError:
        return []
    pairs = [tuple(getattr(lib, f"{name}_{verb}_num_threads{tail}", None) for verb in ("get", "set"))
             for lib in libs for name in ("scipy_openblas", "openblas") for tail in ("64_", "")]
    return [pair for pair in pairs if all(pair)]


@functools.cache
def _keep_freed_heap() -> None:
    """Have glibc serve arrays below 32 MiB (the largest mmap threshold it accepts) from the heap,
    and trim the heap only past 8 * MAX_DENSE_ENTRIES free bytes, so a trial reuses the pages the
    last one freed instead of faulting in fresh ones.  Set once per process and not restored:
    glibc has no getter, and setting either turns off its dynamic threshold.  A no-op where
    there is no ``mallopt`` or it refuses the value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 8 * MAX_DENSE_ENTRIES)  # M_TRIM_THRESHOLD


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process."""
    parser = argparse.ArgumentParser(
        prog="liftcert",
        description="Symmetrized tensor lifts of smoothed matrices: builders, "
                    "distance certificates, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="emit the symmetric lift of a matrix as CSV")
    p_lift.add_argument("--n", type=_at_least(int, 1), required=True)
    p_lift.add_argument("--m", type=_at_least(int, 1), required=True)
    p_lift.add_argument("--d", type=_at_least(int, 1), required=True)
    p_lift.add_argument("--matrix", default="id",
                        help="id | random[:seed] | file:path.csv")
    p_lift.add_argument("--seed", type=int, default=0)
    p_lift.add_argument("--out", default=None)
    p_lift.add_argument("--descriptor", default=None,
                        help="also write the JSON column descriptor here")
    p_lift.set_defaults(func=_cmd_lift)

    p_spec = sub.add_parser("spectrum", help="singular values and rank of a CSV matrix")
    p_spec.add_argument("--matrix", required=True)
    p_spec.add_argument("--tol", type=_at_least(float, 0.0), default=None)
    p_spec.add_argument("--leave-one-out", action="store_true")
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_cert = sub.add_parser("certify",
                            help="certificate that a subspace is far from a variety")
    p_cert.add_argument("--variety", required=True,
                        help="determinantal:n1,n2,r or separable:n1,n2[,...]")
    p_cert.add_argument("--basis", required=True,
                        help="random:m | file:path.csv | path.csv | planted:path.csv+index")
    p_cert.add_argument("--rho", type=_at_least(float, 0.0), default=0.0,
                        help="perturbation scale for random bases")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--tol", type=_at_least(float, 0.0), default=1e-9)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_exp = sub.add_parser(
        "experiment",
        help="run a JSON-configured Monte Carlo experiment",
        description="Targets: " + ", ".join(hs.TARGETS)
                    + ". The config file fields are target, params, rho_grid, "
                      "trials, master_seed, threshold, name, min_passes, study.")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out-dir", default=".")
    p_exp.set_defaults(func=_cmd_experiment)

    p_pow = sub.add_parser("powersum", help="run one structured-matrix check")
    p_pow.add_argument("--check", required=True,
                       choices=[name for name, target in hs.TARGETS.items()
                                if target.threshold is not None])
    for name in _powersum_params():
        p_pow.add_argument(f"--{name}", type=int, default=None)
    p_pow.add_argument("--rho", type=_at_least(float, 0.0), required=True)
    p_pow.add_argument("--trials", type=int, required=True)
    p_pow.add_argument("--seed", type=int, required=True)
    p_pow.add_argument("--threshold", type=float, default=None)
    p_pow.add_argument("--min-passes", type=int, default=None)
    p_pow.add_argument("--out", default=None)
    p_pow.set_defaults(func=_cmd_powersum)

    return parser


def main(argv=None) -> int:
    """Run one command with OpenBLAS on one thread, so bytes do not depend on the core count,
    and with the freed heap kept for the next trial (``_keep_freed_heap``)."""
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    restore = [(set_threads, get()) for get, set_threads in _openblas_threads()]
    try:
        for set_threads, _ in restore:
            set_threads(1)
        return args.func(args)
    except (np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        for set_threads, count in restore:
            set_threads(count)


if __name__ == "__main__":
    sys.exit(main())
