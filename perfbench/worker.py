"""One workload in one process; started by run.py, never by hand.

Modes:
- ``setup``: import, generate inputs, build (certify: the operators), stop.
  Reports the time from ``--spawn-time`` (the parent's ``time.monotonic()``
  just before it started this process) to the end of set-up.
- ``measure``: set up, run one untimed warm-up cycle, then repeat whole op
  cycles until ``--seconds`` have passed; time each op with tracing off.
- ``trace``: set up with the tracer on, then run ``TRACE_CYCLES`` pairs of
  cycles, one with the tracer off and one with it on, and report per-layer
  metrics from the traced cycles.  The traced run does a fixed amount of
  work so that its counts repeat exactly.
- ``reference``: one untraced cycle on the reference seed; writes the values
  the checks compare against.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_CYCLES = {"mc_lift": 40, "certify": 25, "powersum_spectral": 25}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LIFTCERT_THREADS")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liftcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_cycles(workload, cycles: int | None, seconds: float, tracer=None) -> dict:
    """Run whole cycles: ``cycles`` of them, or until ``seconds`` have passed.

    Only the op call is timed; checks run between ops, outside the timing.
    The result keeps each op's (wall, process CPU) times by op key, and the
    timed wall and completed units summed over the cycles.
    """
    ops = workload.cycle()
    lat: dict[str, list] = {op.key: [] for op in ops}
    problems = []
    failed = attempted = done = units = 0
    wall = 0.0
    start = time.perf_counter()
    while (done < cycles) if cycles is not None else (
            not done or time.perf_counter() - start < seconds):
        for op in ops:
            attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.op(op.key):
                        out = op.run()
                else:
                    out = op.run()
                err = []
            except Exception as exc:  # an op that raises counts as failed
                err = [f"{op.key}: raised {exc!r}"]
            t1 = time.perf_counter()
            c1 = time.process_time()
            lat[op.key].append((t1 - t0, c1 - c0))
            wall += t1 - t0
            if not err:
                try:
                    err = op.check(out)
                except Exception as exc:  # unreadable output fails the op
                    err = [f"{op.key}: check raised {exc!r}"]
            if err:
                failed += 1
                problems += err
            else:
                units += op.units
        done += 1
    return {"latencies": lat, "wall": wall, "units": units,
            "attempted": attempted, "failed": failed, "cycles": done, "ops": len(ops),
            "problems": problems[:20]}


def merge_runs(runs: list[dict]) -> dict:
    """Totals of several run_cycles results (latencies dropped).

    ``best_wall`` sums each op's fastest run over all of them, the same
    per-op timing ``end_to_end`` uses.
    """
    keys = runs[0]["latencies"]
    return {"wall": sum(r["wall"] for r in runs),
            "best_wall": sum(min(w for r in runs for w, _c in r["latencies"][k])
                             for k in keys),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": [p for r in runs for p in r["problems"]][:20]}


def end_to_end(run: dict) -> dict:
    """End-to-end metrics of one measured run.

    The host's speed switches between a fast and a slow state: an op's
    process CPU time rises about 1.6x for seconds at a time, with no steal
    time recorded, and the share of slow time differs between runs by more
    than the bounds allow.  Means and quantiles of raw latencies follow
    that share.  So each op is timed by its fastest run in the measured
    cycles (as ``timeit`` does), which reads the program's cost in the
    fast state.  p50/p90 are taken over the ops of a cycle; those ops are
    the whole population, not a sample of it, hence the inclusive method.
    Throughput and CPU per unit come from the sums of the per-op times.
    """
    best_wall = [min(w for w, _c in v) for v in run["latencies"].values()]
    best_cpu = [min(c for _w, c in v) for v in run["latencies"].values()]
    deciles = statistics.quantiles(best_wall, n=10, method="inclusive")
    units_per_cycle = run["units"] / run["cycles"]
    return {
        "trials_per_s": units_per_cycle / sum(best_wall),
        "op_ms_p50": deciles[4] * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
        "cpu_ms_per_trial": sum(best_cpu) * 1e3 / max(units_per_cycle, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_op_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "reference"),
                        required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads  # imports liftcert, whose loaded modules the tracer patches
    from tracing import Tracer

    reference = None
    if args.mode != "reference" and args.seed == workloads.REFERENCE_SEED:
        reference = json.loads((HERE / "reference.json").read_text())
    tracer = Tracer() if args.mode == "trace" else None
    cls = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install()
        with tracer.op("setup"):
            workload = cls(args.seed, Path(args.work), reference)
        tracer.uninstall()
    else:
        workload = cls(args.seed, Path(args.work), reference)
    setup_s = time.monotonic() - args.spawn_time
    result = {"setup_s": setup_s}

    if args.mode == "measure":
        # One untimed cycle first, so lazy imports and caches are warm; its
        # ops are checked and counted like the timed ones.
        warm = run_cycles(workload, 1, 0.0)
        run = run_cycles(workload, None, args.seconds)
        for key in ("attempted", "failed"):
            run[key] += warm[key]
        run["problems"] = (warm["problems"] + run["problems"])[:20]
        result.update(metrics=end_to_end(run), env=environment())
        del run["latencies"]
        result["run"] = run
    elif args.mode == "trace":
        # Untraced and traced cycles alternate, so drift in machine speed
        # cancels out of the overhead ratio, which compares each op's fastest
        # traced run with its fastest untraced run.
        cycles = TRACE_CYCLES[args.workload]
        plain, traced = [], []
        for _ in range(cycles):
            plain.append(run_cycles(workload, 1, 0.0))
            tracer.install()
            traced.append(run_cycles(workload, 1, 0.0, tracer))
            tracer.uninstall()
        plain, traced = merge_runs(plain), merge_runs(traced)
        layers = tracer.metrics()
        layers["trace.overhead_ratio"] = traced["best_wall"] / plain["best_wall"] - 1.0
        layers["varieties.report_nondeterministic_keys"] = len(
            workload.nondeterministic_keys)
        env = environment()
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(exist_ok=True)
        tracer.write_jsonl(trace_path, {"env": env, "workload": args.workload,
                                        "seed": args.seed, "cycles": cycles})
        result.update(plain=plain, traced=traced, layers=layers, env=env,
                      top_layers=tracer.top_layers(),
                      trace_file=str(trace_path.relative_to(ROOT)),
                      nondeterministic_keys=sorted(workload.nondeterministic_keys))
    elif args.mode == "reference":
        run = run_cycles(workload, 1, 0.0)
        result.update(run={k: run[k] for k in ("attempted", "failed", "problems")},
                      observed=workload.observed)

    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
