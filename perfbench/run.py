"""Benchmark for liftcert: three seeded workloads through its public entry points.

    python3 perfbench/run.py --workload mc_lift --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; liftcert is imported from ``src``
with the program's defaults (no thread variable is set or changed).  Each
workload runs in its own worker process (``worker.py``), with its load on
that one process.  Workloads (see ``workloads.py``):

- ``mc_lift``: cheap Monte Carlo experiments (thm51 scaling study and its
  duplicated-base control, cor53, conj81 and its duplicate control, thm52),
  one ``liftcert experiment`` call per op;
- ``certify``: four variety operators built in set-up, then
  ``varieties.certify`` calls on perturbed and planted bases;
- ``powersum_spectral``: expensive power-sum experiments (prop71, conj82,
  prop73, claim76, lemma74, prop72) and ``liftcert spectrum
  --leave-one-out`` on 200x60 CSV matrices.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s`` (the
median of ``SETUP_REPS`` fresh processes, each timed from its start to the
end of its set-up), and from one worker that repeats whole op cycles for
``--seconds``: ``trials_per_s``, ``op_ms_p50``/``op_ms_p90`` (over the ops
of a cycle, each op timed by its fastest run; see ``worker.end_to_end``),
``cpu_ms_per_trial`` (process CPU, all threads), ``peak_rss_mb`` and
``ok_op_ratio`` (ops that passed every check over ops attempted).  With
``--trace 1`` a worker wraps liftcert's public functions (``tracing.py``)
and the run prints the per-layer metrics, the tracing overhead, and a
self-check against ``predictions.json``; spans go to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
RUN_LIMIT_S = 170.0
WORKLOADS = ("mc_lift", "certify", "powersum_spectral")
UNITS = {"setup_s": "s", "trials_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "cpu_ms_per_trial": "ms", "peak_rss_mb": "MB", "ok_op_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def spawn(mode: str, args, work: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    out = work / f"{mode}-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work", str(work / mode), "--out", str(out),
           "--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.read_text())


def measure(args, work: Path, deadline: float) -> tuple[dict, dict]:
    setups = [spawn("setup", args, work, deadline)["setup_s"]
              for _ in range(SETUP_REPS - 1)]
    res = spawn("measure", args, work, deadline)
    setups.append(res["setup_s"])
    run = res["run"]
    metrics = {"setup_s": statistics.median(setups), **res["metrics"]}
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "trials_per_s": f"a cycle's units over the sum of its ops' fastest runs; "
                        f"{run['units']} units in {run['wall']:.2f} s of timed ops",
        "op_ms_p50": f"over the {run['ops']} ops of a cycle, each its fastest of "
                     f"{run['cycles']} runs",
        "op_ms_p90": f"over the {run['ops']} ops of a cycle, n={run['attempted']} ops run",
        "cpu_ms_per_trial": "process CPU of each op's fastest run, per unit",
        "peak_rss_mb": "peak resident set of the measuring worker",
        "ok_op_ratio": f"{run['failed']} failed of {run['attempted']}",
    }
    lines = [f"  {name:<18} {value:>14.6g} {UNITS[name]:<5} ({notes[name]})"
             for name, value in metrics.items()]
    return res, {"metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
                 "lines": lines, "run": run}


def self_check(workload: str, layers: dict) -> list:
    """Names predictions.json expects to be heavy here must record calls."""
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    problems = []
    for row in rows:
        if row["on"] not in (workload, "all"):
            continue
        for name in row["layer"]:
            if name.startswith("*"):
                continue
            stem = name.rsplit(".", 1)[0]
            probe = f"{stem}.calls" if f"{stem}.calls" in layers else name
            if not layers.get(probe):
                problems.append(f"self-check: {probe} is zero on {workload}")
    return problems


def trace(args, work: Path, deadline: float) -> tuple[dict, dict]:
    sys.path.insert(0, str(HERE))
    from tracing import COUNTERS, LABELS, STATS

    res = spawn("trace", args, work, deadline)
    layers = res["layers"]
    units = {f"{label}.{stat}": ("count" if stat == "calls" else "s")
             for label in LABELS for stat in STATS}
    units.update(COUNTERS)
    units.update({"trace.overhead_ratio": "ratio",
                  "varieties.report_nondeterministic_keys": "count"})
    lines = [f"  {'layer':<40} {'calls':>8} {'busy_s':>10} {'self_s':>10} "
             f"{'wait_s':>10}  (wait_s over-reports for BLAS calls)"]
    for label in sorted(LABELS, key=lambda lb: -layers[f"{lb}.self_s"]):
        if layers[f"{label}.calls"]:
            lines.append(f"  {label:<40} {layers[f'{label}.calls']:>8} "
                         + " ".join(f"{layers[f'{label}.{s}']:>10.4f}"
                                    for s in STATS[1:]))
    for name in list(COUNTERS) + ["trace.overhead_ratio",
                                  "varieties.report_nondeterministic_keys"]:
        tag = " (computed)" if name in COUNTERS and name != "harness.threads_seen" else ""
        lines.append(f"  {name:<40} {layers[name]:>14.6g} {units[name]}{tag}")
    lines.append(f"  heaviest layers by self_s, per op (set-up took {res['setup_s']:.3f} s "
                 f"from process start, traced):")
    for op, top in res["top_layers"].items():
        lines.append(f"    {op:<24} " + ", ".join(f"{lb} {t:.3f}" for lb, t in top))
    if res["nondeterministic_keys"]:
        lines.append(f"  report keys that differ between identical certify calls: "
                     f"{res['nondeterministic_keys']} (known defect, not an op failure)")
    lines.append(f"  spans: {res['trace_file']}")
    res["problems"] = self_check(args.workload, layers)
    run = {k: res["plain"][k] + res["traced"][k] for k in ("attempted", "failed")}
    run["problems"] = res["plain"]["problems"] + res["traced"]["problems"]
    metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    return res, {"metrics": metrics, "lines": lines, "run": run}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "liftcert" / "__init__.py").is_file():
        sys.stderr.write(f"error: no liftcert source under {ROOT / 'src'}\n")
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE / "out"))
    try:
        res, report = (trace if args.trace else measure)(args, work, deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = report["run"]
    problems = run["problems"] + res.get("problems", [])
    correct = run["failed"] == 0 and not problems
    print(f"env: {json.dumps(res['env'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run['attempted']} ops, {run['failed']} failed")
    print("\n".join(report["lines"]))
    for problem in problems:
        print(f"  FAIL {problem}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
