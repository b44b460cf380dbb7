"""Rewrite reference.json: every checked value of one op cycle per workload.

    python3 perfbench/make_reference.py

Runs each workload once on the reference seed and stores the sigmas, etas
and singular values its ops produced.  Run it only when a change to the
program is meant to change those values, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

REFERENCE_SEED = 0


def main() -> int:
    (run.HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=run.HERE / "out"))
    reference = {"seed": REFERENCE_SEED}
    try:
        for workload in run.WORKLOADS:
            args = argparse.Namespace(workload=workload, seed=REFERENCE_SEED, seconds=0)
            res = run.spawn("reference", args, work, time.monotonic() + 600)
            if res["run"]["failed"]:
                sys.stderr.write(f"{workload}: {res['run']['problems']}\n")
                return 1
            reference[workload] = res["observed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
