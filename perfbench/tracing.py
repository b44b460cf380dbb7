"""Outside-in tracing of liftcert's public functions.

The tracer rebinds each listed function in every ``liftcert`` module that
holds it (``liftcert.harness.sym_lift``, ``liftcert.cli.run_certify``, ...)
to a wrapper that records one span per call.  Calls made inside a module go
through its globals, so they are caught as well; the program itself is not
edited.  ``ExperimentResult.to_csv`` is wrapped on its class and reported as
``matrixio.serialize``.

A span holds its name, start, end, parent span, thread id and the benchmark
op it belongs to.  Spans stay in memory until ``write_jsonl``.  Per layer the
tracer reports, summed over spans:

- ``calls``;
- ``busy_s``: span wall time (thread-seconds when calls overlap);
- ``self_s``: span wall time minus the part of it that child spans cover.
  Children include spans on trial-pool threads, so a layer that waits on
  the pool is charged only for the time no child layer was running;
- ``wait_s``: span wall time minus the calling thread's CPU time.  This is
  interpreter-lock or scheduler wait, but it over-reports for BLAS calls,
  whose helper threads do part of the work.

Counters labelled "computed" are derived from argument and result shapes,
not measured.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import sys
import threading
import time

WRAPPED = [
    ("rng", "gaussians"),
    ("tensor_lift", "sym_lift"), ("tensor_lift", "sym_kron"),
    ("tensor_lift", "sym_project"), ("tensor_lift", "sym_merge"),
    ("tensor_lift", "enumerate_multi_indices"), ("tensor_lift", "sel_avg"),
    ("tensor_lift", "kron_power"),
    ("spectral", "singular_values"), ("spectral", "leave_one_out"),
    ("varieties", "variety_from_spec"), ("varieties", "build_phi"),
    ("varieties", "determinantal_generators"),
    ("varieties", "separable_generators"), ("varieties", "certify"),
    ("powersum", "build_power_matrix"), ("powersum", "symmetric_cube_lift"),
    ("powersum", "build_sym4_IkronA"), ("powersum", "build_claim_W"),
    ("powersum", "build_solution_space_M"), ("powersum", "build_block_lift"),
    ("powersum", "build_projected_V"), ("powersum", "make_power_sum_instance"),
    ("harness", "run_experiment"),
    ("matrixio", "dump_json"), ("matrixio", "load_matrix_csv"),
    ("matrixio", "matrix_sha256"),
    ("cli", "main"),
]
SERIALIZE_LABEL = "matrixio.serialize"
LABELS = [f"{mod}.{fn}" for mod, fn in WRAPPED] + [SERIALIZE_LABEL]
STATS = ("calls", "busy_s", "self_s", "wait_s")

# Computed counters, each with its unit.
COUNTERS = {
    "rng.values_drawn": "count",
    "tensor_lift.lift_bytes_computed": "B",
    "spectral.svd_flop_computed": "flop",
    "varieties.phi_bytes_computed": "B",
    "varieties.generators_kept_ratio": "ratio",
    "matrixio.bytes_written": "B",
    "harness.threads_seen": "count",
}


def _svd_values_flops(m: int, n: int) -> float:
    """Golub-Reinsch SVD, singular values only (Golub & Van Loan)."""
    m, n = max(m, n), min(m, n)
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _svd_thin_u_flops(m: int, n: int) -> float:
    """Golub-Reinsch SVD with the thin left factor (Golub & Van Loan)."""
    m, n = max(m, n), min(m, n)
    return 14.0 * m * n * n + 8.0 * n**3


def _count(label, args, result, add) -> None:
    """Add the computed counters one call contributes."""
    if label == "rng.gaussians":
        add("rng.values_drawn", result.size)
    elif label == "tensor_lift.sym_kron":
        add("tensor_lift.lift_bytes_computed", result.data.nbytes)
    elif label == "tensor_lift.kron_power":
        add("tensor_lift.lift_bytes_computed", result.nbytes)
    elif label == "spectral.singular_values":
        add("spectral.svd_flop_computed", _svd_values_flops(*args[0].shape))
    elif label == "spectral.leave_one_out":
        rows, cols = args[0].shape
        if cols > 1:
            add("spectral.svd_flop_computed",
                cols * _svd_thin_u_flops(rows, cols - 1))
    elif label == "varieties.build_phi":
        add("varieties.phi_bytes_computed",
            result.phi.nbytes + result.generators.nbytes)
        add("varieties.generators_offered", len(args[0]))
        add("varieties.generators_kept", result.p)
    elif label in ("matrixio.dump_json", SERIALIZE_LABEL):
        add("matrixio.bytes_written", len(result.encode()))


class Tracer:
    """Span recorder for one process; install() patches, uninstall() restores.

    A span opened on a thread with no open span of its own (a trial-pool
    worker) takes as parent the innermost open span of the thread that
    started the current op, so pool work nests under ``run_experiment``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self._op_stack: list = []
        self._ids = itertools.count(1)
        self._op_seq = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counts: collections.Counter = collections.Counter()
        self._patches: list[tuple] = []
        self.epoch = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, amount) -> None:
        with self._lock:
            self._counts[name] += amount

    def _begin(self):
        stack = self._stack()
        try:
            parent = (stack or self._op_stack)[-1]
        except IndexError:  # the op ended while this thread was starting
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, time.thread_time(), time.perf_counter()

    def _end(self, label, stack, sid, parent, c0, t0) -> None:
        t1 = time.perf_counter()
        c1 = time.thread_time()
        stack.pop()
        self.spans.append((sid, parent, label, threading.get_ident(),
                           self.op_id, t0, t1, (t1 - t0) - (c1 - c0)))

    def _wrap(self, label: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(label, *state)
            _count(label, args, result, self._add)
            return result
        return traced

    @contextlib.contextmanager
    def op(self, key: str):
        """A root span ``bench.op`` around one benchmark op.

        The op id is ``<sequence number>/<key>``, unique within the run.
        """
        self.op_id = f"{next(self._op_seq)}/{key}"
        self._op_stack = self._stack()
        state = self._begin()
        try:
            yield
        finally:
            self._end("bench.op", *state)
            self.op_id = None
            self._op_stack = []

    def install(self) -> None:
        if self._patches:
            return
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "liftcert" or name.startswith("liftcert."))]
        for modname, attr in WRAPPED:
            orig = getattr(sys.modules[f"liftcert.{modname}"], attr)
            traced = self._wrap(f"{modname}.{attr}", orig)
            for mod in mods:
                for name in [k for k, v in vars(mod).items() if v is orig]:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, traced)
        cls = sys.modules["liftcert.harness"].ExperimentResult
        orig = cls.__dict__["to_csv"]
        self._patches.append((cls, "to_csv", orig))
        cls.to_csv = self._wrap(SERIALIZE_LABEL, orig)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches = []

    def self_times(self) -> dict:
        """Span id -> wall time not covered by any of its child spans."""
        children = collections.defaultdict(list)
        for sid, parent, _label, _thread, _op, t0, t1, _wait in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _parent, _label, _thread, _op, t0, t1, _wait in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (t1 - t0) - covered
        return out

    def metrics(self) -> dict:
        """Per-layer sums plus the computed counters, keyed by metric name."""
        out = {f"{label}.{stat}": 0 if stat == "calls" else 0.0
               for label in LABELS for stat in STATS}
        self_s = self.self_times()
        threads = collections.defaultdict(set)
        for sid, _parent, label, thread, op, t0, t1, wait_s in self.spans:
            threads[op].add(thread)
            if label == "bench.op":
                continue
            out[f"{label}.calls"] += 1
            out[f"{label}.busy_s"] += t1 - t0
            out[f"{label}.self_s"] += self_s[sid]
            out[f"{label}.wait_s"] += wait_s
        counts = self._counts
        for name in COUNTERS:
            out[name] = counts.get(name, 0)
        offered = counts.get("varieties.generators_offered", 0)
        out["varieties.generators_kept_ratio"] = (
            counts.get("varieties.generators_kept", 0) / offered if offered else 0.0)
        out["harness.threads_seen"] = max(
            (len(t) for op, t in threads.items() if not str(op).endswith("/setup")),
            default=0)
        return out

    def top_layers(self, count: int = 3) -> dict:
        """Op kind -> heaviest layers by self time.

        The kind is the op id without its cycle number and basis index
        (``37/determinantal:4,4,1#5`` -> ``determinantal:4,4,1``).
        """
        self_s = self.self_times()
        per_op = collections.defaultdict(collections.Counter)
        for sid, _parent, label, _thread, op, _t0, _t1, _wait in self.spans:
            if label != "bench.op":
                per_op[str(op).split("/")[-1].split("#")[0]][label] += self_s[sid]
        return {op: per.most_common(count) for op, per in per_op.items()}

    def write_jsonl(self, path, header: dict) -> None:
        self_s = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, label, thread, op, t0, t1, wait_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": label,
                    "start": t0 - self.epoch, "end": t1 - self.epoch,
                    "thread": thread, "op": op,
                    "self_s": self_s[sid], "wait_s": wait_s}) + "\n")
