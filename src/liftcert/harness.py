"""Monte Carlo experiment engine.

An experiment is (target, params, rho_grid, trials, master_seed, threshold).
``TARGETS`` declares each target's params, which a config checks by name when
it is built, and a bind function that checks the dimension budget before any
trial.  Each trial derives its own random stream from (master_seed, trial
index).  The bound measure is called once per rho with all of that rho's
trial seeds and returns one result per seed: thm51, cor53 and thm52 draw,
build and decompose a rho's trials as stacks, with the bytes of one trial at
a time; every other target measures its trials one by one, in index order.
Everything runs in one thread, and the aggregation is a fold over trial
index.  Noise layers are keyed by trial index only, never by rho, so
comparisons across a rho grid are paired by construction.

Output contract: one CSV row per trial plus a JSON summary, both
byte-reproducible for a fixed config (timings never enter the files).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from . import powersum as ps
from . import rng as _rng
from .matrixio import format_float
from .spectral import (NonFiniteMatrixError, _rank_of_values, count_large_singulars,
                       jacobian_khatri_rao, singular_values, stacked_singular_values)
from .stats import quantile_summary, wilson_interval
from .tensor_lift import _check_entries, _lift_entries, khatri_rao, sym_lift
from .varieties import certify, orthonormalize_basis, variety_from_spec

REQUIRED = object()
# A rho's trials are measured in stacks of at most this many entries per
# array (8 MB), far under MAX_DENSE_ENTRIES, so a large trial count does not
# hold a rho's trials at once.
_STACK_ENTRIES = 2**20
_COMPARE = {"<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Param(NamedTuple):
    """A target param: int, float, str or bool, its default, an int's least
    value, the values a str may take (any, if empty), and the range a float
    must lie in as (comparison, limit), such as (">", 0.0) (any, if empty)."""

    type: type
    default: object = REQUIRED
    low: int = 1
    choices: tuple = ()
    bound: tuple = ()


class Target(NamedTuple):
    """``bind(resolved params, config)`` returns ``measure(rho, seeds)``,
    called once per rho with all of its trials' seeds, which returns one
    ``(sigma, threshold or None, passed or None)`` per seed in seed order;
    None means the config's threshold and ``sigma >= threshold``.  The
    targets with a default ``threshold`` are the ``liftcert powersum``
    checks."""

    params: dict
    bind: Callable
    threshold: float | None = None

    def resolve(self, given: dict) -> dict:
        """The given params checked by name, with the defaults filled in."""
        unknown = sorted(given.keys() - self.params.keys())
        if unknown:
            raise ValueError(f"unknown param {unknown[0]!r}; known: {sorted(self.params)}")
        out = {}
        for name, (kind, default, low, choices, bound) in self.params.items():
            value = given.get(name, default)
            if value is REQUIRED:
                raise ValueError(f"missing required param {name!r}")
            out[name] = _typed(f"param {name!r}", value, kind, low)
            if choices and value not in choices:
                raise ValueError(f"param {name!r} must be one of {list(choices)}, got {value!r}")
            if bound and not _COMPARE[bound[0]](out[name], bound[1]):
                raise ValueError(f"param {name!r} must be {bound[0]} {bound[1]}, got {value!r}")
        return out


def _typed(what: str, value, kind: type, low: int | None = None):
    """``value`` as ``kind``, refused by ``what`` unless it is an int (not a
    bool) of at least ``low``, a finite real, a str or a bool as asked."""
    numeric = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if not isinstance(value, numeric) or isinstance(value, bool) != (kind is bool):
        raise ValueError(f"{what} must be {kind.__name__}, got {value!r}")
    if kind is int and low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return kind(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description; see README for target params.  ``params`` are
    stored resolved, with the target's defaults filled in, so the output
    headers record what runs."""

    target: str
    params: dict
    rho_grid: list[float]
    trials: int
    master_seed: int
    threshold: float
    name: str = ""
    min_passes: int | None = None
    study: str | None = None

    def __post_init__(self):
        if not isinstance(self.target, str) or self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; known: {list(TARGETS)}")
        if not isinstance(self.rho_grid, (list, tuple)) or not self.rho_grid:
            raise ValueError(f"rho_grid must be a nonempty list of reals, got {self.rho_grid!r}")
        typed = {"rho_grid": [_typed("rho_grid entries", rho, float) for rho in self.rho_grid],
                 "trials": _typed("trials", self.trials, int, 1),
                 "master_seed": _typed("master_seed", self.master_seed, int),
                 "threshold": _typed("threshold", self.threshold, float)}
        if self.min_passes is not None:
            typed["min_passes"] = _typed("min_passes", self.min_passes, int, 0)
        if not all(rho >= 0 for rho in typed["rho_grid"]):
            raise ValueError(f"rho_grid entries must be finite and >= 0, got {self.rho_grid}")
        if self.study not in (None, "scaling"):
            raise ValueError(f"unknown study {self.study!r}")
        distinct = len(set(typed["rho_grid"]))
        if self.study == "scaling" and distinct < 3:
            raise ValueError(f"a scaling study needs at least 3 rho_grid points, "
                             f"got {distinct} distinct in {self.rho_grid}")
        if not isinstance(self.name, str) or os.path.basename(self.name) != self.name:
            raise ValueError(f"name must be a plain file name, got {self.name!r}")
        typed["name"] = self.name or self.target
        typed["params"] = TARGETS[self.target].resolve(self.params)
        if typed.get("min_passes", 0) > typed["trials"]:
            raise ValueError(f"min_passes = {typed['min_passes']} exceeds trials = "
                             f"{typed['trials']}: no rho can pass more trials than it runs")
        for name, value in typed.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict) or not isinstance(raw.get("params", {}), dict):
            raise ValueError("the config and its params must be JSON objects")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"target", "rho_grid", "trials", "master_seed", "threshold"} - set(raw)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**{**raw, "params": dict(raw.get("params", {}))})

    def resolved(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class TrialReport:
    """One trial: the measured value, the threshold it faced, and the verdict."""

    rho: float
    trial: int
    seed: int
    sigma: float
    threshold: float
    passed: bool


def _random_row_isometry(rows: int, dim: int, master_seed: int, *path) -> np.ndarray:
    _check_entries((dim, rows), f"the random {rows} x {dim} row isometry")
    G = _rng.gaussians((dim, rows), master_seed, *path)
    Q, _ = np.linalg.qr(G)
    return Q.T


def _make_base(kind: str, n: int, m: int, master_seed: int) -> np.ndarray:
    """An n x m base of one of the ``_BASE`` kinds."""
    if kind == "zero":
        return np.zeros((n, m))
    if kind == "random":
        return _rng.unit_columns((n, m), master_seed, "base")
    return np.tile(_rng.unit_columns((n, 1), master_seed, "base"), (1, m))


def _per_trial(bind):
    """A bind whose measure takes one seed, made a bind whose measure takes
    a rho's seeds and measures them in order; the measure's attributes (the
    probe's ``lambda_hat``) carry over."""
    def bind_seeds(p, config):
        measure = bind(p, config)
        return functools.wraps(measure)(lambda rho, seeds: [measure(rho, s) for s in seeds])
    return bind_seeds


def _need(ok: bool, rule: str, p: dict) -> None:
    """Refuse params that break a target's dimension budget, naming them."""
    if not ok:
        given = ", ".join(f"{name}={value}" for name, value in p.items())
        raise ValueError(f"params {given} break the dimension budget {rule}")


def _stacked(measure, per_trial: int):
    """``measure(rho, seeds)`` over runs of seeds whose stacks hold at most
    ``_STACK_ENTRIES`` entries, ``per_trial`` to a trial, or one trial when
    one needs more.  Each stack is checked against the cap before it is
    built."""
    def run(rho, seeds):
        step = max(1, _STACK_ENTRIES // per_trial)
        out = []
        for start in range(0, len(seeds), step):
            chunk = seeds[start:start + step]
            _check_entries((len(chunk), per_trial), f"the stacked arrays of {len(chunk)} trials")
            out += measure(rho, chunk)
        return out
    return run


def _bind_lift(p, config):
    """thm51 and cor53: a random symmetric-space projector applied to
    ``blocks`` concatenated order-d lifts (thm51 has one)."""
    n, m, d, blocks = p["n"], p["m"], p["d"], p.get("blocks", 1)
    rank = math.ceil(p["delta"] * math.comb(n + d - 1, d))
    k = blocks * math.comb(m + d - 1, d)
    _need(k <= rank, f"blocks*C(m+d-1,d) = {k} <= ceil(delta*C(n+d-1,d)) = {rank}", p)
    # Orthonormal rows spanning symmetric tensors, in isometric coordinates.
    phi = _random_row_isometry(rank, math.comb(n + d - 1, d), config.master_seed, "projector")
    bases = np.array([_make_base(p["base"], n, m, _rng.derive_seed(config.master_seed, "b", j))
                      for j in range(blocks)])

    def measure(rho, seeds):
        keys = [(seed, ("noise", j)) for seed in seeds for j in range(blocks)]
        noise = _rng.gaussians((n, m), keys).reshape(len(seeds), blocks, n, m)
        coords = sym_lift(bases + rho * noise, d).coords
        # Each trial's k x C(n+d-1, d) stack of transposed lifts, column-major
        # as np.vstack leaves them: BLAS rounds the two orders differently.
        lifts = coords.transpose(0, 2, 1, 3).reshape(len(seeds), -1, k).swapaxes(-1, -2)
        return [(float(s[k - 1]), None, None) for s in stacked_singular_values(lifts @ phi.T)]
    return _stacked(measure, blocks * _lift_entries(n, m, d))


def _kron(P: np.ndarray, F: np.ndarray) -> np.ndarray:  # np.kron's one product per entry
    return (P[..., :, None, :, None] * F[..., None, :, None, :]).reshape(
        *P.shape[:-2], P.shape[-2] * F.shape[-2], -1)


def _kron_product(psi: np.ndarray, factors) -> np.ndarray:
    """``psi @ reduce(_kron, factors)`` for n x m factors, without the n**d x
    m**d product: psi as (rows * n) x n**(d-1) times the product of all but
    the first factor, then the first factor applied to the leading mode
    (mode-n products; Kolda and Bader, SIAM Review 51(3), 2009).  Factors
    of shape (..., n, m) give one product per leading index, each by the
    matmuls of a single product."""
    first, rest = factors[0], factors[1:]
    if not len(rest):
        return psi @ first
    rows, (n, _), lead = len(psi), first.shape[-2:], first.shape[:-2]
    T = (psi.reshape(rows * n, -1) @ reduce(_kron, rest)).reshape(*lead, rows, n, -1)
    return (T.swapaxes(-1, -2) @ first[..., None, :, :]).swapaxes(-1, -2).reshape(*lead, rows, -1)


def _bind_thm52(p, config):
    n, m, d = p["n"], p["m"], p["d"]
    rank = math.ceil(p["delta"] * math.comb(n + d - 1, d))
    _need(m**d <= rank, f"m**d = {m**d} <= ceil(delta*C(n+d-1,d)) = {rank}", p)
    psi = _random_row_isometry(rank, n**d, config.master_seed, "operator")
    bases = np.array([_make_base(p["base"], n, m, _rng.derive_seed(config.master_seed, "b", j))
                      for j in range(d)])

    def measure(rho, seeds):
        keys = [(seed, ("noise", j)) for seed in seeds for j in range(d)]
        factors = bases + rho * _rng.gaussians((n, m), keys).reshape(len(seeds), d, n, m)
        s = stacked_singular_values(_kron_product(psi, factors.swapaxes(0, 1)))
        return [(float(v), None, None) for v in s[:, m**d - 1]]
    # The mode products' largest arrays: T, the result and the folded rest.
    return _stacked(measure, max(rank * n * m ** (d - 1), rank * m**d, (n * m) ** (d - 1)))


@_per_trial
def _bind_certify(p, config):
    try:
        op = variety_from_spec(p["variety"])
    except ValueError as exc:
        raise ValueError(f"param 'variety': {exc}") from exc
    m, planted = p["m"], p["planted"]
    _need(math.comb(m + op.d - 1, op.d) <= op.p, f"C(m+d-1,d) <= p = {op.p} generators", p)
    base = _rng.unit_columns((op.n, m), config.master_seed, "base")

    def measure(rho, seed):
        B = base + rho * _rng.gaussians((op.n, m), seed, "noise")
        if planted:
            B[:, 0] = 0.0
            B[0, 0] = 1.0
        Q = orthonormalize_basis(B, keep_first=planted)
        return certify(op, Q).eta, None, None
    return measure


@_per_trial
def _bind_prop71(p, config):
    def measure(rho, seed):
        C = ps.make_symmetric_columns(p["n"], p["m"], rho, seed)
        return float(singular_values(ps.symmetric_cube_lift(C, p["n"]))[-1]), None, None
    return measure


@_per_trial
def _bind_prop72(p, config):
    n, m, ell = p["n"], p["m"], p["ell"]
    slack = n * n - n * ell - m * math.comb(ell + 1, 2) - m + 1
    _need(ell <= n and slack > 0,
          f"ell <= n and n^2 - n*ell - m*C(ell+1,2) - m + 1 = {slack} > 0", p)
    bases = np.array([B / np.linalg.norm(B)
                      for B in _rng.gaussians((n, n), config.master_seed, "base", stack=m)])

    def measure(rho, seed):
        mats = list(bases + rho * _rng.gaussians((n, n), seed, "noise", stack=m))
        return float(singular_values(ps.build_projected_V(mats, ell))[-1]), None, None
    return measure


def _power_sum_need(p) -> None:
    n2 = math.comb(p["n"] + 1, 2)
    _need(p["m"] < n2, f"m < N2 = C(n+1,2) = {n2}", p)


@_per_trial
def _bind_prop73(p, config):
    n, m = p["n"], p["m"]
    want = m * math.comb(n + 1, 2) - math.comb(m, 2)
    _power_sum_need(p)
    rows = math.comb(n + 3, 4)
    _need(want <= rows, f"m*N2 - C(m,2) = {want} <= C(n+3,4) = {rows}", p)

    def measure(rho, seed):
        inst = ps.make_power_sum_instance(n, m, rho, seed)
        M = ps.build_sym4_IkronA(inst)
        s = singular_values(M)
        rank = _rank_of_values(s, config.threshold)
        witness_ok = bool(
            np.linalg.norm(M @ ps.antisym_witnesses(inst), axis=0).max()
            <= config.threshold) if m > 1 else True
        return float(s[want - 1]), None, bool(rank == want and witness_ok)
    return measure


@_per_trial
def _bind_lemma74(p, config):
    _power_sum_need(p)

    def measure(rho, seed):
        inst = ps.make_power_sum_instance(p["n"], p["m"], rho, seed)
        return float(singular_values(ps.build_solution_space_M(inst))[-1]), None, None
    return measure


@_per_trial
def _bind_claim77(p, config):
    _power_sum_need(p)

    def measure(rho, seed):
        inst = ps.make_power_sum_instance(p["n"], p["m"], rho, seed)
        Q = ps.build_claim_Q(inst, rho / math.sqrt(2.0), rho / math.sqrt(2.0))
        return float(singular_values(Q)[-1]), None, None
    return measure


@_per_trial
def _bind_claim76(p, config):
    m = p["m"]
    rank = 2 * m * math.comb(p["n"] + 1, 2) - math.comb(2 * m, 2)
    _power_sum_need(p)
    rows = math.comb(p["n"] + 3, 4)
    _need(rank <= rows, f"2*m*N2 - C(2m,2) = {rank} <= C(n+3,4) = {rows}", p)

    def measure(rho, seed):
        inst = ps.make_power_sum_instance(p["n"], m, rho, seed)
        W = ps.build_claim_W(inst, rho / math.sqrt(2.0), rho / math.sqrt(2.0))
        return float(singular_values(W)[rank - 1]), None, None
    return measure


@_per_trial
def _bind_conj81(p, config):
    n, m, s, d = p["n"], p["m"], p["s"], p["d"]
    _need(s * math.comb(m + d - 1, d) <= math.comb(n + d - 1, d),
          "s*C(m+d-1,d) <= C(n+d-1,d)", p)
    duplicate = p["control"] == "duplicate"
    proto = ps.make_clustering_instance(n, m, s, d, rho=1.0, seed=config.master_seed,
                                        shared_base=p["shared_base"])

    def measure(rho, seed):
        inst = ps.ClusteringInstance(bases=proto.bases, d=d,
                                     rho=0.0 if duplicate else rho, seed=seed)
        return float(singular_values(ps.build_block_lift(inst))[-1]), None, None
    return measure


@_per_trial
def _bind_conj82(p, config):
    dim, N = p["dim"], p["N"]
    base = _rng.gaussians((N, dim), config.master_seed, "points")
    base /= np.linalg.norm(base, axis=1, keepdims=True)

    def measure(rho, seed):
        pts = base + rho * _rng.gaussians((N, dim), seed, "noise")
        return float(singular_values(ps.build_power_matrix(pts, p["r"]))[-1]), None, None
    return measure


@_per_trial
def _bind_caa_probe(p, config):
    """Khatri-Rao small-ball probe; the grid values of the config are h levels."""
    n, m, k, rho = p["n"], p["m"], p["k"], p["rho"]
    _need(k <= m, "k <= m", p)
    seed0 = config.master_seed
    delta = 1.0 / math.sqrt(k)
    base = np.array([_rng.unit_columns((n, m), seed0, "baseU"),
                     _rng.unit_columns((n, m), seed0, "baseV")])

    def combo_norm(seed) -> float:
        support = _rng.rng(seed, "support").choice(m, size=k, replace=False)
        alpha = np.zeros(m)
        alpha[support] = delta
        U, V = base + rho * _rng.gaussians((n, m), seed, "noise", stack=2)
        return float(np.linalg.norm(khatri_rao(U, V) @ alpha))

    pilot = sorted(combo_norm(_rng.derive_seed(seed0, "pilot", t))
                   for t in range(p["pilot_trials"]))
    pilot_median = pilot[p["pilot_trials"] // 2]
    if not math.isfinite(pilot_median):
        raise NonFiniteMatrixError(f"pilot median combination norm is {pilot_median}")
    if pilot_median <= 0:
        raise ValueError("degenerate pilot: median combination norm is zero")
    lambda_hat = delta / pilot_median

    def measure(h, seed):
        value = combo_norm(seed)
        thresh = delta * h / lambda_hat
        return value, thresh, bool(value >= thresh)
    measure.lambda_hat = lambda_hat
    measure.delta = delta
    return measure


@_per_trial
def _bind_jacobian_probe(p, config):
    n, m, k = p["n"], p["m"], p["k"]
    _need(k <= m, "k <= m", p)
    base = np.array([_rng.gaussians((n, m), config.master_seed, "baseU"),
                     _rng.gaussians((n, m), config.master_seed, "baseV")])
    need = math.ceil(n * k / 2)

    def measure(rho, seed):
        alpha = np.zeros(m)
        support = _rng.rng(seed, "support").choice(m, size=k, replace=False)
        alpha[support] = 1.0
        U, V = base + rho * _rng.gaussians((n, m), seed, "noise", stack=2)
        J = jacobian_khatri_rao(alpha, U, V)
        count = count_large_singulars(J, p["tau_factor"] * rho)
        return float(count), float(need), bool(count >= need)
    return measure


@_per_trial
def _bind_sigma_basic(p, config):
    n, k, delta = p["n"], p["k"], p["delta"]
    order = math.ceil(k / 2)
    _need(order <= min(n, k), "ceil(k/2) <= min(n,k)", p)
    base = _make_base(p["base"], n, k, config.master_seed)

    def measure(rho, seed):
        V = base + rho * _rng.gaussians((n, k), seed, "noise")
        sigma = float(singular_values(delta * V)[order - 1])
        return sigma, p["h"] * rho * delta, None
    return measure


@_per_trial
def _bind_const_control(p, config):
    value = float(singular_values(_rng.gaussians((p["n"], p["m"]), config.master_seed,
                                                 "const"))[-1])
    return lambda rho, seed: (value, None, None)


_N_M = {"n": Param(int), "m": Param(int)}
_BASE = Param(str, "zero", choices=("zero", "random", "duplicated"))
# The budgets of thm51, thm52 and cor53 refuse delta <= 0.
_LIFT = {**_N_M, "d": Param(int, 2), "delta": Param(float, 0.5, bound=("<=", 1.0)),
         "base": _BASE}

TARGETS: dict[str, Target] = {
    "thm51": Target(_LIFT, _bind_lift),
    "thm52": Target(_LIFT, _bind_thm52),
    "cor53": Target({**_LIFT, "blocks": Param(int, 1)}, _bind_lift),
    "certify": Target({"variety": Param(str, "determinantal:4,4,1"), "m": Param(int, 3),
                       "planted": Param(bool, False)}, _bind_certify),
    "prop71": Target(_N_M, _bind_prop71, 1e-8),
    "prop72": Target({**_N_M, "ell": Param(int)}, _bind_prop72, 1e-8),
    "prop73": Target(_N_M, _bind_prop73, 1e-8),
    "lemma74": Target(_N_M, _bind_lemma74, 1e-8),
    "claim77": Target(_N_M, _bind_claim77, 1e-8),
    "claim76": Target(_N_M, _bind_claim76, 1e-8),
    "conj81": Target({**_N_M, "s": Param(int, 2), "d": Param(int, 2),
                      "control": Param(str, "none", choices=("none", "duplicate")),
                      "shared_base": Param(bool, True)},
                     _bind_conj81, 1e-6),
    "conj82": Target({"dim": Param(int), "r": Param(int), "N": Param(int)}, _bind_conj82, 1e-6),
    "caa_probe": Target({**_N_M, "k": Param(int), "rho": Param(float, 1.0),
                         "pilot_trials": Param(int, 64)}, _bind_caa_probe),
    "jacobian_probe": Target({**_N_M, "k": Param(int, low=0),
                              "tau_factor": Param(float, 0.1, bound=(">=", 0.0))},
                             _bind_jacobian_probe),
    "sigma_basic": Target({"n": Param(int), "k": Param(int),
                           "delta": Param(float, 1.0, bound=(">", 0.0)),
                           "h": Param(float, 0.3, bound=(">", 0.0)), "base": _BASE},
                          _bind_sigma_basic),
    "const_control": Target({"n": Param(int, 10), "m": Param(int, 3)}, _bind_const_control),
}


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    reports: list[TrialReport]
    per_rho: list[dict]
    extras: dict = field(default_factory=dict)

    def accepted(self) -> bool:
        if self.config.min_passes is not None:
            if any(agg["pass_count"] < self.config.min_passes for agg in self.per_rho):
                return False
        return True

    def to_csv(self) -> str:
        import json as _json
        lines = [f"# config: {_json.dumps(self.config.resolved(), sort_keys=True)}"]
        lines.append("rho,trial,seed,sigma,threshold,pass")
        for r in self.reports:
            lines.append(",".join([
                format_float(r.rho), str(r.trial), str(r.seed),
                format_float(r.sigma), format_float(r.threshold),
                str(int(r.passed)),
            ]))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        out = {
            "config": self.config.resolved(),
            "per_rho": self.per_rho,
            "accepted": self.accepted(),
        }
        out.update(self.extras)
        return out


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials of the configured target over its rho grid.

    Per rho: measure every trial's seed in one call, check each value finite
    (``NonFiniteMatrixError`` otherwise), compare with the threshold.  The
    aggregate carries pass counts, Wilson 95% intervals, and singular
    value quantiles; acceptance (when ``min_passes`` is set) requires the raw
    pass count at every grid point.
    """
    measure = TARGETS[config.target].bind(config.params, config)
    seeds = [_rng.derive_seed(config.master_seed, "trial", t)
             for t in range(config.trials)]

    reports: list[TrialReport] = []
    per_rho = []
    for rho in config.rho_grid:
        rows = []
        for t, (seed, (sigma, thresh, passed)) in enumerate(
                zip(seeds, measure(rho, seeds), strict=True)):
            thresh = config.threshold if thresh is None else thresh
            if not (math.isfinite(sigma) and math.isfinite(thresh)):
                raise NonFiniteMatrixError(f"trial {t} at rho {rho} measured {sigma} "
                                           f"against threshold {thresh}")
            passed = bool(sigma >= thresh) if passed is None else passed
            rows.append(TrialReport(rho=rho, trial=t, seed=seed, sigma=sigma,
                                    threshold=thresh, passed=passed))
        reports.extend(rows)
        count = sum(r.passed for r in rows)
        low, high = wilson_interval(count, config.trials)
        per_rho.append({
            "rho": rho,
            "pass_count": count,
            "pass_rate": count / config.trials,
            "wilson_low": low,
            "wilson_high": high,
            "sigma": quantile_summary([r.sigma for r in rows]),
        })
    extras = {attr: float(getattr(measure, attr)) for attr in ("lambda_hat", "delta")
              if hasattr(measure, attr)}
    result = ExperimentResult(config=config, reports=reports, per_rho=per_rho,
                              extras=extras)
    if config.study == "scaling":
        result.extras["scaling"] = _scaling_flags(config, per_rho)
    return result


def _scaling_flags(config: ExperimentConfig, per_rho: list[dict]) -> dict:
    medians = [agg["sigma"]["median"] for agg in per_rho]
    rhos = [agg["rho"] for agg in per_rho]
    p = config.params
    d = p.get("d", p.get("r", 1))
    n = p.get("n", p.get("dim", 1))
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(medians, medians[1:]))
    envelope = all(med >= rho**d / n**6 for med, rho in zip(medians, rhos))
    responsive = medians[0] > 0 and medians[-1] > 1.05 * medians[0]
    slope = None
    if all(v > 0 for v in rhos + medians):
        x = np.log(np.asarray(rhos))
        y = np.log(np.asarray(medians))
        slope = float(np.polyfit(x, y, 1)[0])
    return {
        "median_nondecreasing": bool(nondecreasing),
        "envelope_ok": bool(envelope),
        "rho_responsive": bool(responsive),
        "envelope_rule": f"rho^{d} / {n}^6",
        "loglog_slope": slope,
        "medians": medians,
    }
