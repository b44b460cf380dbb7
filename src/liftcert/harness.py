"""Monte Carlo experiment engine.

An experiment is (target, params, rho_grid, trials, master_seed, threshold).
``TARGETS`` declares each target's params, which a config checks by name when
it is built, and a bind function that checks the dimension budget before any
trial.  Each trial derives its own random stream from (master_seed, trial
index); trials run in index order in one thread, and the aggregation is a fold
over that order.  Noise layers are keyed by trial index only, never by rho, so
comparisons across a rho grid are paired by construction.

Output contract: one CSV row per trial plus a JSON summary, both
byte-reproducible for a fixed config (timings never enter the files).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from . import powersum as ps
from . import rng as _rng
from .matrixio import format_float
from .spectral import count_large_singulars, jacobian_khatri_rao, singular_values
from .stats import quantile_summary, wilson_interval
from .tensor_lift import _check_entries, khatri_rao, sym_lift
from .varieties import certify, orthonormalize_basis, variety_from_spec

REQUIRED = object()


class Param(NamedTuple):
    """A target param: int, float, str or bool, its default, an int's least
    value, and the values a str may take (any, if empty)."""

    type: type
    default: object = REQUIRED
    low: int = 1
    choices: tuple = ()


class Target(NamedTuple):
    """``bind(resolved params, config)`` returns ``measure(rho, seed) ->
    (sigma, threshold or None, passed or None)``; None means the config's
    threshold and ``sigma >= threshold``.  The targets with a default
    ``threshold`` are the ``liftcert powersum`` checks."""

    params: dict
    bind: Callable
    threshold: float | None = None

    def resolve(self, given: dict) -> dict:
        """The given params checked by name, with the defaults filled in."""
        unknown = sorted(given.keys() - self.params.keys())
        if unknown:
            raise ValueError(f"unknown param {unknown[0]!r}; known: {sorted(self.params)}")
        out = {}
        for name, (kind, default, low, choices) in self.params.items():
            value = given.get(name, default)
            if value is REQUIRED:
                raise ValueError(f"missing required param {name!r}")
            out[name] = _typed(f"param {name!r}", value, kind, low)
            if choices and value not in choices:
                raise ValueError(f"param {name!r} must be one of {list(choices)}, got {value!r}")
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
        if self.study == "scaling" and len(self.rho_grid) < 3:
            raise ValueError(f"a scaling study needs at least 3 rho_grid points, "
                             f"got {len(self.rho_grid)}")
        if not isinstance(self.name, str) or os.path.basename(self.name) != self.name:
            raise ValueError(f"name must be a plain file name, got {self.name!r}")
        typed["name"] = self.name or self.target
        typed["params"] = TARGETS[self.target].resolve(self.params)
        for name, value in typed.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict) or not isinstance(raw.get("params", {}), dict):
            raise ValueError("the config and its params must be JSON objects")
        raw = dict(raw)
        if "rho" in raw and "rho_grid" not in raw:
            raw["rho_grid"] = [raw.pop("rho")]
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


def _need(ok: bool, rule: str, p: dict) -> None:
    """Refuse params that break a target's dimension budget, naming them."""
    if not ok:
        given = ", ".join(f"{name}={value}" for name, value in p.items())
        raise ValueError(f"params {given} break the dimension budget {rule}")


def _bind_lift(p, config):
    """thm51 and cor53: a random symmetric-space projector applied to
    ``blocks`` concatenated order-d lifts (thm51 has one)."""
    n, m, d, blocks = p["n"], p["m"], p["d"], p.get("blocks", 1)
    rank = math.ceil(p["delta"] * math.comb(n + d - 1, d))
    k = blocks * math.comb(m + d - 1, d)
    _need(k <= rank, f"blocks*C(m+d-1,d) = {k} <= ceil(delta*C(n+d-1,d)) = {rank}", p)
    # Orthonormal rows spanning symmetric tensors, in isometric coordinates.
    phi = _random_row_isometry(rank, math.comb(n + d - 1, d), config.master_seed, "projector")
    bases = [_make_base(p["base"], n, m, _rng.derive_seed(config.master_seed, "b", j))
             for j in range(blocks)]

    def measure(rho, seed):
        lifts = []
        for j in range(blocks):
            Z = _rng.gaussians((n, m), seed, "noise", j)
            lifts.append(sym_lift(bases[j] + rho * Z, d).coords.T)
        return float(singular_values(np.vstack(lifts) @ phi.T)[k - 1]), None, None
    return measure


def _bind_thm52(p, config):
    n, m, d = p["n"], p["m"], p["d"]
    rank = math.ceil(p["delta"] * math.comb(n + d - 1, d))
    _need(m**d <= rank, f"m**d = {m**d} <= ceil(delta*C(n+d-1,d)) = {rank}", p)
    psi = _random_row_isometry(rank, n**d, config.master_seed, "operator")
    bases = [_make_base(p["base"], n, m, _rng.derive_seed(config.master_seed, "b", j))
             for j in range(d)]

    def measure(rho, seed):
        prod = reduce(np.kron, [bases[j] + rho * _rng.gaussians((n, m), seed, "noise", j)
                                for j in range(d)])
        return float(singular_values(psi @ prod)[m**d - 1]), None, None
    return measure


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


def _bind_prop71(p, config):
    def measure(rho, seed):
        C = ps.make_symmetric_columns(p["n"], p["m"], rho, seed)
        return float(singular_values(ps.symmetric_cube_lift(C, p["n"]))[-1]), None, None
    return measure


def _bind_prop72(p, config):
    n, m, ell = p["n"], p["m"], p["ell"]
    slack = n * n - n * ell - m * math.comb(ell + 1, 2) - m + 1
    _need(ell <= n and slack > 0,
          f"ell <= n and n^2 - n*ell - m*C(ell+1,2) - m + 1 = {slack} > 0", p)
    bases = []
    for t in range(m):
        B = _rng.gaussians((n, n), config.master_seed, "base", t)
        bases.append(B / np.linalg.norm(B))

    def measure(rho, seed):
        mats = [bases[t] + rho * _rng.gaussians((n, n), seed, "noise", t)
                for t in range(m)]
        return float(singular_values(ps.build_projected_V(mats, ell))[-1]), None, None
    return measure


def _power_sum_need(p) -> None:
    n2 = math.comb(p["n"] + 1, 2)
    _need(p["m"] < n2, f"m < N2 = C(n+1,2) = {n2}", p)


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
        rank = int(np.count_nonzero(s >= config.threshold))
        witness_ok = bool(
            np.linalg.norm(M @ ps.antisym_witnesses(inst), axis=0).max()
            <= config.threshold) if m > 1 else True
        return float(s[want - 1]), None, bool(rank == want and witness_ok)
    return measure


def _bind_lemma74(p, config):
    _power_sum_need(p)

    def measure(rho, seed):
        inst = ps.make_power_sum_instance(p["n"], p["m"], rho, seed)
        return float(singular_values(ps.build_solution_space_M(inst))[-1]), None, None
    return measure


def _bind_claim77(p, config):
    _power_sum_need(p)

    def measure(rho, seed):
        inst = ps.make_power_sum_instance(p["n"], p["m"], rho, seed)
        Q = ps.build_claim_Q(inst, rho / math.sqrt(2.0), rho / math.sqrt(2.0))
        return float(singular_values(Q)[-1]), None, None
    return measure


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


def _bind_conj82(p, config):
    dim, N = p["dim"], p["N"]
    base = _rng.gaussians((N, dim), config.master_seed, "points")
    base /= np.linalg.norm(base, axis=1, keepdims=True)

    def measure(rho, seed):
        pts = base + rho * _rng.gaussians((N, dim), seed, "noise")
        return float(singular_values(ps.build_power_matrix(pts, p["r"]))[-1]), None, None
    return measure


def _bind_caa_probe(p, config):
    """Khatri-Rao small-ball probe; the grid values of the config are h levels."""
    n, m, k, rho = p["n"], p["m"], p["k"], p["rho"]
    _need(k <= m, "k <= m", p)
    seed0 = config.master_seed
    delta = 1.0 / math.sqrt(k)
    baseU = _rng.unit_columns((n, m), seed0, "baseU")
    baseV = _rng.unit_columns((n, m), seed0, "baseV")

    def combo_norm(seed) -> float:
        support = _rng.rng(seed, "support").choice(m, size=k, replace=False)
        alpha = np.zeros(m)
        alpha[support] = delta
        U = baseU + rho * _rng.gaussians((n, m), seed, "noise", 0)
        V = baseV + rho * _rng.gaussians((n, m), seed, "noise", 1)
        return float(np.linalg.norm(khatri_rao(U, V) @ alpha))

    pilot = sorted(combo_norm(_rng.derive_seed(seed0, "pilot", t))
                   for t in range(p["pilot_trials"]))
    pilot_median = pilot[p["pilot_trials"] // 2]
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


def _bind_jacobian_probe(p, config):
    n, m, k = p["n"], p["m"], p["k"]
    _need(k <= m, "k <= m", p)
    baseU = _rng.gaussians((n, m), config.master_seed, "baseU")
    baseV = _rng.gaussians((n, m), config.master_seed, "baseV")
    need = math.ceil(n * k / 2)

    def measure(rho, seed):
        alpha = np.zeros(m)
        support = _rng.rng(seed, "support").choice(m, size=k, replace=False)
        alpha[support] = 1.0
        U = baseU + rho * _rng.gaussians((n, m), seed, "noise", 0)
        V = baseV + rho * _rng.gaussians((n, m), seed, "noise", 1)
        J = jacobian_khatri_rao(alpha, U, V)
        count = count_large_singulars(J, p["tau_factor"] * rho)
        return float(count), float(need), bool(count >= need)
    return measure


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


def _bind_const_control(p, config):
    value = float(singular_values(_rng.gaussians((p["n"], p["m"]), config.master_seed,
                                                 "const"))[-1])
    return lambda rho, seed: (value, None, None)


_N_M = {"n": Param(int), "m": Param(int)}
_BASE = Param(str, "zero", choices=("zero", "random", "duplicated"))
_LIFT = {**_N_M, "d": Param(int, 2), "delta": Param(float, 0.5), "base": _BASE}

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
    "jacobian_probe": Target({**_N_M, "k": Param(int, low=0), "tau_factor": Param(float, 0.1)},
                             _bind_jacobian_probe),
    "sigma_basic": Target({"n": Param(int), "k": Param(int), "delta": Param(float, 1.0),
                           "h": Param(float, 0.3), "base": _BASE}, _bind_sigma_basic),
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

    Per trial: derive the trial stream, measure, compare with the threshold.
    The aggregate carries pass counts, Wilson 95% intervals, and singular
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
        for t, seed in enumerate(seeds):
            sigma, thresh, passed = measure(rho, seed)
            thresh = config.threshold if thresh is None else thresh
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
    if all(m > 0 for m in medians) and len(medians) >= 2:
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


def scaling_study(config: ExperimentConfig) -> ExperimentResult:
    """Run the grid and attach monotonicity / lower-envelope flags."""
    cfg = ExperimentConfig(**{**config.resolved(), "study": "scaling"})
    return run_experiment(cfg)


def caa_probe(n: int, m: int, k: int, h_grid: list[float], trials: int,
              master_seed: int, rho: float = 1.0, pilot_trials: int = 64) -> dict:
    """Empirical small-ball table for well-spread combinations of a
    columnwise tensor product.

    The test vector has exactly k coordinates of magnitude 1/sqrt(k) on a
    seeded random support.  The scale is calibrated so the h = 1 threshold
    sits at the pilot median; the table reports the frequency of falling
    below each h level with Wilson intervals, plus the regression slope of
    log-frequency against log(1/h) over levels with nonzero counts.
    """
    config = ExperimentConfig(
        target="caa_probe",
        params={"n": n, "m": m, "k": k, "rho": rho, "pilot_trials": pilot_trials},
        rho_grid=list(h_grid), trials=trials, master_seed=master_seed,
        threshold=0.0, name="caa_probe")
    result = run_experiment(config)
    rows = []
    for agg in result.per_rho:
        below = config.trials - agg["pass_count"]
        low, high = wilson_interval(below, config.trials)
        rows.append({"h": agg["rho"], "below_count": below,
                     "frequency": below / config.trials,
                     "wilson_low": low, "wilson_high": high})
    slope = None
    pts = [(math.log(1.0 / r["h"]) * k, math.log(r["frequency"]))
           for r in rows if 0 < r["frequency"] and r["h"] < 1]
    if len(pts) >= 2:
        xs, ys = zip(*pts)
        slope = float(np.polyfit(xs, ys, 1)[0])
    return {"lambda_hat": result.extras["lambda_hat"], "delta": result.extras["delta"],
            "rows": rows, "k_log_slope": slope, "config": config.resolved()}


def jacobian_probe(n: int, m: int, k: int, rho: float, tau_factor: float,
                   trials: int, master_seed: int) -> dict:
    """Pass rate for the Jacobian of a spread combination having at least
    n k / 2 singular values above tau_factor * rho."""
    config = ExperimentConfig(
        target="jacobian_probe",
        params={"n": n, "m": m, "k": k, "tau_factor": tau_factor},
        rho_grid=[rho], trials=trials, master_seed=master_seed,
        threshold=0.0, name="jacobian_probe")
    result = run_experiment(config)
    agg = result.per_rho[0]
    return {"pass_count": agg["pass_count"], "pass_rate": agg["pass_rate"],
            "wilson_low": agg["wilson_low"], "wilson_high": agg["wilson_high"],
            "counts": agg["sigma"],
            "required": math.ceil(n * k / 2), "config": config.resolved()}


def sigma_basic_check(n: int, k: int, delta: float, h: float, rho: float,
                      trials: int, master_seed: int, base: str = "zero") -> dict:
    """Frequency of the k/2-th singular value of a perturbed scaled matrix
    falling below h * rho * delta, compared against the analytic tail bound
    exp(-(1/8) k n log(1/h)) with a 10x desk-scale margin."""
    if h >= 1.0:
        return {"applicable": False, "reason": "h >= 1 degenerates the bound"}
    config = ExperimentConfig(
        target="sigma_basic",
        params={"n": n, "k": k, "delta": delta, "h": h, "base": base},
        rho_grid=[rho], trials=trials, master_seed=master_seed,
        threshold=0.0, name="sigma_basic")
    result = run_experiment(config)
    agg = result.per_rho[0]
    bad = config.trials - agg["pass_count"]
    bound = math.exp(-(1.0 / 8.0) * k * n * math.log(1.0 / h))
    low, high = wilson_interval(bad, config.trials)
    return {"applicable": True, "bad_count": bad, "frequency": bad / trials,
            "wilson_low": low, "wilson_high": high, "bound": bound,
            "within_margin": bad / trials <= 10.0 * bound,
            "config": config.resolved()}
