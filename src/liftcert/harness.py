"""Monte Carlo experiment engine.

An experiment is (target, params, rho_grid, trials, master_seed, threshold).
Each trial derives its own random stream from (master_seed, trial index) and
touches no shared mutable state, so trials run in a thread pool and the
aggregation is a deterministic fold over trial order.  Noise layers are keyed
by trial index only, never by rho, so comparisons across a rho grid are
paired by construction.

Output contract: one CSV row per trial plus a JSON summary, both
byte-reproducible for a fixed config (timings never enter the files).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import powersum as ps
from . import rng as _rng
from .matrixio import format_float
from .spectral import count_large_singulars, jacobian_khatri_rao, singular_values
from .stats import quantile_summary, wilson_interval
from .tensor_lift import from_sym_coords, khatri_rao, sym_lift
from .varieties import certify, orthonormalize_basis, variety_from_spec

TARGET_NAMES = [
    "thm51", "thm52", "cor53", "certify",
    "prop71", "prop72", "prop73", "lemma74", "claim77", "claim76",
    "conj81", "conj82",
    "caa_probe", "jacobian_probe", "sigma_basic",
    "const_control",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; see README for target params."""

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
        if self.target not in TARGET_NAMES:
            raise ValueError(f"unknown target {self.target!r}; known: {TARGET_NAMES}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.rho_grid:
            raise ValueError("rho_grid must be nonempty")
        if self.study not in (None, "scaling"):
            raise ValueError(f"unknown study {self.study!r}")
        if not self.name:
            object.__setattr__(self, "name", self.target)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        if "rho" in raw and "rho_grid" not in raw:
            raw["rho_grid"] = [raw.pop("rho")]
        known = {"target", "params", "rho_grid", "trials", "master_seed",
                 "threshold", "name", "min_passes", "study"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"target", "rho_grid", "trials", "master_seed", "threshold"} - set(raw)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(
            target=raw["target"],
            params=dict(raw.get("params", {})),
            rho_grid=[float(x) for x in raw["rho_grid"]],
            trials=int(raw["trials"]),
            master_seed=int(raw["master_seed"]),
            threshold=float(raw["threshold"]),
            name=str(raw.get("name", raw["target"])),
            min_passes=None if raw.get("min_passes") is None else int(raw["min_passes"]),
            study=raw.get("study"),
        )

    def resolved(self) -> dict:
        return {
            "target": self.target,
            "params": self.params,
            "rho_grid": self.rho_grid,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "threshold": self.threshold,
            "name": self.name,
            "min_passes": self.min_passes,
            "study": self.study,
        }


@dataclass(frozen=True)
class TrialReport:
    """One trial: the measured value, the threshold it faced, and the verdict.

    Wall time is kept in memory for interactive use but never serialized, so
    reruns are byte-identical.
    """

    rho: float
    trial: int
    seed: int
    sigma: float
    threshold: float
    passed: bool
    wall_time: float = field(default=0.0, compare=False)


def _lift_sigma(matrix: np.ndarray, k: int) -> float:
    s = singular_values(matrix)
    return float(s[k - 1]) if k <= s.size else 0.0


def _random_row_isometry(rows: int, dim: int, master_seed: int, *path) -> np.ndarray:
    G = _rng.gaussians((dim, rows), master_seed, *path)
    Q, _ = np.linalg.qr(G)
    return Q.T


def _random_sym_projector_rows(n: int, d: int, rank: int, master_seed: int, *path):
    """rank x n**d matrix with orthonormal rows spanning symmetric tensors."""
    coeff = _random_row_isometry(rank, math.comb(n + d - 1, d), master_seed, *path)
    return from_sym_coords(coeff, n, d)


def _unit_columns(shape, master_seed, *path) -> np.ndarray:
    B = _rng.gaussians(shape, master_seed, *path)
    return B / np.linalg.norm(B, axis=0)


def _make_base(kind: str, n: int, m: int, master_seed: int) -> np.ndarray:
    if kind == "zero":
        return np.zeros((n, m))
    if kind == "random":
        return _unit_columns((n, m), master_seed, "base")
    if kind == "duplicated":
        u = _unit_columns((n, 1), master_seed, "base")
        return np.tile(u, (1, m))
    raise ValueError(f"unknown base kind {kind!r}")


def _make_measure(config: ExperimentConfig):
    """Bind per-experiment fixtures and return measure(rho, trial, seed)."""
    p = config.params
    target = config.target
    seed0 = config.master_seed

    if target in ("thm51", "cor53"):
        n, m, d = int(p["n"]), int(p["m"]), int(p.get("d", 2))
        delta = float(p.get("delta", 0.5))
        blocks = int(p.get("blocks", 1)) if target == "cor53" else 1
        rank = math.ceil(delta * math.comb(n + d - 1, d))
        phi = _random_sym_projector_rows(n, d, rank, seed0, "projector")
        bases = [_make_base(p.get("base", "zero"), n, m, _rng.derive_seed(seed0, "b", j))
                 for j in range(blocks)]
        k = blocks * math.comb(m + d - 1, d)

        def measure(rho, trial, seed):
            lifts = []
            for j in range(blocks):
                Z = _rng.gaussians((n, m), seed, "noise", j)
                lifts.append(sym_lift(bases[j] + rho * Z, d).data)
            return _lift_sigma(phi @ np.hstack(lifts), k), None, None
        return measure

    if target == "thm52":
        n, m, d = int(p["n"]), int(p["m"]), int(p.get("d", 2))
        delta = float(p.get("delta", 0.5))
        rank = math.ceil(delta * math.comb(n + d - 1, d))
        psi = _random_row_isometry(rank, n**d, seed0, "operator")
        bases = [_make_base(p.get("base", "zero"), n, m, _rng.derive_seed(seed0, "b", j))
                 for j in range(d)]

        def measure(rho, trial, seed):
            prod = None
            for j in range(d):
                M = bases[j] + rho * _rng.gaussians((n, m), seed, "noise", j)
                prod = M if prod is None else np.kron(prod, M)
            return _lift_sigma(psi @ prod, m**d), None, None
        return measure

    if target == "certify":
        op = variety_from_spec(p.get("variety", "determinantal:4,4,1"))
        m = int(p.get("m", 3))
        planted = bool(p.get("planted", False))
        base = _unit_columns((op.n, m), seed0, "base")
        plant_point = None
        if planted:
            plant_point = np.zeros(op.n)
            plant_point[0] = 1.0

        def measure(rho, trial, seed):
            B = base + rho * _rng.gaussians((op.n, m), seed, "noise")
            if plant_point is not None:
                B = B.copy()
                B[:, 0] = plant_point
            Q = orthonormalize_basis(B, keep_first=planted)
            report = certify(op, Q, tolerance=config.threshold)
            return report.eta, None, None
        return measure

    if target == "prop71":
        n, m = int(p["n"]), int(p["m"])

        def measure(rho, trial, seed):
            C = ps.make_symmetric_columns(n, m, rho, seed)
            M = ps.symmetric_cube_lift(C, n)
            return float(singular_values(M)[-1]), None, None
        return measure

    if target == "prop72":
        n, m, ell = int(p["n"]), int(p["m"]), int(p["ell"])
        bases = []
        for t in range(m):
            B = _rng.gaussians((n, n), seed0, "base", t)
            bases.append(B / np.linalg.norm(B))

        def measure(rho, trial, seed):
            mats = [bases[t] + rho * _rng.gaussians((n, n), seed, "noise", t)
                    for t in range(m)]
            V = ps.build_projected_V(mats, ell)
            return float(singular_values(V)[-1]), None, None
        return measure

    if target in ("prop73", "lemma74", "claim77", "claim76"):
        n, m = int(p["n"]), int(p["m"])

        def measure(rho, trial, seed):
            inst = ps.make_power_sum_instance(n, m, rho, seed)
            if target == "prop73":
                M = ps.build_sym4_IkronA(inst)
                s = singular_values(M)
                want = m * inst.n2 - math.comb(m, 2)
                rank = int(np.count_nonzero(s >= config.threshold))
                witness_ok = bool(
                    np.linalg.norm(M @ ps.antisym_witnesses(inst), axis=0).max()
                    <= config.threshold) if m > 1 else True
                return float(s[want - 1]), None, bool(rank == want and witness_ok)
            if target == "lemma74":
                M = ps.build_solution_space_M(inst)
                return float(singular_values(M)[-1]), None, None
            split = rho / math.sqrt(2.0)
            if target == "claim77":
                Q = ps.build_claim_Q(inst, split, split)
                return float(singular_values(Q)[-1]), None, None
            W = ps.build_claim_W(inst, split, split)
            robust_rank = 2 * m * inst.n2 - math.comb(2 * m, 2)
            return _lift_sigma(W, robust_rank), None, None
        return measure

    if target == "conj81":
        n, m, s_blocks = int(p["n"]), int(p["m"]), int(p.get("s", 2))
        d = int(p.get("d", 2))
        duplicate = p.get("control") == "duplicate"
        shared = bool(p.get("shared_base", True))
        proto = ps.make_clustering_instance(n, m, s_blocks, d, rho=1.0, seed=seed0,
                                            shared_base=shared)

        def measure(rho, trial, seed):
            inst = ps.ClusteringInstance(bases=proto.bases, d=d,
                                         rho=0.0 if duplicate else rho, seed=seed)
            M = ps.build_block_lift(inst)
            return float(singular_values(M)[-1]), None, None
        return measure

    if target == "conj82":
        dim, r, N = int(p["dim"]), int(p["r"]), int(p["N"])
        base = _rng.gaussians((N, dim), seed0, "points")
        base /= np.linalg.norm(base, axis=1, keepdims=True)

        def measure(rho, trial, seed):
            pts = base + rho * _rng.gaussians((N, dim), seed, "noise")
            M = ps.build_power_matrix(pts, r)
            return float(singular_values(M)[-1]), None, None
        return measure

    if target == "caa_probe":
        probe = _make_caa_measure(config)
        return probe

    if target == "jacobian_probe":
        n, m, k = int(p["n"]), int(p["m"]), int(p["k"])
        tau_factor = float(p.get("tau_factor", 0.1))
        baseU = _rng.gaussians((n, m), seed0, "baseU")
        baseV = _rng.gaussians((n, m), seed0, "baseV")
        need = math.ceil(n * k / 2)

        def measure(rho, trial, seed):
            alpha = np.zeros(m)
            support = _rng.rng(seed, "support").choice(m, size=k, replace=False)
            alpha[support] = 1.0
            U = baseU + rho * _rng.gaussians((n, m), seed, "noise", 0)
            V = baseV + rho * _rng.gaussians((n, m), seed, "noise", 1)
            J = jacobian_khatri_rao(alpha, U, V)
            count = count_large_singulars(J, tau_factor * rho)
            return float(count), float(need), bool(count >= need)
        return measure

    if target == "sigma_basic":
        n, k = int(p["n"]), int(p["k"])
        delta = float(p.get("delta", 1.0))
        h = float(p.get("h", 0.3))
        base = _make_base(p.get("base", "zero"), n, k, seed0)
        alpha = np.full(k, delta)
        order = math.ceil(k / 2)

        def measure(rho, trial, seed):
            V = base + rho * _rng.gaussians((n, k), seed, "noise")
            sigma = _lift_sigma(V @ np.diag(alpha), order)
            return sigma, h * rho * delta, None
        return measure

    if target == "const_control":
        n, m = int(p.get("n", 10)), int(p.get("m", 3))
        M = _rng.gaussians((n, m), seed0, "const")
        value = float(singular_values(M)[-1])

        def measure(rho, trial, seed):
            return value, None, None
        return measure

    raise ValueError(f"no builder bound to target {config.target!r}")


def _make_caa_measure(config: ExperimentConfig):
    """Khatri-Rao small-ball probe; the grid values of the config are h levels."""
    p = config.params
    n, m, k = int(p["n"]), int(p["m"]), int(p["k"])
    rho = float(p.get("rho", 1.0))
    pilot_trials = int(p.get("pilot_trials", 64))
    seed0 = config.master_seed
    delta = 1.0 / math.sqrt(k)
    baseU = _unit_columns((n, m), seed0, "baseU")
    baseV = _unit_columns((n, m), seed0, "baseV")

    def combo_norm(seed) -> float:
        support = _rng.rng(seed, "support").choice(m, size=k, replace=False)
        alpha = np.zeros(m)
        alpha[support] = delta
        U = baseU + rho * _rng.gaussians((n, m), seed, "noise", 0)
        V = baseV + rho * _rng.gaussians((n, m), seed, "noise", 1)
        return float(np.linalg.norm(khatri_rao(U, V) @ alpha))

    pilot = sorted(combo_norm(_rng.derive_seed(seed0, "pilot", t))
                   for t in range(pilot_trials))
    pilot_median = pilot[pilot_trials // 2]
    if pilot_median <= 0:
        raise ValueError("degenerate pilot: median combination norm is zero")
    lambda_hat = delta / pilot_median

    def measure(h, trial, seed):
        value = combo_norm(seed)
        thresh = delta * h / lambda_hat
        return value, thresh, bool(value >= thresh)
    measure.lambda_hat = lambda_hat
    measure.delta = delta
    return measure


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


def _max_workers() -> int:
    env = os.environ.get("LIFTCERT_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials of the configured target over its rho grid.

    Per trial: derive the trial stream, measure, compare with the threshold.
    The aggregate carries pass counts, Wilson 95% intervals, and singular
    value quantiles; acceptance (when ``min_passes`` is set) requires the raw
    pass count at every grid point.
    """
    measure = _make_measure(config)
    seeds = [_rng.derive_seed(config.master_seed, "trial", t)
             for t in range(config.trials)]

    reports: list[TrialReport] = []
    per_rho = []
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        for rho in config.rho_grid:
            def one(t, rho=rho):
                tick = time.perf_counter()
                sigma, thresh, passed = measure(rho, t, seeds[t])
                thresh = config.threshold if thresh is None else thresh
                passed = bool(sigma >= thresh) if passed is None else passed
                return TrialReport(rho=rho, trial=t, seed=seeds[t], sigma=sigma,
                                   threshold=thresh, passed=passed,
                                   wall_time=time.perf_counter() - tick)
            rows = list(pool.map(one, range(config.trials)))
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
    extras = {}
    for attr in ("lambda_hat", "delta"):
        if hasattr(measure, attr):
            extras[attr] = float(getattr(measure, attr))
    result = ExperimentResult(config=config, reports=reports, per_rho=per_rho,
                              extras=extras)
    if config.study == "scaling":
        result.extras["scaling"] = _scaling_flags(config, per_rho)
    return result


def _scaling_flags(config: ExperimentConfig, per_rho: list[dict]) -> dict:
    medians = [agg["sigma"]["median"] for agg in per_rho]
    rhos = [agg["rho"] for agg in per_rho]
    d = int(config.params.get("d", config.params.get("r", 1)))
    n = int(config.params.get("n", config.params.get("dim", 1)))
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
    if len(config.rho_grid) < 3:
        raise ValueError("a scaling study needs at least 3 grid points")
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
            "counts": quantile_summary([r.sigma for r in result.reports]),
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
