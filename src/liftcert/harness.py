"""Monte Carlo experiment engine.

An experiment is (target, params, rho_grid, trials, master_seed, threshold).
``TARGETS`` declares each target's params, which a config checks by name when
it is built, and a bind function that checks the dimension budget before any
trial.  Each trial derives its own random stream from (master_seed, trial
index).  The bound measure is called once per rho with all of that rho's
trial seeds.  ``_read`` takes every singular value a target reports, each
matrix or stack of its ``Spectra`` decomposed as it is read; ``_smoothed``
measures the fixed-base targets (thm51, cor53, thm52, prop72, conj81, conj82,
sigma_basic) in stacks with the bytes of one trial at a time, and at rho 0
(const_control's only scale) once for all trials.  ``run_experiment`` names
every resolved param in each refusal raised as a target binds or measures;
no target names them itself.  Everything runs in one thread, and the
aggregation is a fold over trial index.  A trial's noise is keyed by its seed
only, never by rho, so comparisons across a rho grid are paired by construction.

Output contract: one CSV row per trial plus a JSON summary, both
byte-reproducible for a fixed config (timings never enter the files).
"""

from __future__ import annotations

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
from . import tensor_lift
from .matrixio import format_float
from .spectral import (DEFAULT_RTOL, NonFiniteMatrixError, _rank_of_values, jacobian_khatri_rao,
                       singular_values, stacked_singular_values)
from .stats import quantile_summary, wilson_interval
from .tensor_lift import _check_entries, _lift_entries, _shown, khatri_rao, sym_lift
from .varieties import certify, orthonormalize_basis, variety_from_spec

REQUIRED = object()
# A rho's trials are measured in stacks of at most this many entries per
# array (8 MB), or MAX_DENSE_ENTRIES if less, so a large trial count does not
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
    """``bind(resolved params, config)`` returns ``measure(rho, seeds)``, called
    once per rho with its trials' seeds: Spectra, or their values read, for a
    target that reports a singular value, else ``(sigma, threshold or None,
    passed or None)`` per seed in order, None for the config's threshold and
    ``sigma >= threshold``.  A default ``threshold`` marks a ``liftcert powersum`` check."""

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


class Spectra(NamedTuple):
    """A rho's matrices in seed order as an iterable that builds each matrix,
    or (trials, rows, cols) stack of them, as it is read, and the index ``k``
    (-1 the least) of the singular value each trial measures against ``threshold``."""

    mats: object
    k: int
    threshold: float | None = None


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
        _check_entries((len(typed["rho_grid"]), typed["trials"]), "the rho_grid x trials reports")
        if self.study not in (None, "scaling"):
            raise ValueError(f"unknown study {self.study!r}")
        distinct = len(set(typed["rho_grid"]))
        if self.study == "scaling" and distinct < 3:
            raise ValueError(f"a scaling study needs at least 3 rho_grid points, "
                             f"got {distinct} distinct in {self.rho_grid}")
        if not isinstance(self.name, str) or os.path.basename(self.name) != self.name \
                or self.name in (".", ".."):
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
    _check_entries((dim, rows), "the random row isometry")
    G = _rng.gaussians((dim, rows), master_seed, *path)
    Q, _ = np.linalg.qr(G)
    return Q.T


def _make_base(kind: str, n: int, m: int, master_seed: int) -> np.ndarray:
    """An n x m base of one of the ``_BASE`` kinds."""
    _check_entries((n, m), f"the {kind} base")
    if kind == "zero":
        return np.zeros((n, m))
    if kind == "random":
        return _rng.unit_columns((n, m), master_seed, "base")
    return np.tile(_rng.unit_columns((n, 1), master_seed, "base"), (1, m))


def _need(ok: bool, rule: str) -> None:
    """Refuse params that break a target's dimension budget."""
    if not ok:
        raise ValueError(f"the dimension budget {rule} does not hold")


def _smoothed(bases: np.ndarray, build, k: int, per_trial: tuple, path: tuple = ("noise",),
              perturb=np.add, threshold=lambda scale: None):
    """A measure whose trial matrix is ``build`` of ``perturb(bases, scale * noise)``,
    read at singular value k against ``threshold(scale)``; base j of a stack draws
    noise keyed ``(seed, *path, j)``, one base ``(seed, *path)``.  ``per_trial``, the
    shape of one trial's largest array, is checked against the cap now, and a stack
    holds as many trials as fit in ``_STACK_ENTRIES`` entries, or the cap if less, so no
    stack can pass it.  Scale 0 draws nothing: all seeds read ``build(bases[None])``."""
    _check_entries(per_trial, "one trial's arrays")

    def stacks(scale, seeds):
        step = max(1, min(_STACK_ENTRIES, tensor_lift.MAX_DENSE_ENTRIES) // math.prod(per_trial))
        for start in range(0, len(seeds), step):
            chunk = seeds[start:start + step]
            noise = _rng.gaussians(bases.shape[-2:], chunk, *path,
                                   stack=len(bases) if bases.ndim == 3 else None)
            yield build(perturb(bases, scale * noise))

    return lambda scale, seeds: (
        _read(Spectra([build(bases[None])], k, threshold(scale))) * len(seeds) if scale == 0
        else Spectra(stacks(scale, seeds), k, threshold(scale)))


def _read(measured) -> list:
    """A measure's ``(sigma, threshold, passed)`` per trial: each matrix or
    stack of Spectra decomposed as it is read; other measures as they are."""
    if not isinstance(measured, Spectra):
        return measured
    mats, k, threshold = measured
    return [(float(s), threshold, None)
            for A in mats for s in stacked_singular_values(A)[..., k].flat]


def _lift_rank(p) -> int:
    """ceil(delta * C(n+d-1, d)), the rows of the thm51, cor53 and thm52
    operators.  Each row has at least C(n+d-1, d) entries (thm52's have
    n**d), so that count is checked against the cap before the product,
    which overflows a float past 1e308."""
    n, d = p["n"], p["d"]
    dim = math.comb(n + d - 1, d)
    _check_entries((dim,), "a row of the random row isometry")
    return math.ceil(p["delta"] * dim)


def _bind_lift(p, config):
    """thm51 and cor53: a random symmetric-space projector applied to
    ``blocks`` concatenated order-d lifts (thm51 has one)."""
    n, m, d, blocks = p["n"], p["m"], p["d"], p.get("blocks", 1)
    rank = _lift_rank(p)
    k = blocks * math.comb(m + d - 1, d)
    _need(k <= rank, f"blocks*C(m+d-1,d) = {_shown(k)} <= ceil(delta*C(n+d-1,d)) = {rank}")
    # Orthonormal rows spanning symmetric tensors, in isometric coordinates.
    phi = _random_row_isometry(rank, math.comb(n + d - 1, d), config.master_seed, "projector")
    bases = np.array([_make_base(p["base"], n, m, _rng.derive_seed(config.master_seed, "b", j))
                      for j in range(blocks)])

    def build(U):
        coords = sym_lift(U, d).coords
        # Each trial's k x C(n+d-1, d) stack of transposed lifts, column-major
        # as np.vstack leaves them: BLAS rounds the two orders differently.
        lifts = coords.transpose(0, 2, 1, 3).reshape(len(U), -1, k).swapaxes(-1, -2)
        return lifts @ phi.T
    return _smoothed(bases, build, k - 1, (blocks * _lift_entries(n, m, d),))


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
    rank = _lift_rank(p)
    # Past m = 1, m**d > rank once d reaches rank's bit length: that huge power is never formed.
    _need(m == 1 or (d < rank.bit_length() and m**d <= rank),
          f"m**d <= ceil(delta*C(n+d-1,d)) = {rank}")
    psi = _random_row_isometry(rank, n**d, config.master_seed, "operator")
    # In C order, no stack copies psi to fold it; at d = 1, psi @ U rounds by its order.
    psi = np.ascontiguousarray(psi) if d > 1 else psi
    _check_entries((d, n, m), "the stack of per-mode bases")
    bases = np.array([_make_base(p["base"], n, m, _rng.derive_seed(config.master_seed, "b", j))
                      for j in range(d)])
    # The mode products' largest arrays: T, the result and the folded rest.
    return _smoothed(bases, lambda factors: _kron_product(psi, factors.swapaxes(0, 1)),
                     m**d - 1, (max(rank * n * m ** (d - 1), rank * m**d, (n * m) ** (d - 1)),))


def _bind_certify(p, config):
    op = variety_from_spec(p["variety"])
    m, planted = p["m"], p["planted"]
    _need(math.comb(m + op.d - 1, op.d) <= op.p, f"C(m+d-1,d) <= p = {op.p} generators")
    base = _rng.unit_columns((op.n, m), config.master_seed, "base")

    def measure(rho, seeds):
        for seed in seeds:
            B = base + rho * _rng.gaussians((op.n, m), seed, "noise")
            if planted:
                B[:, 0] = 0.0
                B[0, 0] = 1.0
            Q = orthonormalize_basis(B, keep_first=planted)
            yield certify(op, Q).eta, None, None
    return measure


def _bind_prop71(p, config):
    """The order-6 projection of the order-3 lift of m symmetric columns.
    Before any draw the columns, every array of the lift, its n**6 full
    rows, which the projection keeps, and the n**6 x 6 index rows of the
    projection's orbits are checked against the cap."""
    n, m = p["n"], p["m"]
    _check_entries((n * n, m), "the symmetric columns")
    _check_entries((_lift_entries(n * n, m, 3),), "the largest array of the order-3 lift")
    _check_entries((n**6, math.comb(m + 2, 3)), "the order-6 projection")
    _check_entries((n**6, 6), "the index rows of the order-6 projection")

    def measure(rho, seeds):
        cols = (ps.make_symmetric_columns(n, m, rho, seed) for seed in seeds)
        return Spectra((ps.symmetric_cube_lift(C, n) for C in cols), -1)
    return measure


def _bind_prop72(p, config):
    n, m, ell = p["n"], p["m"], p["ell"]
    slack = n * n - n * ell - m * math.comb(ell + 1, 2) - m + 1
    _need(ell <= n and slack > 0,
          f"ell <= n and n^2 - n*ell - m*C(ell+1,2) - m + 1 = {slack} > 0")
    bases = np.array([B / np.linalg.norm(B)
                      for B in _rng.gaussians((n, n), config.master_seed, "base", stack=m)])
    # The lifts' largest arrays and the block matrix.
    cols = m * math.comb(ell + 1, 2) + m
    return _smoothed(bases, lambda mats: ps.build_projected_V(mats, ell), -1,
                     (max(m * _lift_entries(n, ell, 2), n * n * cols),))


def _power_sum_instances(p, rank: tuple[str, int] | None = None):
    """Check m < N2 and any named rank <= C(n+3,4); return rho, seeds -> the instances."""
    n, m = p["n"], p["m"]
    n2 = math.comb(n + 1, 2)
    _need(m < n2, f"m < N2 = C(n+1,2) = {n2}")
    if rank is not None:
        rows = math.comb(n + 3, 4)
        _need(rank[1] <= rows, f"{rank[0]} = {rank[1]} <= C(n+3,4) = {rows}")
    return lambda rho, seeds: (ps.make_power_sum_instance(n, m, rho, seed) for seed in seeds)


def _bind_prop73(p, config):
    m = p["m"]
    want = m * math.comb(p["n"] + 1, 2) - math.comb(m, 2)
    instances = _power_sum_instances(p, ("m*N2 - C(m,2)", want))

    def measure(rho, seeds):
        for inst in instances(rho, seeds):
            M = ps.build_sym4_IkronA(inst)
            s = singular_values(M)
            rank = _rank_of_values(s, config.threshold)
            witness_ok = bool(
                np.linalg.norm(M @ ps.antisym_witnesses(inst), axis=0).max()
                <= config.threshold) if m > 1 else True
            yield float(s[want - 1]), None, bool(rank == want and witness_ok)
    return measure


def _bind_lemma74(p, config):
    instances = _power_sum_instances(p)
    return lambda rho, seeds: Spectra(map(ps.build_solution_space_M, instances(rho, seeds)), -1)


def _bind_claim77(p, config):
    instances = _power_sum_instances(p)

    def measure(rho, seeds):
        insts, layer = instances(rho, seeds), rho / math.sqrt(2.0)
        return Spectra((ps.build_claim_Q(inst, layer, layer) for inst in insts), -1)
    return measure


def _bind_claim76(p, config):
    m = p["m"]
    rank = 2 * m * math.comb(p["n"] + 1, 2) - math.comb(2 * m, 2)
    instances = _power_sum_instances(p, ("2*m*N2 - C(2m,2)", rank))

    def measure(rho, seeds):
        insts, layer = instances(rho, seeds), rho / math.sqrt(2.0)
        return Spectra((ps.build_claim_W(inst, layer, layer) for inst in insts), rank - 1)
    return measure


def _bind_conj81(p, config):
    n, m, s, d = p["n"], p["m"], p["s"], p["d"]
    _need(s * math.comb(m + d - 1, d) <= math.comb(n + d - 1, d), "s*C(m+d-1,d) <= C(n+d-1,d)")
    bases = ps.make_clustering_bases(n, m, s, config.master_seed, shared_base=p["shared_base"])
    # Entrywise variance rho^2 / n (none for the duplicate control), then re-orthonormalized.
    smoothed = _smoothed(bases, lambda U: ps.build_block_lift(U, d), -1,
                         (s * _lift_entries(n, m, d),), ("cluster", "noise"),
                         lambda B, noise: np.linalg.qr(B + noise)[0])
    duplicate = p["control"] == "duplicate"
    return lambda rho, seeds: smoothed(0.0 if duplicate else rho / math.sqrt(n), seeds)


def _bind_conj82(p, config):
    dim, r, N = p["dim"], p["r"], p["N"]
    base = _rng.gaussians((N, dim), config.master_seed, "points")
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # A trial's largest array is the gather of its monomial factors.
    return _smoothed(base, lambda pts: ps.build_power_matrix(pts, r), -1,
                     (N, math.comb(dim + r - 1, r), r))


def _probe_trial(base: np.ndarray, rho: float, seed: int, k: int):
    """A probe trial's indicator of k of the m columns, keyed ``(seed,
    "support")``, and its pair ``base + rho * noise``, keyed ``(seed,
    "noise", 0 and 1)``."""
    alpha = np.zeros(base.shape[-1])
    alpha[_rng.rng(seed, "support").choice(len(alpha), size=k, replace=False)] = 1.0
    U, V = base + rho * _rng.gaussians(base.shape[1:], seed, "noise", stack=2)
    return alpha, U, V


def _bind_caa_probe(p, config):
    """Khatri-Rao small-ball probe; the grid values of the config are h levels."""
    n, m, k, rho = p["n"], p["m"], p["k"], p["rho"]
    _need(k <= m, "k <= m")
    _check_entries((p["pilot_trials"],), "the pilot_trials combination norms")
    _check_entries((n * n, m), "the Khatri-Rao product")
    seed0 = config.master_seed
    delta = 1.0 / math.sqrt(k)
    base = np.array([_rng.unit_columns((n, m), seed0, "baseU"),
                     _rng.unit_columns((n, m), seed0, "baseV")])

    def combo_norm(seed) -> float:
        alpha, U, V = _probe_trial(base, rho, seed, k)
        return float(np.linalg.norm(khatri_rao(U, V) @ (delta * alpha)))

    pilot = sorted(combo_norm(_rng.derive_seed(seed0, "pilot", t))
                   for t in range(p["pilot_trials"]))
    pilot_median = pilot[p["pilot_trials"] // 2]
    if not math.isfinite(pilot_median):
        raise NonFiniteMatrixError(f"pilot median combination norm is {pilot_median}")
    if pilot_median <= 0:
        raise ValueError("degenerate pilot: median combination norm is zero")
    lambda_hat = delta / pilot_median

    def measure(h, seeds):
        thresh = delta * h / lambda_hat
        for seed in seeds:
            value = combo_norm(seed)
            yield value, thresh, bool(value >= thresh)
    measure.lambda_hat = lambda_hat
    measure.delta = delta
    return measure


def _bind_jacobian_probe(p, config):
    n, m, k = p["n"], p["m"], p["k"]
    _need(k <= m, "k <= m")
    base = np.array([_rng.gaussians((n, m), config.master_seed, "baseU"),
                     _rng.gaussians((n, m), config.master_seed, "baseV")])
    need = math.ceil(n * k / 2)

    def measure(rho, seeds):
        for seed in seeds:
            s = singular_values(jacobian_khatri_rao(*_probe_trial(base, rho, seed, k)))
            count = _rank_of_values(s, max(p["tau_factor"] * rho, DEFAULT_RTOL * s[0]))
            yield float(count), float(need), bool(count >= need)
    return measure


def _bind_sigma_basic(p, config):
    n, k, delta = p["n"], p["k"], p["delta"]
    order = math.ceil(k / 2)
    _need(order <= min(n, k), "ceil(k/2) <= min(n,k)")
    return _smoothed(_make_base(p["base"], n, k, config.master_seed), lambda V: delta * V,
                     order - 1, (n, k), threshold=lambda rho: p["h"] * rho * delta)


def _bind_const_control(p, config):
    shape = (p["n"], p["m"])
    measure = _smoothed(_rng.gaussians(shape, config.master_seed, "const"), lambda A: A, -1, shape)
    return lambda rho, seeds: measure(0.0, seeds)


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
    "caa_probe": Target({**_N_M, "k": Param(int), "rho": Param(float, 1.0, bound=(">=", 0.0)),
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

    A usage error (a ``ValueError`` neither arithmetic nor a ``LinAlgError``)
    raised while the target binds or a rho is measured is re-raised as its class
    prefixed ``params n=10, m=2, ...: ``, every resolved param named once.
    """
    seeds = [_rng.derive_seed(config.master_seed, "trial", t) for t in range(config.trials)]
    reports: list[TrialReport] = []
    per_rho = []
    try:
        measure = TARGETS[config.target].bind(config.params, config)
        for rho in config.rho_grid:
            rows = []
            for t, (seed, (sigma, thresh, passed)) in enumerate(
                    zip(seeds, _read(measure(rho, seeds)), strict=True)):
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
            per_rho.append({"rho": rho, "pass_count": count, "pass_rate": count / config.trials,
                            "wilson_low": low, "wilson_high": high,
                            "sigma": quantile_summary([r.sigma for r in rows])})
    except ValueError as exc:
        if isinstance(exc, (ArithmeticError, np.linalg.LinAlgError)):
            raise
        named = ", ".join(f"{name}={value}" for name, value in config.params.items())
        raise type(exc)(f"params {named}: {exc}") from exc
    extras = {attr: float(getattr(measure, attr)) for attr in ("lambda_hat", "delta")
              if hasattr(measure, attr)}
    result = ExperimentResult(config=config, reports=reports, per_rho=per_rho,
                              extras=extras)
    if config.study == "scaling":
        result.extras["scaling"] = _scaling_flags(config, per_rho)
    return result


def _meets_envelope(median: float, rho: float, d: int, n: int) -> bool:
    """median >= rho**d / n**6, compared in logs where rho**d is past the float range."""
    try:
        return median >= rho**d / n**6
    except OverflowError:
        return median > 0 and math.log(median) >= d * math.log(rho) - 6 * math.log(n)


def _scaling_flags(config: ExperimentConfig, per_rho: list[dict]) -> dict:
    medians = [agg["sigma"]["median"] for agg in per_rho]
    rhos = [agg["rho"] for agg in per_rho]
    p = config.params
    d = p.get("d", p.get("r", 1))
    n = p.get("n", p.get("dim", 1))
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(medians, medians[1:]))
    envelope = all(_meets_envelope(med, rho, d, n) for med, rho in zip(medians, rhos))
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
