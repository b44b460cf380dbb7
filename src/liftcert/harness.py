"""Monte Carlo experiment engine.

An experiment is (target, params, rho_grid, trials, master_seed, threshold).
``TARGETS`` declares each target's params, which a config checks by name when
it is built, and a bind function that checks the dimension budget before any
trial.  Each trial derives its own random stream from (master_seed, trial
index).  A bound target is a ``Measure``: one trial's largest arrays, which
``run_experiment`` alone checks against the cap before the first draw, and the
draw, build and read stages, which it alone calls, per rho on all trial
seeds.  ``_at`` reads singular value k of a matrix or stack in one stacked SVD;
``_smoothed`` measures the fixed-base targets (thm51, cor53, thm52, prop72,
conj81, conj82, sigma_basic, const_control, certify) in stacks with the bytes
of one trial at a time, and at scale 0 (every rho of const_control) once for
all trials.  A refusal raised as a target binds or measures names every resolved
param; no target names them.  Everything runs in one thread, and the aggregation
is a fold over trial index.  A trial's noise is keyed by its seed only, never by
rho, so comparisons across a rho grid are paired by construction.

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
                       stacked_singular_values)
from .stats import quantile_summary, wilson_interval
from .tensor_lift import _check_entries, _lift_entries, _shown, khatri_rao, sym_lift
from .varieties import apply_to_lift, orthonormalize_basis, variety_from_spec

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
    """``bind(resolved params, config)`` checks the dimension budget, and the
    size of any array it builds itself, and returns the target's ``Measure``.
    A default ``threshold`` marks a ``liftcert powersum`` check."""

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


class Measure(NamedTuple):
    """A bound target's stages.  ``draw(rho, seeds)`` yields, in seed order,
    ``(inputs, trials)``: one run's inputs and how many trials it stands for.
    ``build(inputs)`` makes the run's matrix or stack; ``read(A, inputs, rho)``
    gives ``(sigma, threshold or None, passed or None)`` per matrix, None for the
    config's threshold and ``sigma >= threshold``.  A run of one matrix is read
    once for all its trials.  ``extras`` go into the summary; ``arrays``, one
    trial's largest arrays as ``{name: shape}``, are refused past the cap."""

    draw: Callable
    build: Callable
    read: Callable
    extras: dict = {}
    arrays: dict = {}


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


def _at(k: int, threshold=lambda rho: None) -> Callable:
    """The read of singular value k (-1 the least) of each matrix of a stack,
    in one stacked SVD, against ``threshold(rho)``."""
    return lambda A, inputs, rho: [(float(s), threshold(rho), None)
                                   for s in stacked_singular_values(A)[..., k].flat]


def _each(make) -> Callable:
    """The draw of one run per seed, of one trial: ``make(rho, seed)``."""
    return lambda rho, seeds: ((make(rho, seed), 1) for seed in seeds)


def _smoothed(bases: np.ndarray, build, read, per_trial: tuple, path: tuple = ("noise",),
              perturb=np.add, scale=lambda rho: rho, arrays: dict = {}) -> Measure:
    """The measure whose trial matrix is ``build`` of ``perturb(bases, scale(rho) *
    noise)``; base j of a stack draws noise keyed ``(seed, *path, j)``, one base
    ``(seed, *path)``.  It declares ``arrays``, then ``per_trial``, the shape of one
    trial's largest array, and a stack holds as many trials as fit in
    ``_STACK_ENTRIES`` entries, or the cap if less, so no stack can pass it.  Scale 0
    draws nothing: its one run, ``bases[None]``, stands for every trial."""

    def draw(rho, seeds):
        factor = scale(rho)
        if factor == 0:
            yield bases[None], len(seeds)
            return
        step = max(1, min(_STACK_ENTRIES, tensor_lift.MAX_DENSE_ENTRIES) // math.prod(per_trial))
        for start in range(0, len(seeds), step):
            chunk = seeds[start:start + step]
            noise = _rng.gaussians(bases.shape[-2:], chunk, *path,
                                   stack=len(bases) if bases.ndim == 3 else None)
            yield perturb(bases, factor * noise), len(chunk)
    return Measure(draw, build, read, arrays={**arrays, "one trial's arrays": per_trial})


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
    return _smoothed(bases, build, _at(k - 1), (blocks * _lift_entries(n, m, d),))


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
    return _smoothed(bases, lambda F: _kron_product(psi, F.swapaxes(0, 1)), _at(m**d - 1),
                     (max(rank * n * m ** (d - 1), rank * m**d, (n * m) ** (d - 1)),))


def _bind_certify(p, config):
    op = variety_from_spec(p["variety"])
    m, planted = p["m"], p["planted"]
    cols = math.comb(m + op.d - 1, op.d)
    _need(cols <= op.p, f"C(m+d-1,d) <= p = {op.p} generators")
    base = _rng.unit_columns((op.n, m), config.master_seed, "base")

    def build(B):
        if planted:  # e_0 first, in a new array: at scale 0 B is a view of the base
            B = np.where(np.arange(m) == 0, np.eye(op.n, 1), B)
        return np.array([apply_to_lift(op, orthonormalize_basis(b, keep_first=planted)) for b in B])
    # certify's eta.  Stacks hold bases and forms; each lift is built alone, and
    # declared first under sym_lift's own name: the basis and forms are no larger.
    return _smoothed(base, build, _at(-1), (max(op.n * m, op.p * cols),), arrays={
        f"the symmetrized lift with n = {op.n}, m = {m}, d = {op.d}":
        (math.comb(op.n + op.d - 1, op.d), cols)})


def _bind_prop71(p, config):
    """The order-6 projection of the order-3 lift of m symmetric columns."""
    n, m = p["n"], p["m"]
    return Measure(_each(lambda rho, seed: ps.make_symmetric_columns(n, m, rho, seed)),
                   lambda C: ps.symmetric_cube_lift(C, n), _at(-1), arrays={
                       "the symmetric columns": (n * n, m),
                       "the largest array of the order-3 lift": (_lift_entries(n * n, m, 3),),
                       "the order-6 projection": (n**6, math.comb(m + 2, 3)),
                       "the index rows of the order-6 projection": (n**6, 6)})


def _bind_prop72(p, config):
    n, m, ell = p["n"], p["m"], p["ell"]
    slack = n * n - n * ell - m * math.comb(ell + 1, 2) - m + 1
    _need(ell <= n and slack > 0,
          f"ell <= n and n^2 - n*ell - m*C(ell+1,2) - m + 1 = {slack} > 0")
    bases = np.array([B / np.linalg.norm(B)
                      for B in _rng.gaussians((n, n), config.master_seed, "base", stack=m)])
    # The lifts' largest arrays and the block matrix.
    cols = m * math.comb(ell + 1, 2) + m
    return _smoothed(bases, lambda mats: ps.build_projected_V(mats, ell), _at(-1),
                     (max(m * _lift_entries(n, ell, 2), n * n * cols),))


def _power_sum(p, build, read, rank: tuple[str, int] | None = None, cols: int = 0,
               arrays: dict = {}) -> Measure:
    """Check m < N2 and any named rank <= C(n+3,4); return the measure of one instance
    per seed, whose N2 x N2 completion, then ``arrays``, then any C(n+3,4) x cols block
    are declared."""
    n, m = p["n"], p["m"]
    n2, rows = math.comb(n + 1, 2), math.comb(n + 3, 4)
    _need(m < n2, f"m < N2 = C(n+1,2) = {n2}")
    if rank is not None:
        _need(rank[1] <= rows, f"{rank[0]} = {rank[1]} <= C(n+3,4) = {rows}")
    block = {"the degree-4 merge block": (rows, cols)} if cols else {}
    return Measure(_each(lambda rho, seed: ps.make_power_sum_instance(n, m, rho, seed)), build,
                   read, arrays={"the N2 x N2 completion": (n2, n2), **arrays, **block})


def _bind_prop73(p, config):
    m, n2 = p["m"], math.comb(p["n"] + 1, 2)
    want = m * n2 - math.comb(m, 2)

    def read(M, inst, rho):
        s = stacked_singular_values(M)
        rank = _rank_of_values(s, config.threshold)
        witness_ok = bool(
            np.linalg.norm(M @ ps.antisym_witnesses(inst), axis=0).max()
            <= config.threshold) if m > 1 else True
        return [(float(s[want - 1]), None, bool(rank == want and witness_ok))]
    return _power_sum(p, ps.build_sym4_IkronA, read, ("m*N2 - C(m,2)", want), m * n2)


def _bind_lemma74(p, config):
    # The pair sum's two products, side by side, of m*N2 - C(m,2) columns each.
    cols = 2 * (p["m"] * math.comb(p["n"] + 1, 2) - math.comb(p["m"], 2))
    return _power_sum(p, ps.build_solution_space_M, _at(-1), cols=cols)


def _bind_claim77(p, config):
    # claim77 and claim76 split the noise into two layers of rho / sqrt(2).  Past m = N2 / 2
    # claim77's draw of both is larger than its completion; claim76's block outweighs it.
    return _power_sum(p, lambda inst: ps.build_claim_Q(
        inst, inst.rho / math.sqrt(2.0), inst.rho / math.sqrt(2.0)), _at(-1),
        arrays={"a Gaussian draw": (2, math.comb(p["n"] + 1, 2), p["m"])})


def _bind_claim76(p, config):
    m, n2 = p["m"], math.comb(p["n"] + 1, 2)
    rank = 2 * m * n2 - math.comb(2 * m, 2)
    return _power_sum(p, lambda inst: ps.build_claim_W(inst, inst.rho / math.sqrt(2.0),
                                                       inst.rho / math.sqrt(2.0)),
                      _at(rank - 1), ("2*m*N2 - C(2m,2)", rank), 2 * m * n2)


def _bind_conj81(p, config):
    n, m, s, d = p["n"], p["m"], p["s"], p["d"]
    _need(s * math.comb(m + d - 1, d) <= math.comb(n + d - 1, d), "s*C(m+d-1,d) <= C(n+d-1,d)")
    bases = ps.make_clustering_bases(n, m, s, config.master_seed, shared_base=p["shared_base"])
    # Entrywise variance rho^2 / n (none for the duplicate control), then re-orthonormalized.
    return _smoothed(bases, lambda U: ps.build_block_lift(U, d), _at(-1),
                     (s * _lift_entries(n, m, d),), ("cluster", "noise"),
                     lambda B, noise: np.linalg.qr(B + noise)[0],
                     lambda rho: 0.0 if p["control"] == "duplicate" else rho / math.sqrt(n))


def _bind_conj82(p, config):
    dim, r, N = p["dim"], p["r"], p["N"]
    base = _rng.gaussians((N, dim), config.master_seed, "points")
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # A trial's largest array is the gather of its monomial factors.
    return _smoothed(base, lambda pts: ps.build_power_matrix(pts, r), _at(-1),
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

    def combo(trial) -> np.ndarray:
        alpha, U, V = trial
        return khatri_rao(U, V) @ (delta * alpha)

    pilot = sorted(float(np.linalg.norm(combo(_probe_trial(
        base, rho, _rng.derive_seed(seed0, "pilot", t), k)))) for t in range(p["pilot_trials"]))
    pilot_median = pilot[p["pilot_trials"] // 2]
    if not math.isfinite(pilot_median):
        raise NonFiniteMatrixError(f"pilot median combination norm is {pilot_median}")
    if pilot_median <= 0:
        raise ValueError("degenerate pilot: median combination norm is zero")
    lambda_hat = delta / pilot_median

    def read(v, trial, h):
        value, thresh = float(np.linalg.norm(v)), delta * h / lambda_hat
        return [(value, thresh, bool(value >= thresh))]
    return Measure(_each(lambda h, seed: _probe_trial(base, rho, seed, k)), combo, read,
                   {"lambda_hat": lambda_hat, "delta": delta})


def _bind_jacobian_probe(p, config):
    n, m, k = p["n"], p["m"], p["k"]
    _need(k <= m, "k <= m")
    base = np.array([_rng.gaussians((n, m), config.master_seed, "baseU"),
                     _rng.gaussians((n, m), config.master_seed, "baseV")])
    need = math.ceil(n * k / 2)

    def read(J, trial, rho):
        s = stacked_singular_values(J)
        count = _rank_of_values(s, max(p["tau_factor"] * rho, DEFAULT_RTOL * s[0]))
        return [(float(count), float(need), bool(count >= need))]
    return Measure(_each(lambda rho, seed: _probe_trial(base, rho, seed, k)),
                   lambda trial: jacobian_khatri_rao(*trial), read,
                   arrays={"the Khatri-Rao Jacobian": (n * n, 2 * n * m)})


def _bind_sigma_basic(p, config):
    n, k, delta = p["n"], p["k"], p["delta"]
    order = math.ceil(k / 2)
    _need(order <= min(n, k), "ceil(k/2) <= min(n,k)")
    return _smoothed(_make_base(p["base"], n, k, config.master_seed), lambda V: delta * V,
                     _at(order - 1, lambda rho: p["h"] * rho * delta), (n, k))


def _bind_const_control(p, config):
    shape = (p["n"], p["m"])
    return _smoothed(_rng.gaussians(shape, config.master_seed, "const"), lambda A: A, _at(-1),
                     shape, scale=lambda rho: 0.0)


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

    Per rho: draw the trials' runs, build and read each as it is drawn, check
    each value finite (``NonFiniteMatrixError`` otherwise), compare with the
    threshold.  The aggregate carries pass counts, Wilson 95% intervals, and
    singular value quantiles; acceptance (when ``min_passes`` is set) requires the raw
    pass count at every grid point.

    A usage error (a ``ValueError`` neither arithmetic nor a ``LinAlgError``)
    raised while the target binds, its arrays are checked against the cap
    (before the first draw) or a rho is measured is re-raised as its class
    prefixed ``params n=10, m=2, ...: ``, every resolved param named once.
    """
    seeds = [_rng.derive_seed(config.master_seed, "trial", t) for t in range(config.trials)]
    reports: list[TrialReport] = []
    per_rho = []

    def reads(measure, rho):
        for inputs, trials in measure.draw(rho, seeds):
            read = measure.read(measure.build(inputs), inputs, rho)
            yield from read * trials if len(read) == 1 else read
    try:
        measure = TARGETS[config.target].bind(config.params, config)
        for name, shape in measure.arrays.items():
            _check_entries(shape, name)
        for rho in config.rho_grid:
            rows = []
            for t, (seed, (sigma, thresh, passed)) in enumerate(
                    zip(seeds, reads(measure, rho), strict=True)):
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
    result = ExperimentResult(config=config, reports=reports, per_rho=per_rho,
                              extras=dict(measure.extras))
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
