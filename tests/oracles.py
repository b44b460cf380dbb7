"""Reference oracles that only the tests use.

They build what the library never needs to form: the full n**d x n**d
averaging projector, a polynomial's value from its coefficient row, matrix
CSV text written, or parsed, one entry at a time, a variety operator's
dense generator matrix with the certificate read off its dense product, the
Kronecker product that thm52's operator is applied to, the measures of the
targets that report a singular value taken one trial at a time with
``singular_values(...)[k]``, the conj82 measure with its multinomial
coefficients computed exactly, and the jacobian_probe count taken as the
singular values at or above ``tau_factor * rho``.
"""

import itertools
import math
from functools import reduce

import numpy as np

from liftcert import powersum, rng
from liftcert.harness import _kron, _kron_product, _make_base, _need, _random_row_isometry
from liftcert.matrixio import format_float
from liftcert.spectral import jacobian_khatri_rao, singular_values
from liftcert.tensor_lift import _check_entries, _orbits, _rank, sym_lift


def sym_projector_matrix(n: int, d: int) -> np.ndarray:
    """Dense n**d x n**d matrix of the mode-permutation averaging projector."""
    _check_entries((n**d, n**d), f"the projector with n = {n}, d = {d}")
    ids, weight = _orbits(n, d)[:2]
    return np.where(ids[:, None] == ids, weight, 0.0)


def evaluate_power_row(row: np.ndarray, x: np.ndarray, r: int) -> float:
    """Pair a coefficient row with the monomial vector of x, one product per
    multiset of r coordinates, in lexicographic order."""
    x = np.asarray(x, dtype=float)
    monomials = [math.prod(x[list(c)])
                 for c in itertools.combinations_with_replacement(range(len(x)), r)]
    return float(row @ np.array(monomials))


def matrix_to_csv_per_entry(A: np.ndarray, header_comments: list[str] | None = None) -> str:
    """matrix_to_csv's text, joined from one format_float call per entry."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lines = [f"# {c}" for c in (header_comments or [])]
    lines += [",".join(format_float(x) for x in row) for row in A]
    return "\n".join(lines) + "\n"


def matrix_from_csv_per_entry(text: str) -> np.ndarray:
    """load_matrix_csv's array for well-formed text, each entry parsed as a
    Python str cast to float (``1_000`` included)."""
    rows = [line.strip() for line in text.splitlines()]
    rows = [row.split(",") for row in rows if row and not row.startswith("#")]
    return np.array(rows, dtype=float)


def dense_determinantal_generators(n1: int, n2: int, r: int) -> np.ndarray:
    """The (r+1)-minors as a dense p x C(N+d-1, d) matrix in isometric
    symmetric coordinates: row (I, J) holds sign(pi) / sqrt(d!) at the
    monomial prod_t x[I_t, J_pi(t)] for every permutation pi."""
    N, d = n1 * n2, r + 1
    shape = (math.comb(n1, d) * math.comb(n2, d), math.comb(N + d - 1, d))
    _check_entries(shape, f"the dense determinantal generators with n1 = {n1}, n2 = {n2}, r = {r}")
    rows = np.array(list(itertools.combinations(range(n1), d)))
    cols = np.array(list(itertools.combinations(range(n2), d)))
    perms = np.array(list(itertools.permutations(range(d))))
    sign = np.linalg.det(np.eye(d)[perms])
    variables = rows[:, None, None, :] * n2 + cols[:, perms][None]
    G = np.zeros(shape)
    G[np.arange(shape[0])[:, None], _rank(variables, N).reshape(shape[0], -1)] = \
        sign / math.sqrt(math.factorial(d))
    return G


def dense_certificate(op, basis: np.ndarray, tolerance: float = 1e-9) -> tuple[float, str]:
    """certify's eta and verdict from the dense product of the lift's
    isometric coordinates with the operator's generator rows."""
    lifted = sym_lift(basis, op.d).coords.T @ op.generators.T
    s = singular_values(lifted)
    floor = max(lifted.shape) * np.finfo(float).eps * s[0]
    return float(s[-1]), "certified_far" if s[-1] > max(tolerance, floor) else "dont_know"


def kron_operator(psi: np.ndarray, factors) -> np.ndarray:
    """thm52's matrix, psi times the formed n**d x m**d Kronecker product of
    its factors."""
    return psi @ reduce(_kron, factors)


def per_trial(bind):
    """A bind whose measure takes one seed, made a bind whose measure takes
    a rho's seeds and measures them in order."""
    def bind_seeds(p, config):
        measure = bind(p, config)
        return lambda rho, seeds: [measure(rho, s) for s in seeds]
    return bind_seeds


def per_trial_lift(p, config):
    """thm51 and cor53 measured one trial at a time: each block's lift on its
    own, the transposed lifts stacked by np.vstack."""
    n, m, d, blocks = p["n"], p["m"], p["d"], p.get("blocks", 1)
    rank = math.ceil(p["delta"] * math.comb(n + d - 1, d))
    k = blocks * math.comb(m + d - 1, d)
    _need(k <= rank, "blocks*C(m+d-1,d) <= ceil(delta*C(n+d-1,d))")
    phi = _random_row_isometry(rank, math.comb(n + d - 1, d), config.master_seed, "projector")
    bases = np.array([_make_base(p["base"], n, m, rng.derive_seed(config.master_seed, "b", j))
                      for j in range(blocks)])

    def measure(rho, seed):
        perturbed = bases + rho * rng.gaussians((n, m), seed, "noise", stack=blocks)
        lifts = [sym_lift(B, d).coords.T for B in perturbed]
        return float(singular_values(np.vstack(lifts) @ phi.T)[k - 1]), None, None
    return measure


def per_trial_thm52(p, config):
    """thm52 measured one trial at a time."""
    n, m, d = p["n"], p["m"], p["d"]
    rank = math.ceil(p["delta"] * math.comb(n + d - 1, d))
    _need(m**d <= rank, "m**d <= ceil(delta*C(n+d-1,d))")
    psi = _random_row_isometry(rank, n**d, config.master_seed, "operator")
    bases = np.array([_make_base(p["base"], n, m, rng.derive_seed(config.master_seed, "b", j))
                      for j in range(d)])

    def measure(rho, seed):
        factors = bases + rho * rng.gaussians((n, m), seed, "noise", stack=d)
        return float(singular_values(_kron_product(psi, factors))[m**d - 1]), None, None
    return measure


def exact_orbit_conj82(p, config):
    """conj82 measured with each multinomial coefficient divided out in
    Python ints and rounded once, the multisets listed by itertools."""
    dim, r, N = p["dim"], p["r"], p["N"]
    base = rng.gaussians((N, dim), config.master_seed, "points")
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    multisets = np.array(list(itertools.combinations_with_replacement(range(dim), r)))
    coeffs = np.array([math.factorial(r) // math.prod(map(math.factorial, np.bincount(c).tolist()))
                       for c in multisets], dtype=float)

    def measure(rho, seed):
        pts = base + rho * rng.gaussians((N, dim), seed, "noise")
        return float(singular_values(coeffs * pts[:, multisets].prod(axis=-1))[-1]), None, None
    return measure


def per_trial_prop72(p, config):
    """prop72 measured one trial at a time, its matrices passed as a list."""
    n, m, ell = p["n"], p["m"], p["ell"]
    bases = np.array([B / np.linalg.norm(B)
                      for B in rng.gaussians((n, n), config.master_seed, "base", stack=m)])

    def measure(rho, seed):
        mats = list(bases + rho * rng.gaussians((n, n), seed, "noise", stack=m))
        return float(singular_values(powersum.build_projected_V(mats, ell))[-1]), None, None
    return measure


def per_trial_prop71(p, config):
    """prop71 measured one trial at a time."""
    def measure(rho, seed):
        C = powersum.make_symmetric_columns(p["n"], p["m"], rho, seed)
        return float(singular_values(powersum.symmetric_cube_lift(C, p["n"]))[-1]), None, None
    return measure


def per_trial_lemma74(p, config):
    """lemma74 measured one trial at a time."""
    def measure(rho, seed):
        inst = powersum.make_power_sum_instance(p["n"], p["m"], rho, seed)
        return float(singular_values(powersum.build_solution_space_M(inst))[-1]), None, None
    return measure


def per_trial_claim77(p, config):
    """claim77 measured one trial at a time."""
    def measure(rho, seed):
        inst = powersum.make_power_sum_instance(p["n"], p["m"], rho, seed)
        Q = powersum.build_claim_Q(inst, rho / math.sqrt(2.0), rho / math.sqrt(2.0))
        return float(singular_values(Q)[-1]), None, None
    return measure


def per_trial_claim76(p, config):
    """claim76 measured one trial at a time."""
    m = p["m"]
    rank = 2 * m * math.comb(p["n"] + 1, 2) - math.comb(2 * m, 2)

    def measure(rho, seed):
        inst = powersum.make_power_sum_instance(p["n"], m, rho, seed)
        W = powersum.build_claim_W(inst, rho / math.sqrt(2.0), rho / math.sqrt(2.0))
        return float(singular_values(W)[rank - 1]), None, None
    return measure


def per_trial_conj81(p, config):
    """conj81 measured one trial at a time: unless rho is 0 or the control
    duplicates them, the bases get noise of entrywise variance rho^2 / n and
    are re-orthonormalized before they are lifted."""
    n, m, s = p["n"], p["m"], p["s"]
    bases = powersum.make_clustering_bases(n, m, s, config.master_seed,
                                           shared_base=p["shared_base"])

    def measure(rho, seed):
        perturbed = bases
        if rho > 0 and p["control"] != "duplicate":
            noise = (rho / math.sqrt(n)) * rng.gaussians((n, m), seed, "cluster", "noise", stack=s)
            perturbed, _ = np.linalg.qr(bases + noise)
        M = powersum.build_block_lift(perturbed, p["d"])
        return float(singular_values(M)[-1]), None, None
    return measure


def per_trial_conj82(p, config):
    """conj82 measured one trial at a time."""
    dim, N = p["dim"], p["N"]
    base = rng.gaussians((N, dim), config.master_seed, "points")
    base /= np.linalg.norm(base, axis=1, keepdims=True)

    def measure(rho, seed):
        pts = base + rho * rng.gaussians((N, dim), seed, "noise")
        return float(singular_values(powersum.build_power_matrix(pts, p["r"]))[-1]), None, None
    return measure


def per_trial_sigma_basic(p, config):
    """sigma_basic measured one trial at a time, with its per-rho threshold."""
    n, k, delta = p["n"], p["k"], p["delta"]
    order = math.ceil(k / 2)
    base = _make_base(p["base"], n, k, config.master_seed)

    def measure(rho, seed):
        V = base + rho * rng.gaussians((n, k), seed, "noise")
        sigma = float(singular_values(delta * V)[order - 1])
        return sigma, p["h"] * rho * delta, None
    return measure


def per_trial_jacobian_probe(p, config):
    """jacobian_probe measured one trial at a time, counting every singular
    value of the Jacobian at or above ``tau_factor * rho``."""
    n, m, k = p["n"], p["m"], p["k"]
    base = np.array([rng.gaussians((n, m), config.master_seed, "baseU"),
                     rng.gaussians((n, m), config.master_seed, "baseV")])
    need = math.ceil(n * k / 2)

    def measure(rho, seed):
        alpha = np.zeros(m)
        alpha[rng.rng(seed, "support").choice(m, size=k, replace=False)] = 1.0
        U, V = base + rho * rng.gaussians((n, m), seed, "noise", stack=2)
        s = singular_values(jacobian_khatri_rao(alpha, U, V))
        count = int(np.count_nonzero(s >= p["tau_factor"] * rho))
        return float(count), float(need), count >= need
    return measure
