"""Reference oracles that only the tests use.

They build what the library never needs to form: the full n**d x n**d
averaging projector, a polynomial's value from its coefficient row, matrix
CSV text written, or parsed, one entry at a time, a variety operator's
dense generator matrix with the certificate read off its dense product, the
Kronecker product that thm52's operator is applied to, and the thm51, cor53
and thm52 measures taken one trial at a time.
"""

import itertools
import math
from functools import reduce

import numpy as np

from liftcert import rng
from liftcert.harness import _kron, _kron_product, _make_base, _need, _random_row_isometry
from liftcert.matrixio import format_float
from liftcert.powersum import _monomials
from liftcert.spectral import singular_values
from liftcert.tensor_lift import _check_entries, _orbits, _rank, sym_lift


def sym_projector_matrix(n: int, d: int) -> np.ndarray:
    """Dense n**d x n**d matrix of the mode-permutation averaging projector."""
    _check_entries((n**d, n**d), f"the projector with n = {n}, d = {d}")
    ids, weight = _orbits(n, d)[:2]
    return np.where(ids[:, None] == ids, weight, 0.0)


def evaluate_power_row(row: np.ndarray, x: np.ndarray, r: int) -> float:
    """Pair a coefficient row with the monomial vector of x."""
    return float(row @ _monomials(np.asarray(x, dtype=float), r))


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


def per_trial_lift(p, config):
    """thm51 and cor53 measured one trial at a time: each block's lift on its
    own, the transposed lifts stacked by np.vstack."""
    n, m, d, blocks = p["n"], p["m"], p["d"], p.get("blocks", 1)
    rank = math.ceil(p["delta"] * math.comb(n + d - 1, d))
    k = blocks * math.comb(m + d - 1, d)
    _need(k <= rank, "blocks*C(m+d-1,d) <= ceil(delta*C(n+d-1,d))", p)
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
    _need(m**d <= rank, "m**d <= ceil(delta*C(n+d-1,d))", p)
    psi = _random_row_isometry(rank, n**d, config.master_seed, "operator")
    bases = np.array([_make_base(p["base"], n, m, rng.derive_seed(config.master_seed, "b", j))
                      for j in range(d)])

    def measure(rho, seed):
        factors = bases + rho * rng.gaussians((n, m), seed, "noise", stack=d)
        return float(singular_values(_kron_product(psi, factors))[m**d - 1]), None, None
    return measure
