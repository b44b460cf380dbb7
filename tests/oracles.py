"""Dense reference oracles that only the tests use.

They build what the library never needs to form: the full n**d x n**d
averaging projector, and a polynomial's value from its coefficient row.
"""

import numpy as np

from liftcert.powersum import _monomials
from liftcert.tensor_lift import _check_entries, _orbits


def sym_projector_matrix(n: int, d: int) -> np.ndarray:
    """Dense n**d x n**d matrix of the mode-permutation averaging projector."""
    _check_entries((n**d, n**d), f"the projector with n = {n}, d = {d}")
    ids, weight = _orbits(n, d)[:2]
    return np.where(ids[:, None] == ids, weight, 0.0)


def evaluate_power_row(row: np.ndarray, x: np.ndarray, r: int) -> float:
    """Pair a coefficient row with the monomial vector of x."""
    return float(row @ _monomials(np.asarray(x, dtype=float), r))
