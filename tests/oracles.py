"""Reference oracles that only the tests use.

They build what the library never needs to form: the full n**d x n**d
averaging projector, a polynomial's value from its coefficient row, and
matrix CSV text written, or parsed, one entry at a time.
"""

import numpy as np

from liftcert.matrixio import format_float
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
