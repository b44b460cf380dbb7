"""Deterministic matrix and report serialization.

Matrices travel as row-major CSV with 17 significant digits, which
round-trips IEEE-754 doubles exactly, so every emitted matrix can be
re-ingested losslessly.  JSON payloads are written with sorted keys and no
incidental whitespace so reruns produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def matrix_to_csv(A: np.ndarray, header_comments: list[str] | None = None) -> str:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lines = [f"# {c}" for c in (header_comments or [])]
    lines += [",".join(format_float(x) for x in row) for row in A]
    return "\n".join(lines) + "\n"


def save_matrix_csv(path: str | Path, A: np.ndarray,
                    header_comments: list[str] | None = None) -> None:
    Path(path).write_text(matrix_to_csv(A, header_comments))


def load_matrix_csv(path: str | Path) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno} is not numeric CSV: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows (expected width {width})")
    return np.array(rows)


def matrix_sha256(A: np.ndarray) -> str:
    return hashlib.sha256(matrix_to_csv(A).encode()).hexdigest()


def dump_json(payload: dict) -> str:
    """Sorted, indented JSON; a NaN or infinity is refused, since JSON has none."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
