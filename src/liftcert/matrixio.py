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


def load_matrix_csv(path: str | Path) -> np.ndarray:
    lines = enumerate(map(str.strip, Path(path).read_text().splitlines()), start=1)
    data = [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]
    if not data:
        raise ValueError(f"{path}: no data rows")
    try:
        values = np.array(",".join(line for _, line in data).split(","), dtype=float)
    except ValueError as exc:
        # Parse line by line only to name the first bad one.
        for lineno, line in data:
            try:
                np.array(line.split(","), dtype=float)
            except ValueError as line_exc:
                raise ValueError(f"{path}: line {lineno} is not numeric CSV: {line_exc}") from line_exc
        raise ValueError(f"{path}: not numeric CSV: {exc}") from exc
    width = data[0][1].count(",") + 1
    if any(line.count(",") + 1 != width for _, line in data):
        raise ValueError(f"{path}: ragged rows (expected width {width})")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{path}: line {data[i // width][0]} has a non-finite entry {values[i]}")
    return values.reshape(len(data), width)


def matrix_sha256(A: np.ndarray) -> str:
    return hashlib.sha256(matrix_to_csv(A).encode()).hexdigest()


def dump_json(payload: dict) -> str:
    """Sorted, indented JSON; a NaN or infinity is refused, since JSON has none."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
