"""Deterministic matrix and report serialization.

Matrices travel as row-major CSV with 17 significant digits, which
round-trips IEEE-754 doubles exactly, so every emitted matrix can be
re-ingested losslessly.  JSON payloads are written with sorted keys and a
two-space indent, so reruns produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def matrix_to_csv(A: np.ndarray, header_comments: list[str] | None = None) -> str:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lines = [f"# {c}".replace("%", "%%") for c in (header_comments or [])]
    lines += [",".join(["%.17g"] * A.shape[1])] * len(A)  # format_float's text, in one % call
    return ("\n".join(lines) + "\n") % tuple(A.ravel().tolist())


def load_matrix_csv(path: str | Path) -> np.ndarray:
    """The matrix in a CSV file; blank lines and lines starting with '#' are skipped.

    numpy's C reader parses the data lines first.  It accepts a subset of
    what ``float`` accepts (not ``1_000``), with the same values, so a file it
    refuses, or one with a non-finite entry, goes through the slower parse
    that names the bad line.  It gets the data lines, not the file: on the
    file it would also take ``1,2 # note`` and ``1\\f,2``, which are refused.
    """
    lines = enumerate(map(str.strip, Path(path).read_text().splitlines()), start=1)
    data = [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]
    if not data:
        raise ValueError(f"{path}: no data rows")
    try:
        values = np.loadtxt([line for _, line in data], delimiter=",", comments=None, ndmin=2)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
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
    """sha256 of A's shape as little-endian int64 words, then of its entries
    as little-endian float64 in row-major order; A's memory layout and byte
    order do not change it."""
    shape = struct.pack(f"<{np.ndim(A)}q", *np.shape(A))
    return hashlib.sha256(shape + np.ascontiguousarray(A, dtype="<f8").tobytes()).hexdigest()


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` over the old bytes of ``path``, then cut a regular file to length.

    Truncating first, as ``open(path, "w")`` does, frees the old blocks, several
    times the cost of the write on ext4; a device or FIFO is not truncated.
    Like ``open(path, "w")``, the write is not atomic.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def dump_json(payload: dict) -> str:
    """Sorted, indented JSON; a NaN or infinity is refused, since JSON has none."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
