"""Counter-based, splittable random streams.

Every sampling site in the library draws from a stream addressed by a
``(master_seed, *path)`` key, so trials are order-independent and safe to run
in parallel: two call sites never share mutable generator state.  Streams are
backed by Philox (a counter-based generator) keyed by a hash of the path, and
Gaussian variates are produced by an explicit Box-Muller transform on the raw
64-bit output.  Replaying the same key yields the same bytes on every run;
bit-exactness across platforms is that of IEEE-754 double arithmetic.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from numpy.random import Philox

_TWO64 = float(2**64)


def _digest(master_seed: int, path: tuple) -> bytes:
    payload = json.dumps([int(master_seed), *[str(p) for p in path]],
                         separators=(",", ":")).encode()
    return hashlib.sha256(payload).digest()


def derive_seed(master_seed: int, *path) -> int:
    """A stable 64-bit sub-seed for the given stream path."""
    return int.from_bytes(_digest(master_seed, path)[:8], "little")


def stream(master_seed: int, *path) -> Philox:
    """Philox bit generator keyed by (master_seed, *path)."""
    d = _digest(master_seed, path)
    key = int.from_bytes(d[:16], "little")
    return Philox(key=key)


def uniforms(master_seed: int, *path, size: int) -> np.ndarray:
    """``size`` doubles in the open interval (0, 1) from the keyed stream."""
    bits = stream(master_seed, *path).random_raw(size)
    return (bits.astype(np.float64) + 0.5) / _TWO64


def gaussians(shape, master_seed: int, *path) -> np.ndarray:
    """Standard normal array of the given shape via Box-Muller."""
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    u = uniforms(master_seed, *path, size=2 * pairs)
    u1, u2 = u[:pairs], u[pairs:]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    return z.reshape(shape)


def unit_columns(shape, master_seed: int, *path) -> np.ndarray:
    """Gaussian array of the given shape with each column scaled to unit norm."""
    B = gaussians(shape, master_seed, *path)
    return B / np.linalg.norm(B, axis=0)


def rng(master_seed: int, *path) -> np.random.Generator:
    """A numpy Generator on the keyed stream, for choices and shuffles."""
    return np.random.Generator(stream(master_seed, *path))
