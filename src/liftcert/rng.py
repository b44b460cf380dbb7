"""Counter-based, splittable random streams.

Every sampling site in the library draws from a stream addressed by a
``(master_seed, *path)`` key, so trials are order-independent and safe to run
in parallel: two call sites never share mutable generator state.  Streams are
backed by Philox (a counter-based generator) keyed by a hash of the path, and
Gaussian variates are produced by an explicit Box-Muller transform on the raw
64-bit output.  Each draw sets the whole state of its thread's one Philox
(the key, counter 0) first, so no generator state outlives a call or passes
between threads.  Replaying the same key yields the same bytes on every run
of one numpy build on one CPU feature set.  Box-Muller's ``np.log`` follows
numpy's CPU dispatch: its AVX512 path and the baseline one differ in the
last bit on a few inputs in a thousand, so another CPU can change draws.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading

import numpy as np
from numpy.random import Philox

_TWO64 = float(2**64)
_encode = json.JSONEncoder(separators=(",", ":")).encode
_local = threading.local()


def _digest(master_seed: int, path: tuple) -> bytes:
    payload = _encode([int(master_seed), *[str(p) for p in path]]).encode()
    return hashlib.sha256(payload).digest()


def _key(master_seed: int, path: tuple) -> int:
    return int.from_bytes(_digest(master_seed, path)[:16], "little")


def _raw(master_seed: int, path: tuple, size: int) -> np.ndarray:
    """The first ``size`` raw words of the keyed stream, from this thread's Philox."""
    gen = getattr(_local, "philox", None)
    if gen is None:
        gen = _local.philox = Philox()
    key = _key(master_seed, path)
    gen.state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0,
                 "state": {"counter": (0,) * 4, "key": (key % 2**64, key >> 64)}}
    return gen.random_raw(size)


def derive_seed(master_seed: int, *path) -> int:
    """A stable 64-bit sub-seed for the given stream path."""
    return int.from_bytes(_digest(master_seed, path)[:8], "little")


def stream(master_seed: int, *path) -> Philox:
    """Philox bit generator keyed by (master_seed, *path)."""
    return Philox(key=_key(master_seed, path))


def uniforms(master_seed: int, *path, size: int) -> np.ndarray:
    """``size`` doubles in the open interval (0, 1) from the keyed stream."""
    u = _raw(master_seed, path, size).astype(np.float64)
    u += 0.5
    return np.divide(u, _TWO64, out=u)


def gaussians(shape, master_seed: int, *path) -> np.ndarray:
    """Standard normal array of the given shape via Box-Muller."""
    n = math.prod(shape)
    pairs = (n + 1) // 2
    u = uniforms(master_seed, *path, size=2 * pairs)
    radius, angle = u[:pairs], u[pairs:]
    np.sqrt(np.multiply(np.log(radius, out=radius), -2.0, out=radius), out=radius)
    angle *= 2.0 * np.pi
    z = np.empty(2 * pairs)
    np.multiply(np.cos(angle, out=z[:pairs]), radius, out=z[:pairs])
    np.multiply(np.sin(angle, out=z[pairs:]), radius, out=z[pairs:])
    return z[:n].reshape(shape)


def unit_columns(shape, master_seed: int, *path) -> np.ndarray:
    """Gaussian array of the given shape with each column scaled to unit norm."""
    B = gaussians(shape, master_seed, *path)
    return B / np.linalg.norm(B, axis=0)


def rng(master_seed: int, *path) -> np.random.Generator:
    """A numpy Generator on the keyed stream, for choices and shuffles."""
    return np.random.Generator(stream(master_seed, *path))
