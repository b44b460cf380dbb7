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
import math
import struct
import threading
from json.encoder import encode_basestring_ascii as _quote

import numpy as np
from numpy.random import Philox

from .tensor_lift import _check_entries

_TWO64 = float(2**64)
_local = threading.local()


def _digest(master_seed: int, path: tuple) -> bytes:
    """sha256 of the compact JSON ``[master_seed, *map(str, path)]``."""
    payload = f"[{int(master_seed)}{''.join([',' + _quote(str(p)) for p in path])}]"
    return hashlib.sha256(payload.encode()).digest()


def _key_words(master_seed: int, path: tuple) -> tuple[int, int]:
    """The stream's 128-bit Philox key as its (low, high) 64-bit words."""
    return struct.unpack_from("<QQ", _digest(master_seed, path))


def _raw(keys: list, size: int) -> np.ndarray:
    """A len(keys) x size array: row j holds the first ``size`` raw words of the
    stream keyed by keys[j], a ``(master_seed, path)`` pair, read from this
    thread's Philox."""
    try:
        gen, state = _local.philox
    except AttributeError:
        gen, state = _local.philox = Philox(), {
            "bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0, "state": {"counter": (0,) * 4, "key": None}}
    out = np.empty((len(keys), size), dtype=np.uint64)
    for j, (master_seed, path) in enumerate(keys):
        state["state"]["key"] = _key_words(master_seed, path)
        gen.state = state  # the whole state: the key, counter 0, no buffered words
        out[j] = gen.random_raw(size)
    return out


def derive_seed(master_seed: int, *path) -> int:
    """A stable 64-bit sub-seed for the given stream path."""
    return int.from_bytes(_digest(master_seed, path)[:8], "little")


def stream(master_seed: int, *path) -> Philox:
    """Philox bit generator keyed by (master_seed, *path)."""
    return Philox(key=int.from_bytes(_digest(master_seed, path)[:16], "little"))


def gaussians(shape, master_seed: int | list, *path, stack: int | None = None) -> np.ndarray:
    """Standard normal array of the given shape via Box-Muller.

    ``stack=k`` adds a leading axis of k draws, slice j keyed by ``(*path,
    j)``.  ``master_seed`` may be a list of seeds, which adds a leading
    ``len(seeds)`` axis before that one.  Each slice is bit for bit its
    single draw ``gaussians(shape, seed, *path[, j])``: each stream is keyed
    and read on its own, then one transform runs over all rows, each half of
    a row contiguous as in a single draw.  The result's shape is checked
    against the cap before any word is read.
    """
    many = isinstance(master_seed, list)
    seeds = master_seed if many else [master_seed]
    paths = [path] if stack is None else [(*path, j) for j in range(stack)]
    lead = (len(seeds),) * many + (() if stack is None else (stack,))
    _check_entries((*lead, *shape), "a Gaussian draw")
    keys = [(seed, p) for seed in seeds for p in paths]
    n = math.prod(shape)
    pairs = (n + 1) // 2
    u = np.add(_raw(keys, 2 * pairs), 0.5)  # each word as float64, then into (0, 1)
    u /= _TWO64
    radius, angle = u[:, :pairs], u[:, pairs:]
    np.sqrt(np.multiply(np.log(radius, out=radius), -2.0, out=radius), out=radius)
    angle *= 2.0 * np.pi
    z = np.empty(u.shape)
    cos, sin = z[:, :pairs], z[:, pairs:]
    np.multiply(np.cos(angle, out=cos), radius, out=cos)
    np.multiply(np.sin(angle, out=sin), radius, out=sin)
    return z[:, :n].reshape((*lead, *shape))


def unit_columns(shape, master_seed: int, *path) -> np.ndarray:
    """Gaussian array of the given shape with each column scaled to unit norm."""
    B = gaussians(shape, master_seed, *path)
    return B / np.linalg.norm(B, axis=0)


def rng(master_seed: int, *path) -> np.random.Generator:
    """A numpy Generator on the keyed stream, for choices and shuffles."""
    return np.random.Generator(stream(master_seed, *path))
