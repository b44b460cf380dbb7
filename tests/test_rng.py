import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from liftcert import rng

# sha256 of the array bytes.  Every experiment CSV is reproducible only while
# these draws keep their exact bits, however they are computed.  The values
# hold for one numpy build on one CPU feature set: the draws' np.log follows
# numpy's CPU dispatch, and its AVX512 path differs in the last bit from the
# baseline path on a few inputs in a thousand.
GAUSSIANS = {
    ((), (0, "noise")):
        "6dc69ea12a20bc95c7a376435c93cc218da7579de984abd566be28fae0f244c3",
    ((0,), (0, "noise")):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ((1,), (3, "trial", 0)):
        "c8d4ce8b48479c7f968a34e8f33990542b75caa01e7576478cef1fd276047270",
    ((5,), (3, "trial", 1)):
        "66273ef18b1c57caef9abd19550f12d388ec27916dffedfb7213c8400d28b948",
    ((6, 3), (0, "noise", 3)):
        "2c59e6a665b538282e3c789d3ff4f0ec65c1097699ded7bbd582da7983b5409f",
    ((7, 3), (7, "cluster", "base", "tag")):
        "cbac31282b85b57c7c60aba9f6e2e989225104b27b1ab7b48431ea7744fe5bb4",
    ((10, 4), (11, "b", 2)):
        "66412dcadb638eba6b42da341fa9721e8b8ffe1a4d9ce6e62585a2d80b0bd722",
    ((220, 110), (123456789, "points", 4)):
        "9179716931dc6f195997af2315583c1b31faf1f3edeba38893031b00e5695b54",
}

DERIVED_SEEDS = {
    (0, "trial", 0): 4093552087895935737,
    (0, "trial", 1): 5927842341487833041,
    (7, "b", 3): 6363288376556570284,
    (2**40, "pilot", "x"): 14720563120270146030,
    (-1, "ü"): 924120679306159487,
}


def sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("shape, path", list(GAUSSIANS))
def test_gaussians_match_their_recorded_bytes(shape, path):
    z = rng.gaussians(shape, *path)
    assert z.shape == shape and z.dtype == np.float64
    assert sha(z) == GAUSSIANS[shape, path]


def test_derived_seeds_match_their_recorded_values():
    assert {path: rng.derive_seed(*path) for path in DERIVED_SEEDS} == DERIVED_SEEDS


def test_draws_from_four_threads_equal_serial_draws():
    keys = [((t % 7 + 1, 3), (t, "noise", t % 5)) for t in range(400)]

    def draw(key):
        shape, path = key
        return rng.gaussians(shape, *path)

    serial = [draw(key) for key in keys]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(draw, keys))
    for z0, z1 in zip(serial, threaded):
        assert np.array_equal(z0, z1)


def test_a_generator_is_not_moved_by_draws_between_its_own():
    def sequence(interleave):
        gen = rng.rng(5, "shuffle", 1)
        out = []
        for t in range(4):
            out.append(gen.standard_normal(3))
            if interleave:
                rng.gaussians((4, 2), 5, "shuffle", 1)
            out.append(gen.permutation(6).astype(np.float64))
        return np.concatenate(out)

    assert np.array_equal(sequence(False), sequence(True))
    assert np.array_equal(rng.stream(5, "s").random_raw(6),
                          rng.stream(5, "s").random_raw(6))


def test_digest_is_the_compact_json_of_the_path():
    path = ("ü", 'say "hi"', "back\\slash", "tab\there", None, 1.5, float("nan"),
            "\U0001f600", -3, 2**70)
    payload = json.dumps([7, *[str(p) for p in path]], separators=(",", ":")).encode()
    assert rng._digest(7, path) == hashlib.sha256(payload).digest()


STACKED_SHAPES = [(), (0,), (1,), (5,), (6, 3), (7, 3), (220, 110)]


@pytest.mark.parametrize("stack", range(1, 6))
@pytest.mark.parametrize("shape", STACKED_SHAPES)
def test_stacked_draws_equal_their_single_draws(shape, stack):
    z = rng.gaussians(shape, 9, "noise", "x", stack=stack)
    assert z.shape == (stack, *shape) and z.dtype == np.float64
    for j in range(stack):
        assert sha(np.ascontiguousarray(z[j])) == sha(rng.gaussians(shape, 9, "noise", "x", j))


def test_stacked_draws_from_four_threads_equal_serial_draws():
    keys = [(STACKED_SHAPES[t % 7], t % 5 + 1, (t, "noise")) for t in range(200)]

    def draw(key):
        shape, stack, path = key
        return rng.gaussians(shape, *path, stack=stack)

    serial = [draw(key) for key in keys]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(draw, keys))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


@pytest.mark.parametrize("seed", [0, -1, 2**70])
def test_key_words_are_the_json_digest_words(seed):
    for path in [(), ("noise", 3), ("ü", 'say "hi"', "back\\slash", "\U0001f600"),
                 ("tab\there", None, 1.5, -3, 2**70)]:
        payload = json.dumps([seed, *[str(p) for p in path]], separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        assert rng._digest(seed, path) == digest
        assert rng._key_words(seed, path) == (key % 2**64, key >> 64)
        assert rng.derive_seed(seed, *path) == int.from_bytes(digest[:8], "little")


@pytest.mark.parametrize("stack", [None, *range(1, 6)])
def test_seed_list_slices_equal_their_single_draws(stack):
    seeds = [9, -1, 2**70, 9, 4093552087895935737]
    paths = [()] if stack is None else [(j,) for j in range(stack)]
    for shape in STACKED_SHAPES:
        z = rng.gaussians(shape, seeds, "noise", "x", stack=stack)
        assert z.shape == (len(seeds), *([] if stack is None else [stack]), *shape)
        assert z.dtype == np.float64
        for i, seed in enumerate(seeds):
            for j, tail in enumerate(paths):
                got = z[i] if stack is None else z[i, j]
                want = rng.gaussians(shape, seed, "noise", "x", *tail)
                assert sha(np.ascontiguousarray(got)) == sha(want)
        assert sha(rng.gaussians(shape, seeds[:1], "noise", "x", stack=stack)) == \
            sha(rng.gaussians(shape, seeds[0], "noise", "x", stack=stack))
