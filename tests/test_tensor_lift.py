import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcert import tensor_lift
from liftcert.powersum import build_power_matrix
from liftcert.tensor_lift import (LiftSizeError, enumerate_multi_indices,
                                  from_sym_coords, khatri_rao, kron_power,
                                  sel_avg, sym_coords, sym_kron, sym_lift,
                                  sym_merge, sym_project)
from oracles import evaluate_power_row, sym_projector_matrix


def brute_force_tuples(n, d):
    return [t for t in itertools.product(range(1, n + 1), repeat=d)
            if all(a <= b for a, b in zip(t, t[1:]))]


# Reference implementations: direct loops over permutations and multisets,
# independent of the index plan the library builds on.

def flat_index(entries, n):
    idx = 0
    for e in entries:
        idx = idx * n + (e - 1)
    return idx


def ref_sym_kron(mats):
    """Average over all d! permutations of Kronecker products of columns."""
    d = len(mats)
    n, m = mats[0].shape
    perms = list(itertools.permutations(range(d)))
    cols = []
    for entries in brute_force_tuples(m, d):
        acc = np.zeros(n**d)
        for pi in perms:
            term = mats[0][:, entries[pi[0]] - 1]
            for j in range(1, d):
                term = np.kron(term, mats[j][:, entries[pi[j]] - 1])
            acc += term
        cols.append(acc / len(perms))
    return np.column_stack(cols)


def ref_sym_project(v, n, d):
    """Average of a flattened d-tensor over all d! mode transposes."""
    T = v.reshape((n,) * d)
    perms = list(itertools.permutations(range(d)))
    return (sum(np.transpose(T, pi) for pi in perms) / len(perms)).reshape(n**d)


def ref_sel_avg(m, d):
    """Permutation counts of each multiset, over d!."""
    tuples = brute_force_tuples(m, d)
    counts = np.zeros((m**d, len(tuples)))
    for c, entries in enumerate(tuples):
        for pi in itertools.permutations(entries):
            counts[flat_index(pi, m), c] += 1
    return counts / math.factorial(d)


def ref_power_row(u, r):
    """Multinomial coefficient times the product of entries, per multiset."""
    out = []
    for entries in brute_force_tuples(len(u), r):
        coeff = math.factorial(r) // math.prod(
            math.factorial(entries.count(v)) for v in set(entries))
        out.append(coeff * math.prod(u[e - 1] for e in entries))
    return np.array(out)


class TestAgainstReferenceLoops:
    # sym_lift averages over the columns of U for m <= n and over those of
    # U.T for m > n, with the dense selector up to (3, 8, 3) and orbit sums
    # at (10, 5, 3) and (5, 6, 3); sym_kron takes orbit sums for m, d > 1.
    SHAPES = [(3, 2, 2), (2, 3, 3), (2, 2, 4), (3, 2, 4), (4, 3, 1), (3, 4, 3), (3, 8, 3),
              (4, 2, 3), (6, 3, 2), (5, 2, 4), (10, 5, 3), (5, 6, 3)]

    @pytest.mark.parametrize("n,m,d", SHAPES)
    def test_sym_kron_distinct_factors(self, n, m, d):
        rng = np.random.default_rng(n * 100 + m * 10 + d)
        mats = [rng.standard_normal((n, m)) for _ in range(d)]
        assert np.abs(sym_kron(mats) - ref_sym_kron(mats)).max() <= 1e-12

    @pytest.mark.parametrize("n,m,d", SHAPES)
    def test_sym_lift(self, n, m, d):
        U = np.random.default_rng(d).standard_normal((n, m))
        ref = ref_sym_kron([U] * d)
        lift = sym_lift(U, d)
        assert np.abs(lift.data - ref).max() <= 1e-12
        assert np.abs(lift.coords - sym_coords(ref.T, n, d).T).max() <= 1e-12
        assert lift.coords.shape == (math.comb(n + d - 1, d), math.comb(m + d - 1, d))

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (2, 4), (3, 4), (4, 1)])
    def test_sym_project_and_projector(self, n, d):
        v = np.random.default_rng(n + d).standard_normal(n**d)
        assert np.abs(sym_project(v, n, d) - ref_sym_project(v, n, d)).max() <= 1e-12
        P = np.column_stack([ref_sym_project(e, n, d) for e in np.eye(n**d)])
        assert np.abs(sym_projector_matrix(n, d) - P).max() <= 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (2, 4), (3, 4), (4, 1)])
    def test_sym_project_matrix(self, n, d):
        V = np.random.default_rng(n + d).standard_normal((n**d, 3))
        ref = np.column_stack([ref_sym_project(v, n, d) for v in V.T])
        assert np.abs(sym_project(V, n, d) - ref).max() <= 1e-12
        with pytest.raises(ValueError):
            sym_project(V.reshape(n**d, 3, 1), n, d)

    def test_sel_avg(self):
        for m in range(1, 5):
            for d in range(1, 5):
                assert np.abs(sel_avg(m, d) - ref_sel_avg(m, d)).max() <= 1e-12

    @pytest.mark.parametrize("dim,r", [(3, 1), (3, 2), (4, 3), (3, 4)])
    def test_power_rows(self, dim, r):
        rng = np.random.default_rng(dim * 10 + r)
        points, x = rng.standard_normal((5, dim)), rng.standard_normal(dim)
        ref = np.vstack([ref_power_row(u, r) for u in points])
        assert np.abs(build_power_matrix(points, r) - ref).max() <= 1e-12
        assert np.abs(build_power_matrix(points[0], r)[0] - ref[0]).max() <= 1e-12
        monomials = ref_power_row(x, r) / ref_power_row(np.ones(dim), r)
        assert abs(evaluate_power_row(ref[0], x, r) - ref[0] @ monomials) <= 1e-12


class TestSymCoords:
    @pytest.mark.parametrize("n,d", [(3, 2), (2, 3), (3, 4)])
    def test_round_trip_is_an_isometry_onto_symmetric_tensors(self, n, d):
        Y = np.random.default_rng(n + d).standard_normal((4, math.comb(n + d - 1, d)))
        T = from_sym_coords(Y, n, d)
        for row in T:
            assert np.abs(ref_sym_project(row, n, d) - row).max() <= 1e-12
        assert np.abs(T @ T.T - Y @ Y.T).max() <= 1e-12
        assert np.abs(sym_coords(T, n, d) - Y).max() <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sym_coords(np.ones(5), 2, 2)
        with pytest.raises(ValueError):
            from_sym_coords(np.ones(5), 2, 2)


class TestDenseSizeGuard:
    def test_refuses_before_allocating(self, monkeypatch):
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 100)
        U = np.ones((3, 2))
        with pytest.raises(LiftSizeError, match="Kronecker power with n = 3, m = 2, d = 3"):
            kron_power(U, 3)
        # The lift stores its 10 x 4 means; its full 27 x 4 rows are checked on access.
        lift = sym_lift(U, 3)
        assert lift.means.shape == (10, 4)
        with pytest.raises(LiftSizeError, match=r"full lift with n = 3, m = 2, d = 3 .* \(27, 4\)"):
            lift.data
        with pytest.raises(LiftSizeError, match="lift with n = 3, m = 2, d = 3"):
            sym_kron([U] * 3)
        with pytest.raises(LiftSizeError, match=r"orbit ids of the 5\*\*3 coordinate space"):
            sym_project(np.ones(125), 5, 3)
        with pytest.raises(LiftSizeError, match="selector with m = 5, d = 3"):
            sel_avg(5, 3)
        with pytest.raises(LiftSizeError, match="projector with n = 4, d = 2"):
            sym_projector_matrix(4, 2)
        with pytest.raises(LiftSizeError, match="index rows for n = 20, d = 2"):
            enumerate_multi_indices(20, 2)
        assert kron_power(U, 2).shape == (9, 4)
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 39)
        with pytest.raises(LiftSizeError, match=r"lift with n = 3, m = 2, d = 3 .* \(10, 4\)"):
            sym_lift(U, 3)
        # `lift --n 2 --m 100000 --d 3` built the column multisets first and
        # refused "the multiset index rows for n = 100000, d = 3".
        with pytest.raises(LiftSizeError,
                           match=r"lift with n = 2, m = 100000, d = 3 .* \(4, 166671666700000\)"):
            sym_lift(np.eye(2, 100000), 3)

    def test_index_rows_are_checked_before_they_are_built(self, monkeypatch):
        # (2, 10) is used by no other test, so no cached orbit table answers.
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 2**12)
        with pytest.raises(LiftSizeError, match=r"index rows .* shape \(1024, 10\)"):
            tensor_lift._index_rows(2, 10)
        with pytest.raises(LiftSizeError, match=r"index rows .* shape \(1024, 10\)"):
            sym_kron([np.ones((2, 1))] * 10)

    def test_index_rows_match_np_indices(self):
        for n, d in itertools.product(range(1, 6), range(1, 7)):
            if n**d <= 20000:
                rows = tensor_lift._index_rows(n, d)
                assert np.array_equal(rows, np.indices((n,) * d).reshape(d, -1).T)

    def test_cap_counts_the_lift_not_the_kronecker_power(self, monkeypatch):
        n, m, d = 3, 4, 3
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", n**d * math.comb(m + d - 1, d))
        rng = np.random.default_rng(5)
        U = rng.standard_normal((n, m))
        mats = [rng.standard_normal((n, m)) for _ in range(d)]
        with pytest.raises(LiftSizeError):
            kron_power(U, d)
        assert np.abs(sym_lift(U, d).data - ref_sym_kron([U] * d)).max() <= 1e-12
        assert np.abs(sym_kron(mats) - ref_sym_kron(mats)).max() <= 1e-12

    def test_large_index_arrays_are_not_cached(self, monkeypatch):
        monkeypatch.setattr(tensor_lift, "_CACHED_ENTRIES", 10)
        before = tensor_lift._kept.cache_info()
        v = np.random.default_rng(2).standard_normal(4**3)
        assert np.abs(sym_project(v, 4, 3) - ref_sym_project(v, 4, 3)).max() <= 1e-12
        assert tensor_lift._kept.cache_info() == before

    def test_index_structures_are_read_only_whether_kept_or_built(self, monkeypatch):
        # A 5 x 2 lift at d = 3 fetches plans, the (2, 3) labels and selector
        # (and its orbits, when it is built); the merge fetches its own plans
        # and operator, and the projection its orbits.
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, tensor_lift.SymMergeOperator):
                yield value.target
                yield from arrays(value.row_groups)

        def fetch():
            fetched.clear()
            lift = sym_lift(np.random.default_rng(4).standard_normal((5, 2)), 3)
            merge = sym_merge(3, 1, 2)
            sym_project(np.ones(27), 3, 3)
            return lift.means, merge, fetched.copy()

        fetched, shared = [], tensor_lift._shared
        monkeypatch.setattr(tensor_lift, "_shared", lambda build, entries, *key: fetched.append(
            (build, shared(build, entries, *key))) or fetched[-1][1])
        builds = {tensor_lift._build_plan, tensor_lift._build_orbits, tensor_lift._build_labels,
                  tensor_lift._build_selector, tensor_lift._build_merge}
        means, merge, kept = fetch()
        assert sym_merge(3, 1, 2) is merge
        info = tensor_lift._kept.cache_info()
        monkeypatch.setattr(tensor_lift, "_CACHED_ENTRIES", 0)
        built_means, built_merge, built = fetch()
        assert tensor_lift._kept.cache_info() == info
        assert built_merge is not merge and built_means.tobytes() == means.tobytes()
        for results in (kept, built):
            assert {build for build, _ in results} == builds
            for build, result in results:
                assert all(not a.flags.writeable for a in arrays(result)), build.__name__

    def test_orbit_ids_are_built_without_the_index_rows(self):
        for n, d in [(1, 5), (2, 10), (3, 4), (6, 4), (5, 1)]:
            sorted_rows = np.sort(tensor_lift._index_rows(n, d), axis=1)
            expected = tensor_lift._rank(sorted_rows, n)
            assert np.array_equal(tensor_lift._build_orbits(n, d).ids, expected)
        # An 8 MB table of ids; the 2**20 x 20 index rows alone would be 160 MB.
        tracemalloc.start()
        try:
            tensor_lift._build_orbits(2, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestMultiIndex:
    def test_small_enumerations(self):
        assert enumerate_multi_indices(2, 2).tolist() == [[1, 1], [1, 2], [2, 2]]
        assert enumerate_multi_indices(3, 1).tolist() == [[1], [2], [3]]
        assert len(enumerate_multi_indices(3, 2)) == len(brute_force_tuples(3, 2)) == 6

    def test_counts_match_brute_force(self):
        for n in range(1, 7):
            for d in range(1, 5):
                got = enumerate_multi_indices(n, d)
                assert len(got) == len(brute_force_tuples(n, d))
                assert len(got) == math.comb(n + d - 1, d)

    def test_rows_are_read_only_and_match_brute_force(self):
        for n in range(1, 5):
            for d in range(1, 5):
                rows = enumerate_multi_indices(n, d)
                assert [tuple(row) for row in rows.tolist()] == brute_force_tuples(n, d)
                with pytest.raises(ValueError):
                    rows[0, 0] = 2

    def test_plan_rows_equal_itertools(self):
        # d = 0 is the one-row, zero-width plan that _build_orbits starts from.
        for n in range(1, 7):
            for d in range(0, 8):
                rows = tensor_lift._build_plan(n, d).rows
                want = list(itertools.combinations_with_replacement(range(n), d))
                assert rows.dtype == np.int64 and rows.shape == (len(want), d)
                assert rows.flags.c_contiguous and [tuple(row) for row in rows.tolist()] == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4))
    def test_rank_is_lexicographic_bijection(self, n, d):
        rows = enumerate_multi_indices(n, d)
        assert tensor_lift._rank(rows - 1, n).tolist() == list(range(len(rows)))

    def test_size_guard(self):
        with pytest.raises(LiftSizeError):
            enumerate_multi_indices(10**6, 6)

    @pytest.mark.parametrize("n,d", [(2, 70), (3, 45), (4, 34)])
    def test_orbit_sizes_past_int64_are_multinomials(self, n, d):
        # An int64 product of prefix orbits wrapped past 2**63 at these sizes.
        plan = tensor_lift._plan(n, d)
        exact = [math.factorial(d) // math.prod(map(math.factorial, np.bincount(row).tolist()))
                 for row in plan.rows]
        assert np.abs(plan.orbit / np.array(exact, dtype=float) - 1).max() <= 1e-15

    @pytest.mark.parametrize("n,d", [(8, 21), (2, 60), (3, 40), (2, 70), (3, 45)])
    def test_orbit_floats_are_exact_multinomials(self, n, d):
        # Past d = 20 the steps run in int64 while their largest product fits
        # (all but (2, 70)), where a wrap would change these floats.
        plan = tensor_lift._build_plan(n, d)
        counts = np.stack([(plan.rows == i).sum(axis=1) for i in range(n)], axis=1)
        factorials = np.array([math.factorial(c) for c in range(d + 1)], dtype=object)
        exact = math.factorial(d) // factorials[counts].prod(axis=1)
        assert np.array_equal(plan.orbit, exact.astype(float))

    def test_orbits_past_int64_share_their_products(self):
        # A math.comb per row took 1.7 s of the 1.8 s plan.  Row i is d - i
        # zeros, then i ones, of orbit C(d, i); C(d, k) grows up to k = d / 2
        # and is past the float range at k = 200, so every orbit between is inf.
        d = 5000
        start = time.perf_counter()
        plan = tensor_lift._build_plan(2, d)
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(plan.rows, np.arange(d) >= np.arange(d, -1, -1)[:, None])
        assert math.comb(d, 200) >= 2**1024
        exact = [math.comb(d, min(i, d - i)) if min(i, d - i) < 200 else math.inf
                 for i in range(d + 1)]
        assert plan.orbit.tolist() == [float(c) if c < 2**1024 - 2**970 else math.inf
                                       for c in exact]

    def test_one_row_plan_skips_the_orbit_loop(self):
        # Its d steps in Python ints took 6 s at d = 10**6.
        start = time.perf_counter()
        plan = tensor_lift._build_plan(1, 10**6)
        assert time.perf_counter() - start < 1.0
        assert plan.rows.shape == (1, 10**6) and not plan.rows.any()
        assert plan.orbit.tolist() == [1.0]


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron_power(np.eye(2), 2), np.eye(4))

    def test_mixed_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A, C = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            lhs = kron_power(A, 2) @ kron_power(C, 2)
            assert np.linalg.norm(lhs - kron_power(A @ C, 2)) <= 1e-12

    def test_mixed_product_rectangular(self):
        rng = np.random.default_rng(1)
        A, C = rng.standard_normal((3, 2)), rng.standard_normal((2, 2))
        assert np.linalg.norm(kron_power(A, 3) @ kron_power(C, 3) - kron_power(A @ C, 3)) <= 1e-12

    def test_basis_index_arithmetic(self):
        e1, e2 = np.eye(2)[:, 0], np.eye(2)[:, 1]
        v = np.kron(e1, e2)
        expected = np.zeros(4)
        expected[0 * 2 + 1] = 1.0
        assert np.array_equal(v, expected)


class TestKhatriRao:
    def test_identity_columns(self):
        K = khatri_rao(np.eye(2), np.eye(2))
        assert np.array_equal(K[:, 0], np.eye(4)[:, 0])
        assert np.array_equal(K[:, 1], np.eye(4)[:, 3])

    def test_matches_kron_diagonal_columns(self):
        rng = np.random.default_rng(2)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
        K = khatri_rao(A, B)
        full = np.kron(A, B)
        for i in range(4):
            assert np.allclose(K[:, i], full[:, i * 4 + i])

    def test_worked_example(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(khatri_rao(A, A)[:, 0], np.array([1.0, 3.0, 3.0, 9.0]))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


class TestSymKron:
    def test_pair_columns(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((4, 3))
        L = sym_kron([U, U])
        for c, (i, j) in enumerate(enumerate_multi_indices(3, 2)):
            ui, uj = U[:, i - 1], U[:, j - 1]
            expected = 0.5 * (np.kron(ui, uj) + np.kron(uj, ui))
            assert np.allclose(L[:, c], expected)

    def test_identity_factor_columns(self):
        L = sym_kron([np.eye(2), np.eye(2)])
        col = L[:, enumerate_multi_indices(2, 2).tolist().index([1, 2])]
        assert np.allclose(col, np.array([0.0, 0.5, 0.5, 0.0]))

    def test_order_one_is_input(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((5, 3))
        assert np.array_equal(sym_kron([U]), U)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sym_kron([np.ones((2, 2)), np.ones((3, 2))])


class TestSymLift:
    def test_identity_gram_is_diagonal(self):
        n = 3
        L = sym_lift(np.eye(n), 2)
        G = L.data.T @ L.data
        expected = np.diag([1.0 if i == j else 0.5 for i, j in L.column_order])
        assert np.allclose(G, expected)

    def test_scalar_cube(self):
        assert np.allclose(sym_lift(np.array([[2.0]]), 3).data, [[8.0]])

    def test_matches_kron_power_through_selector(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((3, 2))
        resid = np.linalg.norm(kron_power(U, 2) @ sel_avg(2, 2) - sym_lift(U, 2).data)
        assert resid <= 1e-12

    @pytest.mark.parametrize("n,m,d", [(2, 3, 3), (4, 2, 2), (5, 6, 3), (5, 4, 4), (3, 8, 3),
                                       (3, 3, 3), (5, 5, 3), (1, 4, 2)])
    def test_lift_of_the_transpose_is_the_transpose(self, n, m, d):
        # Both lifts average over the orderings of the same side, so the
        # identity is exact unless n = m, where they average over opposite sides.
        U = np.random.default_rng(n * m + d).standard_normal((n, m))
        lift, transposed = sym_lift(U, d).means, sym_lift(U.T, d).means
        if n != m:
            assert np.array_equal(transposed, lift.T)
        assert np.abs(transposed - lift.T).max() <= 1e-14

    def test_columns_are_symmetrization_fixed_points(self):
        rng = np.random.default_rng(6)
        for n, m, d in [(2, 2, 2), (3, 2, 3), (2, 4, 2), (4, 3, 2)]:
            U = rng.standard_normal((n, m))
            L = sym_lift(U, d)
            for c in range(L.data.shape[1]):
                resid = np.linalg.norm(sym_project(L.data[:, c], n, d) - L.data[:, c])
                assert resid <= 1e-10


class TestStackedLift:
    # (n, m, d, dense): m <= n and m > n, in the dense selector mode and in
    # orbit sums (min(n, m) >= 5 at d = 3, >= 4 at d = 4).
    SHAPES = [(8, 2, 2, True), (10, 4, 3, True), (3, 8, 2, True), (2, 5, 3, True),
              (7, 5, 3, False), (5, 6, 3, False), (4, 5, 4, False), (1, 4, 2, True)]

    @pytest.mark.parametrize("n, m, d, dense", SHAPES)
    @pytest.mark.parametrize("lead", [(1,), (4,), (3, 2)])
    def test_each_slice_is_its_own_lift(self, n, m, d, dense, lead):
        small, large = sorted((n, m))
        assert tensor_lift._dense_select(large, small, d, math.comb(large + d - 1, d)) == dense
        U = np.random.default_rng([n, m, d, *lead]).standard_normal((*lead, n, m))
        stack = sym_lift(U, d)
        assert stack.means.shape == (*lead, math.comb(n + d - 1, d), math.comb(m + d - 1, d))
        for index in np.ndindex(*lead):
            one = sym_lift(U[index], d)
            assert stack.means[index].tobytes() == np.ascontiguousarray(one.means).tobytes()
            assert np.array_equal(stack.coords[index], one.coords)
        assert np.array_equal(stack.data[(0,) * len(lead)], sym_lift(U[(0,) * len(lead)], d).data)

    def test_stack_is_checked_with_its_leading_axes(self, monkeypatch):
        # One lift of a 3 x 2 matrix at d = 3 builds at most 8 x 10 column
        # orderings, so it passes a cap of 80 entries; a stack of two does not.
        U = np.ones((2, 3, 2))
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 80)
        assert sym_lift(U[0], 3).means.shape == (10, 4)
        with pytest.raises(LiftSizeError, match=r"factor rows .* shape \(2, 6, 10\)"):
            sym_lift(U, 3)
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 79)
        with pytest.raises(LiftSizeError, match=r"column orderings .* shape \(8, 10\)"):
            sym_lift(U[0], 3)

    @pytest.mark.parametrize("n, m, d", [(8, 2, 2), (10, 4, 3), (7, 5, 3), (2, 5, 3)])
    def test_lift_entries_bound_every_check(self, monkeypatch, n, m, d):
        # At a cap of exactly _lift_entries per matrix a stack of three passes
        # every check, and one entry less refuses it.
        U = np.ones((3, n, m))
        cap = 3 * tensor_lift._lift_entries(n, m, d)
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", cap)
        sym_lift(U, d)
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", cap - 1)
        with pytest.raises(LiftSizeError):
            sym_lift(U, d)


class TestSymProject:
    def test_two_element_orbit(self):
        v = np.kron(np.eye(2)[:, 0], np.eye(2)[:, 1])
        expected = np.zeros(4)
        expected[1] = expected[2] = 0.5
        assert np.allclose(sym_project(v, 2, 2), expected)

    def test_fixed_point(self):
        rng = np.random.default_rng(7)
        v = sym_project(rng.standard_normal(27), 3, 3)
        assert np.allclose(sym_project(v, 3, 3), v)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(16)
        once = sym_project(v, 2, 4)
        assert np.linalg.norm(sym_project(once, 2, 4) - once) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sym_project(np.ones(5), 2, 2)


class TestSelAvg:
    def test_small_case_explicit(self):
        S = sel_avg(2, 2)
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert np.allclose(S, expected)
        svals = np.linalg.svd(S, compute_uv=False)
        assert np.allclose(sorted(svals), sorted([1.0, 1.0 / math.sqrt(2), 1.0]))

    def test_degenerate_is_identity(self):
        assert np.array_equal(sel_avg(1, 3), np.ones((1, 1)))

    def test_spectrum_window(self):
        for m in range(1, 5):
            for d in range(1, 4):
                s = np.linalg.svd(sel_avg(m, d), compute_uv=False)
                assert s.min() >= 1.0 / math.sqrt(math.factorial(d)) - 1e-9
                assert s.max() <= 1.0 + 1e-9

    def test_columns_disjoint_support(self):
        S = sel_avg(3, 3)
        support = S != 0
        assert np.all((support.astype(int).sum(axis=1)) <= 1)
        G = S.T @ S
        assert np.allclose(G, np.diag(np.diag(G)))

    def test_realizes_permutation_average_for_distinct_factors(self):
        rng = np.random.default_rng(9)
        mats = [rng.standard_normal((3, 2)) for _ in range(3)]
        full = np.kron(np.kron(mats[0], mats[1]), mats[2])
        direct = sym_kron(mats)
        assert np.linalg.norm(full @ sel_avg(2, 3) - direct) <= 1e-12

    def test_lifts_share_read_only_constants_and_sel_avg_stays_fresh(self):
        # A 5 x 2 lift at d = 3 takes the dense selector product.
        U = np.random.default_rng(4).standard_normal((5, 2))
        assert tensor_lift._dense_select(5, 2, 3, math.comb(7, 3))
        first = sym_lift(U, 3)
        # The lift's selector is the one kept for (2, 3): fetching it misses nothing.
        misses = tensor_lift._kept.cache_info().misses
        select = tensor_lift._kept(tensor_lift._build_selector, 2, 3)
        order = enumerate_multi_indices(2, 3)
        assert tensor_lift._kept.cache_info().misses == misses
        assert first.column_order is order is enumerate_multi_indices(2, 3)
        assert not select.flags.writeable and not order.flags.writeable
        S = sel_avg(2, 3)
        assert S.flags.writeable and not np.shares_memory(S, select)
        assert np.array_equal(S, select)
        S[:] = 7.0
        assert sym_lift(U, 3).means.tobytes() == first.means.tobytes()
        assert np.array_equal(sel_avg(2, 3), select)


class TestPermutationInvariance:
    def symmetric_row_operator(self, n, d, rows, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((rows, n**d))
        return np.vstack([sym_project(r, n, d) for r in raw])

    def test_selector_washes_out_factor_order(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            n, m = 3, 2
            mats = [rng.standard_normal((n, m)) for _ in range(d)]
            psi = self.symmetric_row_operator(n, d, 5, seed=d)
            S = sel_avg(m, d)
            base = psi @ _chain(mats) @ S
            for pi in itertools.permutations(range(d)):
                permuted = psi @ _chain([mats[j] for j in pi]) @ S
                assert np.linalg.norm(base - permuted) <= 1e-10


def _chain(mats):
    out = mats[0]
    for M in mats[1:]:
        out = np.kron(out, M)
    return out


def sparse_merge(op):
    """A merge operator as a sparse matrix: one entry per column."""
    return sp.csr_matrix((np.ones(op.target.size), (op.target, np.arange(op.target.size))),
                         shape=op.shape)


class TestSymMerge:
    def test_pair_merge(self):
        op = sym_merge(2, 1, 1)
        assert op.shape == (3, 4)
        e1, e2 = np.eye(2)[:, 0], np.eye(2)[:, 1]
        image = sparse_merge(op) @ np.kron(e1, e2)
        expected = np.zeros(3)
        expected[1] = 1.0  # multiset {1, 2} is the middle degree-2 index
        assert np.allclose(image, expected)
        assert len(set(sparse_merge(op).nonzero()[0])) == 3

    def test_degree4_row_count(self):
        for n in (2, 3, 4):
            op = sym_merge(n, 2, 2)
            assert op.shape[0] == math.comb(n + 3, 4)

    def test_full_row_space(self):
        op = sym_merge(3, 1, 2)
        dense = sparse_merge(op).toarray()
        assert np.linalg.matrix_rank(dense) == math.comb(3 + 2, 3)

    # The "unit_merge" ids keep these cases' names from when a weighted
    # merge variant existed.
    @pytest.mark.parametrize("n", [4], ids=["unit_merge"])
    def test_shared_and_read_only(self, n):
        op = sym_merge(n, 2, 2)
        assert sym_merge(n, 2, 2) is op
        for arr in (op.target, *itertools.chain.from_iterable(op.row_groups)):
            assert not arr.flags.writeable
        assert op.target.shape == (op.shape[1],)

    def test_row_groups_list_each_column_once_in_order(self):
        op = sym_merge(3, 2, 2)
        seen = []
        for rows, columns in op.row_groups:
            assert columns.shape[1] == rows.size
            assert (np.diff(columns, axis=0) > 0).all()
            assert (op.target[columns] == rows).all()
            seen += columns.ravel().tolist()
        assert sorted(seen) == list(range(op.shape[1]))

    @pytest.mark.parametrize("k1,k2", [(1, 2), (2, 1), (2, 2)],
                             ids=["1-2-unit_merge", "2-1-unit_merge", "2-2-unit_merge"])
    def test_applies_itself_as_sparse_products(self, k1, k2):
        op = sym_merge(3, k1, k2)
        left, right = math.comb(k1 + 2, k1), math.comb(k2 + 2, k2)
        rng = np.random.default_rng(k1 + 2 * k2)
        U = rng.standard_normal((right, 4))
        assert np.array_equal(op.identity_kron(U),
                              sparse_merge(op) @ np.kron(np.eye(left), U))
        if k1 != k2:
            with pytest.raises(ValueError, match="k1 = k2"):
                op.pair_sum(U, U)
            return
        X, Y = rng.standard_normal((2, left, 5))
        assert np.array_equal(op.pair_sum(X, Y), sparse_merge(op) @ khatri_rao(X, Y)
                              + sparse_merge(op) @ khatri_rao(Y, X))


def sparse_orbit_mean(n, d):
    """Orbit-averaging map of the n**d space as a sparse matrix."""
    ids = np.array([sorted_rank for t in itertools.product(range(1, n + 1), repeat=d)
                    for sorted_rank in [brute_force_tuples(n, d).index(tuple(sorted(t)))]])
    orbit = np.bincount(ids)
    return sp.csr_matrix((1.0 / orbit[ids], (ids, np.arange(ids.size))),
                         shape=(orbit.size, ids.size))


def sparse_row_means(U, d):
    """Lift orbit means as the sparse averaging product over the orderings
    of each row multiset of U."""
    cols = [np.array(t) - 1 for t in brute_force_tuples(U.shape[1], d)]
    kron_cols = np.column_stack([_chain([U[:, [k]] for k in t]).ravel() for t in cols])
    return sparse_orbit_mean(U.shape[0], d) @ kron_cols


def sparse_lift_means(U, d):
    """Lift orbit means averaged over the orderings of the smaller side:
    the columns of U (the rows of U.T) for m <= n, the rows of U otherwise."""
    n, m = U.shape
    return sparse_row_means(U.T, d).T if m <= n else sparse_row_means(U, d)


class TestOrbitSums:
    # Orbit sums add each orbit's terms in position order, which must be the
    # arithmetic of the sparse averaging product exactly.  sym_lift averages
    # over the orderings of its smaller side, with orbit sums once
    # sel_avg(min(n, m), d) has more than 4096 entries (min(n, m) >= 5 at
    # d = 3, >= 4 at d = 4).  (3, 3, 2) takes the dense selector, whose
    # d = 2 means are exact as well.
    @pytest.mark.parametrize("n,m,d", [(5, 6, 3), (3, 3, 2), (4, 5, 4), (5, 4, 4), (10, 5, 3)])
    def test_row_side_is_the_sparse_product(self, n, m, d):
        U = np.random.default_rng(n + m + d).standard_normal((n, m))
        assert np.array_equal(sym_lift(U, d).means, sparse_lift_means(U, d))

    def test_sym_kron_is_the_sparse_product(self):
        # Every row of sym_kron takes orbit sums over its column orderings.
        mats = list(np.random.default_rng(8).standard_normal((3, 3, 4)))
        assert np.array_equal(sym_kron(mats), (sparse_orbit_mean(4, 3) @ _chain(mats).T).T)

    @pytest.mark.parametrize("n,d,shape", [(3, 3, (27, 5)), (2, 4, (16, 5)), (4, 2, (16, 5)),
                                           (3, 3, (27, 1)), (3, 3, (27,)), (4, 4, (256,))])
    def test_sym_project_is_the_sparse_product(self, n, d, shape):
        # (4, 4, 1-D): the 24-member orbit is alone in its group, so one
        # chunk holds a single entry per term.
        v = np.random.default_rng(n * d).standard_normal(shape)
        ids = sparse_orbit_mean(n, d).argmax(axis=0).A1
        assert np.array_equal(sym_project(v, n, d), (sparse_orbit_mean(n, d) @ v)[ids])

    def test_orbit_sums_bound_their_temporaries(self, monkeypatch):
        monkeypatch.setattr(tensor_lift, "_TERM_ENTRIES", 7)
        U = np.random.default_rng(3).standard_normal((5, 6))
        assert np.array_equal(sym_lift(U, 3).means, sparse_lift_means(U, 3))
        assert np.array_equal(sym_lift(U.T, 3).means, sparse_lift_means(U.T, 3))
        X = np.random.default_rng(3).standard_normal((3**3, 4))
        ids = sparse_orbit_mean(3, 3).argmax(axis=0).A1
        assert np.array_equal(sym_project(X, 3, 3), (sparse_orbit_mean(3, 3) @ X)[ids])


class TestLiftMatrix:
    def test_descriptor_round_trip_fields(self):
        L = sym_lift(np.eye(2), 2)
        desc = L.descriptor()
        assert desc["kind"] == "symmetrized"
        assert desc["column_order"] == [[1, 1], [1, 2], [2, 2]]

    def test_stores_one_row_per_orbit(self):
        U = np.random.default_rng(12).standard_normal((4, 3))
        L = sym_lift(U, 3)
        assert L.means.shape == (math.comb(6, 3), math.comb(5, 3))
        assert np.array_equal(L.column_order, enumerate_multi_indices(3, 3))
        T = L.data.reshape(4, 4, 4, -1)
        for axes in itertools.permutations(range(3)):
            assert np.array_equal(T.transpose(*axes, 3), T)
        assert np.abs(L.coords.T @ L.coords - L.data.T @ L.data).max() <= 1e-12


# Derandomized, so a failure reproduces on every run and machine.
INVARIANCE = settings(max_examples=25, deadline=None, derandomize=True)
LIFT_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3),
                        st.integers(0, 2**32 - 1))


def lift_values(U: np.ndarray, d: int) -> np.ndarray:
    return np.linalg.svd(sym_lift(U, d).coords, compute_uv=False)


class TestLiftInvariances:
    """Properties of the lift's singular values that need no reference
    values.  Invariance under U -> U @ R for an orthogonal R does not hold:
    the lift's columns are symmetrized products, not an isometric basis."""

    @INVARIANCE
    @given(LIFT_SHAPES)
    def test_left_orthogonal_invariance(self, shape):
        n, m, d, seed = shape
        gen = np.random.default_rng(seed)
        U = gen.standard_normal((n, m))
        O, _ = np.linalg.qr(gen.standard_normal((n, n)))
        s = lift_values(U, d)
        assert np.abs(lift_values(O @ U, d) - s).max() <= 1e-14 * s[0]

    @INVARIANCE
    @given(LIFT_SHAPES)
    def test_column_permutation_invariance(self, shape):
        n, m, d, seed = shape
        gen = np.random.default_rng(seed)
        U = gen.standard_normal((n, m))
        s = lift_values(U, d)
        assert np.abs(lift_values(U[:, gen.permutation(m)], d) - s).max() <= 1e-14 * s[0]

    @INVARIANCE
    @given(LIFT_SHAPES, st.sampled_from([0.25, 0.5, 2.0, 8.0]))
    def test_power_of_two_scaling_scales_by_c_to_the_d(self, shape, c):
        n, m, d, seed = shape
        U = np.random.default_rng(seed).standard_normal((n, m))
        assert np.array_equal(lift_values(c * U, d), c**d * lift_values(U, d))
