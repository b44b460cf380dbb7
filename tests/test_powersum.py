import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import norm

from liftcert.powersum import (antisym_witnesses, build_block_lift, build_claim_Q,
                               build_claim_W, build_power_matrix, build_projected_V,
                               build_solution_space_M, make_clustering_bases,
                               make_power_sum_instance, make_symmetric_columns,
                               build_sym4_IkronA, noise_layers, symmetric_cube_lift)
from liftcert.rng import gaussians
from liftcert.spectral import singular_values
from liftcert.tensor_lift import sym_lift, sym_merge
from oracles import evaluate_power_row
from paper_tools import small_ball_estimate


@pytest.fixture(scope="module")
def inst43():
    return make_power_sum_instance(4, 3, 0.1, seed=123)


# (n, m) with m = 1 and m = N2 - 1 among them.
SIZES = [(10, 8), (10, 4), (5, 2), (3, 1), (3, 5)]


def _sparse(merge):
    """The merge operator as a sparse matrix: one entry per column."""
    return sp.csr_matrix((np.ones(merge.target.size), (merge.target, np.arange(merge.target.size))),
                         shape=merge.shape)


def _merge_pair(merge, x, y):
    """Image of x tensor y under a merge operator."""
    return _sparse(merge) @ np.kron(x, y)


def _loop_solution_space_M(instance):
    """One merged pair product per column."""
    n2, m = instance.n2, instance.m
    merge = sym_merge(instance.n, 2, 2)
    A, F = instance.A, instance.F
    cols = [_merge_pair(merge, A[:, i], A[:, j]) + _merge_pair(merge, A[:, j], A[:, i])
            for i in range(m) for j in range(i, m)]
    cols += [_merge_pair(merge, A[:, i], F[:, j]) + _merge_pair(merge, F[:, j], A[:, i])
             for i in range(m) for j in range(n2 - m)]
    return np.column_stack(cols)


def _sliced_merge_product(instance, U):
    """Slice i of the merge operator times U, slices side by side."""
    n2 = instance.n2
    merge = _sparse(sym_merge(instance.n, 2, 2))
    return np.hstack([merge[:, i * n2:(i + 1) * n2] @ U for i in range(n2)])


# The "unit_merge" ids keep these cases' names from when a weighted merge
# variant existed.
@pytest.mark.parametrize("n, m", SIZES, ids=[f"{n}-{m}-unit_merge" for n, m in SIZES])
def test_builders_match_loop_oracles(n, m):
    inst = make_power_sum_instance(n, m, 0.3, seed=n + m)
    assert np.array_equal(build_solution_space_M(inst), _loop_solution_space_M(inst))
    assert np.array_equal(build_sym4_IkronA(inst), _sliced_merge_product(inst, inst.A))
    rho1, rho2 = 0.2, math.sqrt(0.3**2 - 0.2**2)
    Z1, Z2 = noise_layers(inst.A - inst.base, inst.rho, (rho1, rho2), inst.seed,
                          "powersum", "layer")
    U = np.hstack([inst.base + Z1, Z2])
    assert np.array_equal(build_claim_W(inst, rho1, rho2), _sliced_merge_product(inst, U))


class TestPowerSumInstance:
    def test_completion_invariants(self, inst43):
        n2 = inst43.n2
        assert n2 == 10
        assert np.linalg.norm(inst43.F.T @ inst43.F - np.eye(n2 - 3)) <= 1e-10
        assert np.linalg.norm(inst43.F.T @ inst43.A) <= \
            1e-8 * np.linalg.norm(inst43.A)

    @pytest.mark.parametrize("scale", [1e160, 1e-300])
    def test_completion_checks_are_scale_free(self, inst43, scale):
        # Norms of A overflow past about 1e154 (and underflow at 1e-300), so
        # comparing them unscaled accepted any completion at these scales.
        A = scale * inst43.A
        assert dataclasses.replace(inst43, A=A).A is A
        skew = np.eye(inst43.n2)[:, :inst43.n2 - inst43.m]
        with pytest.raises(ValueError, match="completion F is not orthogonal to A"):
            dataclasses.replace(inst43, A=A, F=skew)
        with pytest.raises(ValueError, match="completion F is not orthogonal to A"):
            dataclasses.replace(inst43, A=np.where(A == A[0, 0], np.nan, A))
        with pytest.raises(ValueError, match="completion F is not orthonormal"):
            dataclasses.replace(inst43, F=np.where(skew == 1.0, np.nan, skew))

    def test_all_zero_forms_are_refused(self):
        # Scaling A by its largest entry would divide 0 by 0 and then blame F.
        inst = make_power_sum_instance(4, 3, 0.1, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="forms A are all zero"):
                dataclasses.replace(inst, A=0 * inst.A)

    def test_deterministic(self):
        a = make_power_sum_instance(4, 3, 0.1, seed=5)
        b = make_power_sum_instance(4, 3, 0.1, seed=5)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.F, b.F)

    def test_rejects_oversized_m(self):
        with pytest.raises(ValueError):
            make_power_sum_instance(2, 3, 0.1, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_forms_are_refused_before_the_svd(self):
        # The SVD with U does not return on an inf entry, so the overflow must
        # be caught before it; the CLI reports an ArithmeticError as exit 3.
        with pytest.raises(ArithmeticError, match="power-sum forms overflow at rho = 1e"):
            make_power_sum_instance(4, 3, 1e308, seed=0)


class TestMergedIdentityKron:
    def test_shape_and_rank(self, inst43):
        M = build_sym4_IkronA(inst43)
        assert M.shape == (math.comb(4 + 3, 4), 10 * 3)
        s = singular_values(M)
        want = 3 * 10 - math.comb(3, 2)
        assert int(np.count_nonzero(s >= 1e-8)) == want
        assert s[want - 1] >= 1e-8 and s[want] <= 1e-10

    def test_antisymmetric_witnesses_annihilated(self, inst43):
        M = build_sym4_IkronA(inst43)
        W = antisym_witnesses(inst43)
        assert W.shape[1] == math.comb(3, 2)
        assert float(np.linalg.norm(M @ W, axis=0).max()) <= 1e-8

    def test_witnesses_match_the_pair_loop(self, inst43):
        n2, m, A = inst43.n2, inst43.m, inst43.A
        W = antisym_witnesses(inst43)
        for col, (s, t) in zip(W.T, itertools.combinations(range(m), 2), strict=True):
            w = np.zeros(n2 * m)
            w[s::m], w[t::m] = A[:, t], -A[:, s]
            assert np.allclose(col, w / np.linalg.norm(w), rtol=1e-15, atol=0)

    def test_single_form_has_full_rank(self):
        inst = make_power_sum_instance(4, 1, 0.1, seed=7)
        M = build_sym4_IkronA(inst)
        s = singular_values(M)
        assert int(np.count_nonzero(s >= 1e-8)) == M.shape[1] == 10
        assert antisym_witnesses(inst).shape == (10, 0)


class TestSolutionSpace:
    def test_column_count(self, inst43):
        M = build_solution_space_M(inst43)
        assert M.shape == (math.comb(7, 4), 3 * 10 - math.comb(3, 2))
        assert M.shape[1] == math.comb(3 + 1, 2) + 3 * (10 - 3)

    def test_smallest_instance_columns(self):
        inst = make_power_sum_instance(2, 1, 0.1, seed=9)
        M = build_solution_space_M(inst)
        assert M.shape[1] == 1 * inst.n2 - 0 == 3
        merge = sym_merge(2, 2, 2)
        first = _merge_pair(merge, inst.A[:, 0], inst.A[:, 0])
        cos = first @ M[:, 0] / (np.linalg.norm(first) * np.linalg.norm(M[:, 0]))
        assert abs(abs(cos) - 1.0) <= 1e-12
        for j in range(2):
            cross = _merge_pair(merge, inst.A[:, 0], inst.F[:, j]) + \
                _merge_pair(merge, inst.F[:, j], inst.A[:, 0])
            assert np.allclose(M[:, 1 + j], cross)

    def test_well_conditioned_at_desk_scale(self, inst43):
        assert singular_values(build_solution_space_M(inst43))[-1] >= 1e-8


class TestClaimQ:
    def test_degenerate_second_layer(self, inst43):
        rho = inst43.rho
        Q = build_claim_Q(inst43, rho, 0.0)
        assert np.allclose(Q, np.hstack([inst43.A, inst43.F]))

    def test_deterministic(self, inst43):
        split = inst43.rho / math.sqrt(2)
        assert np.array_equal(build_claim_Q(inst43, split, split),
                              build_claim_Q(inst43, split, split))

    def test_zero_noise_gives_zero_layers(self):
        inst = make_power_sum_instance(4, 3, 0.0, seed=5)
        Z1, Z2 = noise_layers(inst.A - inst.base, 0.0, (0.0, 0.0), inst.seed,
                              "powersum", "layer")
        assert not Z1.any() and not Z2.any()
        assert np.array_equal(build_claim_Q(inst, 0.0, 0.0), np.hstack([inst.base, inst.F]))

    def test_split_mismatch(self, inst43):
        with pytest.raises(ValueError):
            build_claim_Q(inst43, inst43.rho, inst43.rho)

    def test_desk_scale_sigma(self, inst43):
        split = inst43.rho / math.sqrt(2)
        assert singular_values(build_claim_Q(inst43, split, split))[-1] >= 1e-8


class TestClaimW:
    def test_shape_and_structural_rank(self):
        inst = make_power_sum_instance(8, 3, 0.1, seed=21)
        split = 0.1 / math.sqrt(2)
        W = build_claim_W(inst, split, split)
        n2 = inst.n2
        assert W.shape == (math.comb(8 + 3, 4), 2 * 3 * n2)
        # Pair cancellations inside the contracted column span force an
        # exact nullspace of dimension C(2m, 2); the rank above it is robust.
        s = singular_values(W)
        robust = 2 * 3 * n2 - math.comb(6, 2)
        assert int(np.count_nonzero(s >= 1e-8)) == robust
        assert s[robust - 1] >= 1e-8


class TestProjectedV:
    def test_smallest_block_structure(self):
        rng = np.random.default_rng(0)
        U = rng.standard_normal((4, 4))
        V = build_projected_V([U], 1)
        assert V.shape == (16, 2)
        assert np.allclose(V[:, 0], np.kron(U[:, 0], U[:, 0]))
        assert np.allclose(V[:, 1], U.reshape(16))

    def test_column_count_formula(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((5, 5)) for _ in range(2)]
        V = build_projected_V(mats, 2)
        assert V.shape == (25, 2 * 3 + 2)

    @pytest.mark.parametrize("lead, m, n, ell", [((), 2, 5, 2), ((4,), 3, 8, 3), ((2, 3), 1, 6, 3)])
    def test_stack_equals_the_hstack_of_each_list(self, lead, m, n, ell):
        mats = np.random.default_rng(5).standard_normal((*lead, m, n, n))
        V = build_projected_V(mats, ell)
        assert V.shape == (*lead, n * n, m * math.comb(ell + 1, 2) + m)
        for index in np.ndindex(*lead):
            blocks = [sym_lift(M[:, :ell], 2).data for M in mats[index]]
            want = np.hstack(blocks + [M.reshape(n * n, 1) for M in mats[index]])
            assert np.array_equal(V[index], want)
            assert np.array_equal(build_projected_V(list(mats[index]), ell), want)

    def test_budget_violation(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((3, 3)) for _ in range(3)]
        with pytest.raises(ValueError):
            build_projected_V(mats, 3)

    def test_low_slack_warns(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((4, 4)) for _ in range(2)]
        with pytest.warns(RuntimeWarning):
            build_projected_V(mats, 2)  # r = 16 - 8 - 6 - 2 + 1 = 1 < 1.6


class TestBlockLift:
    def test_single_block_spectrum_floor(self):
        Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 2)))
        M = build_block_lift([Q], 2)
        assert singular_values(M)[-1] >= 1.0 / math.sqrt(2.0) - 1e-12

    def test_orthogonal_disjoint_first_order(self):
        M = build_block_lift([np.eye(6)[:, :2], np.eye(6)[:, 2:4]], 1)
        assert abs(singular_values(M)[-1] - 1.0) <= 1e-12

    def test_duplicated_subspace_is_degenerate(self):
        Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 2)))
        assert singular_values(build_block_lift([Q, Q], 2))[-1] <= 1e-10

    def test_perturbation_separates_shared_base(self):
        bases = make_clustering_bases(8, 2, 2, seed=6)
        noise = 0.2 / math.sqrt(8) * gaussians((8, 2), 6, "cluster", "noise", stack=2)
        perturbed, _ = np.linalg.qr(bases + noise)
        assert singular_values(build_block_lift(perturbed, 2))[-1] >= 1e-6

    def test_a_stack_equals_its_slices(self):
        rng = np.random.default_rng(7)
        stack = np.linalg.qr(rng.standard_normal((2, 3, 3, 9, 2)))[0]
        got = build_block_lift(stack, 3)
        assert got.shape == (2, 3, math.comb(11, 3), 3 * math.comb(4, 3))
        for index in np.ndindex(2, 3):
            assert np.array_equal(got[index], build_block_lift(stack[index], 3))

    @pytest.mark.parametrize("n,m,s,d", [(6, 2, 2, 2), (10, 3, 3, 3), (5, 2, 3, 3), (4, 2, 2, 4)])
    def test_spectrum_matches_full_coordinate_lifts(self, n, m, s, d):
        rng = np.random.default_rng(n + m + s + d)
        bases = [np.linalg.qr(rng.standard_normal((n, m)))[0] for _ in range(s)]
        got = singular_values(build_block_lift(bases, d))
        want = singular_values(np.hstack([sym_lift(P, d).data for P in bases]))
        assert np.abs(got - want).max() <= 1e-12 * want[0]
        duplicated = build_block_lift([bases[0]] * s, d)
        assert singular_values(duplicated)[-1] <= 1e-10

    def test_budget_violation(self):
        Q = np.eye(3)
        with pytest.raises(ValueError, match="dimension budget violated"):
            build_block_lift([Q, Q, Q], 2)

    @pytest.mark.parametrize("bases, message", [
        ([], "need at least one basis"),
        ([np.eye(4)[:, :2], np.eye(4)[:, :3]], "all bases must share a shape"),
        ([np.eye(4)[:, :2], 2 * np.eye(4)[:, :2]], "basis is not orthonormal"),
    ])
    def test_bad_bases_refused(self, bases, message):
        with pytest.raises(ValueError, match=message):
            build_block_lift(bases, 2)

    def test_bases_are_one_orthonormal_stack(self):
        shared = make_clustering_bases(6, 2, 3, seed=1)
        distinct = make_clustering_bases(6, 2, 3, seed=1, shared_base=False)
        assert shared.shape == distinct.shape == (3, 6, 2)
        assert (shared == shared[0]).all() and (shared[0] == distinct[0]).all()
        assert not (distinct[1] == distinct[0]).all()
        assert np.abs(distinct.swapaxes(1, 2) @ distinct - np.eye(2)).max() <= 1e-12


class TestPowerMatrix:
    def test_binomial_row(self):
        assert np.allclose(build_power_matrix(np.array([1.0, 1.0]), 2)[0], [1.0, 2.0, 1.0])

    def test_axis_vector_row(self):
        row = build_power_matrix(np.array([1.0, 0.0, 0.0]), 3)[0]
        expected = np.zeros(math.comb(3 + 2, 3))
        expected[0] = 1.0  # (1,1,1) is first in lexicographic order
        assert np.allclose(row, expected)

    def test_rows_reproduce_inner_powers(self):
        rng = np.random.default_rng(7)
        for r in (1, 2, 3):
            u = rng.standard_normal(3)
            row = build_power_matrix(u, r)[0]
            for _ in range(20):
                x = rng.standard_normal(3)
                direct = float(u @ x) ** r
                got = evaluate_power_row(row, x, r)
                assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_matrix_shape(self):
        rng = np.random.default_rng(8)
        M = build_power_matrix(rng.standard_normal((24, 3)), 2)
        assert M.shape == (24, 6)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError, match="r must be at least 1"):
            build_power_matrix(np.ones(2), 0)


class TestSmallBall:
    def test_linear_case_matches_gaussian_cdf(self):
        # r = 1 and a single-coordinate dual: the statistic is Gaussian with
        # mean u_1 and std sigma, so the hit frequency has a closed form.
        dim, sigma, eps = 3, 0.7, 0.4
        base = np.array([0.2, -0.5, 1.0])
        a = np.array([1.0, 0.0, 0.0])
        out = small_ball_estimate(base, 1, sigma, a, eps, trials=4000, seed=12)
        exact = norm.cdf((eps - base[0]) / sigma) - norm.cdf((-eps - base[0]) / sigma)
        assert out["wilson_low"] <= exact <= out["wilson_high"]

    def test_zero_radius(self):
        out = small_ball_estimate(np.ones(2), 2, 0.5, np.array([1.0, 0, 0]),
                                  0.0, trials=50, seed=12)
        assert out["hits"] == 0

    def test_quadratic_tail_shape(self):
        dim, r, sigma, eps = 3, 2, 1.0, 1e-4
        a = np.zeros(math.comb(dim + 1, 2))
        a[1] = 1.0  # dual to the x1 x2 cross monomial
        out = small_ball_estimate(np.zeros(dim), r, sigma, a, eps,
                                  trials=400, seed=13)
        assert out["frequency"] <= 10.0 * r * eps ** (1.0 / r)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_ball_estimate(np.ones(2), 2, 0.5, np.array([2.0, 0, 0]),
                                0.1, trials=10, seed=1)
        with pytest.raises(ValueError):
            small_ball_estimate(np.ones(2), 2, 0.5, np.array([1.0, 0, 0]),
                                0.1, trials=0, seed=1)


class TestCubeLift:
    def test_symmetric_columns_are_symmetric(self):
        C = make_symmetric_columns(3, 2, 0.1, seed=14)
        for t in range(2):
            X = C[:, t].reshape(3, 3)
            assert np.allclose(X, X.T)

    def test_lift_shape_and_conditioning(self):
        C = make_symmetric_columns(3, 2, 0.1, seed=15)
        L = symmetric_cube_lift(C, 3)
        assert L.shape == (3**6, math.comb(2 + 2, 3))
        assert singular_values(L)[-1] >= 1e-8
