import math

import numpy as np
import pytest

from liftcert import powersum as ps
from liftcert.spectral import (_QR_FIRST_MIN_COLS, BlockFamily, NonFiniteMatrixError,
                               RankError, _rank_of_values, block_leave_one_out,
                               check_orthonormal, count_large_singulars, jacobian_khatri_rao,
                               leave_one_out, singular_values, stacked_singular_values,
                               wellcond_column_subset)
from paper_tools import good_blocks, orth_complement_projector, spread_vector


class TestSingularValues:
    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_zero_matrix(self):
        assert np.allclose(singular_values(np.zeros((3, 2))), [0.0, 0.0])

    def test_golden_ratio_pair(self):
        # Eigenvalues of A^T A for [[1,1],[0,1]] solve t^2 - 3t + 1 = 0.
        lam_hi = (3 + math.sqrt(5)) / 2
        lam_lo = (3 - math.sqrt(5)) / 2
        s = singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(s, [math.sqrt(lam_hi), math.sqrt(lam_lo)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_is_an_arithmetic_error(self, entry):
        # Inputs are checked finite where they enter, so a non-finite matrix
        # here is an overflow: the CLI reports it as an internal error.
        A = np.array([[1.0, entry], [0.0, 1.0]])
        for query in (singular_values, leave_one_out):
            with pytest.raises(ArithmeticError, match="non-finite") as exc:
                query(A)
            assert isinstance(exc.value, ValueError)

    def test_ordering_and_length(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 3))
        s = singular_values(A)
        assert s.shape == (3,)
        assert np.all(np.diff(s) <= 0)
        assert abs(s[0] - np.linalg.norm(A, 2)) <= 1e-12


def _prop73_M(seed):
    return ps.build_sym4_IkronA(ps.make_power_sum_instance(10, 8, 0.3, seed))


def _claim76_W(seed):
    inst = ps.make_power_sum_instance(10, 4, 0.3, seed)
    return ps.build_claim_W(inst, 0.3 / math.sqrt(2.0), 0.3 / math.sqrt(2.0))


class TestSingularValuesThroughR:
    """Mid-tall shapes go through the SVD of their QR factor R; others don't."""

    def gated(self):
        A = np.random.default_rng(0).standard_normal((715, 440))
        yield "random", A
        yield "random.T", A.T
        for seed in range(3):
            yield f"prop73-{seed}", _prop73_M(seed)
            yield f"claim76-{seed}", _claim76_W(seed)

    def test_gated_shapes_agree_with_the_direct_svd(self):
        for name, A in self.gated():
            assert A.shape in ((715, 440), (440, 715)), name
            direct = np.linalg.svd(A, compute_uv=False)
            assert np.abs(singular_values(A) - direct).max() <= 1e-14 * direct[0], name

    @pytest.mark.parametrize("shape", [(715, 315), (200, 60), (10, 16), (6, 9), (28, 27),
                                       (624, _QR_FIRST_MIN_COLS - 1), (440, 440),
                                       (810, 440)])
    def test_other_shapes_are_the_direct_svd_bit_for_bit(self, shape):
        A = np.random.default_rng(1).standard_normal(shape)
        assert np.array_equal(singular_values(A), np.linalg.svd(A, compute_uv=False))

    @pytest.mark.parametrize("shape, through_r", [
        ((715, 440), True), ((440, 715), True),
        ((576, _QR_FIRST_MIN_COLS), True), ((575, _QR_FIRST_MIN_COLS), False),
        ((715, _QR_FIRST_MIN_COLS - 1), False),
        ((806, 440), True), ((807, 440), False), ((659, 440), False), ((660, 440), True),
    ])
    def test_gate_reads_the_shape(self, monkeypatch, shape, through_r):
        # 1.5 * cols <= rows < 11 * cols / 6: 660 and 806.67 at 440 columns.
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        singular_values(np.ones(shape))
        assert bool(calls) == through_r

    def test_prop73_rank_count_unchanged(self):
        want = 8 * math.comb(11, 2) - math.comb(8, 2)
        for seed in range(3):
            M = _prop73_M(seed)
            direct = np.linalg.svd(M, compute_uv=False)
            assert count_large_singulars(M, 1e-8) == np.count_nonzero(direct >= 1e-8) == want


class TestStackedSingularValues:
    # (576, 384) and its transpose take the QR-first gate.
    @pytest.mark.parametrize("shape", [(28, 27), (20, 110), (110, 20), (9, 18), (1, 1),
                                       (576, _QR_FIRST_MIN_COLS), (_QR_FIRST_MIN_COLS, 576)])
    def test_each_slice_is_its_own_singular_values(self, monkeypatch, shape):
        gated = min(shape) >= _QR_FIRST_MIN_COLS
        lead = (2,) if gated else (3, 2)
        A = np.random.default_rng(list(shape)).standard_normal((*lead, *shape))
        calls, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: calls.append(1) or qr(*args, **kw))
        s = stacked_singular_values(A)
        assert calls == [1] * gated
        assert s.shape == (*lead, min(shape))
        for index in np.ndindex(*lead):
            assert s[index].tobytes() == singular_values(A[index]).tobytes()

    def test_empty_matrices_have_no_values(self):
        assert stacked_singular_values(np.ones((4, 0, 3))).shape == (4, 0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_slice_refuses_the_stack(self, entry):
        A = np.ones((5, 4, 3))
        A[3, 2, 1] = entry
        with pytest.raises(NonFiniteMatrixError, match="non-finite"):
            stacked_singular_values(A)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_singular_values_takes_a_matrix_only(self, shape):
        with pytest.raises(ValueError, match="expected a matrix"):
            singular_values(np.ones(shape))


class TestCountLargeSingulars:
    def test_threshold(self):
        assert count_large_singulars(np.diag([3.0, 1.0, 0.1]), 0.5) == 2

    def test_zero(self):
        assert count_large_singulars(np.zeros((4, 4)), 0.5) == 0

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            count_large_singulars(np.eye(2), -1.0)


class TestNumericalRank:
    def test_rank_uses_tolerance(self):
        s = singular_values(np.diag([1.0, 1e-6, 1e-14]))
        assert _rank_of_values(s) == 2
        assert _rank_of_values(s, tolerance=1e-8) == 2
        assert _rank_of_values(s, tolerance=1e-3) == 1


def _loop_leave_one_out(U):
    """Column distances by projecting out the span of the other columns."""
    best = math.inf
    for i in range(U.shape[1]):
        P = orth_complement_projector(np.delete(U, i, axis=1))
        best = min(best, float(np.linalg.norm(P @ U[:, i])))
    return best


def _loop_block_leave_one_out(family):
    """Block distances by projecting out the span of the other blocks."""
    best = math.inf
    for j, B in enumerate(family.blocks):
        others = [C for k, C in enumerate(family.blocks) if k != j]
        P = orth_complement_projector(np.hstack(others)) if others else np.eye(B.shape[0])
        s = singular_values(P @ B)
        best = min(best, float(s[-1]) if s.size else 0.0)
    return best


class TestLeaveOneOut:
    def test_orthonormal_columns(self):
        assert abs(leave_one_out(np.eye(3)) - 1.0) <= 1e-12

    def test_duplicated_column(self):
        U = np.zeros((3, 2))
        U[0, 0] = U[0, 1] = 1.0
        assert leave_one_out(U) <= 1e-12

    def test_sandwich(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            U = rng.standard_normal((8, 4))
            ell = leave_one_out(U)
            smin = singular_values(U)[-1]
            assert ell / math.sqrt(4) <= smin + 1e-10
            assert smin <= ell + 1e-10

    @pytest.mark.parametrize("shape", [(8, 1), (8, 4), (30, 12), (60, 60), (200, 60)])
    def test_matches_projector_loop(self, shape):
        rng = np.random.default_rng(shape[1])
        for _ in range(5):
            U = rng.standard_normal(shape) * rng.uniform(0.1, 10.0, shape[1])
            want = _loop_leave_one_out(U)
            assert abs(leave_one_out(U) - want) <= 1e-12 * want

    def test_wide_input_is_exactly_zero(self):
        U = np.random.default_rng(10).standard_normal((3, 5))
        assert leave_one_out(U) == 0.0

    @pytest.mark.parametrize("dependent", [
        np.zeros(6),                           # zero column
        np.eye(6)[:, 0],                       # repeats column 0
        np.eye(6)[:, 2] + np.eye(6)[:, 3],     # sum of columns 1 and 2
    ])
    def test_dependent_columns_are_exactly_zero(self, dependent):
        # Axis columns come first, so the dependency gives an exact zero pivot.
        U = np.hstack([np.eye(6)[:, [0, 2, 3]], dependent[:, None],
                       np.random.default_rng(11).standard_normal((6, 2))])
        assert leave_one_out(U) == 0.0

    def test_near_dependent_column_stays_small(self):
        U = np.random.default_rng(12).standard_normal((10, 4))
        U[:, 3] = U[:, 0] + U[:, 1] + 1e-13 * np.eye(10)[:, 9]
        assert leave_one_out(U) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            leave_one_out(np.array([[1.0], [np.inf]]))


class TestBlockLeaveOneOut:
    def test_single_block(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((6, 3))
        fam = BlockFamily([B])
        assert abs(block_leave_one_out(fam) - singular_values(B)[-1]) <= 1e-12

    def test_orthogonal_blocks(self):
        fam = BlockFamily([np.eye(2)[:, :1], np.eye(2)[:, 1:]])
        assert abs(block_leave_one_out(fam) - 1.0) <= 1e-12

    def test_sandwich(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            blocks = [rng.standard_normal((8, 2)) for _ in range(3)]
            fam = BlockFamily(blocks)
            ell = block_leave_one_out(fam)
            smin = singular_values(np.hstack(blocks))[-1]
            assert ell / math.sqrt(3) <= smin + 1e-10
            assert smin <= ell + 1e-10

    @pytest.mark.parametrize("widths", [[1], [3], [2, 2, 2], [1, 4, 2, 3], [5] * 12])
    def test_matches_projector_loop(self, widths):
        rng = np.random.default_rng(len(widths))
        for _ in range(5):
            rows = sum(widths) + 4
            fam = BlockFamily([rng.standard_normal((rows, w)) * rng.uniform(0.1, 10.0)
                               for w in widths])
            want = _loop_block_leave_one_out(fam)
            assert abs(block_leave_one_out(fam) - want) <= 1e-12 * want

    def test_wide_concatenation_is_exactly_zero(self):
        rng = np.random.default_rng(13)
        fam = BlockFamily([rng.standard_normal((4, 3)) for _ in range(2)])
        assert block_leave_one_out(fam) == 0.0

    def test_dependent_blocks_are_exactly_zero(self):
        rng = np.random.default_rng(14)
        axes = np.eye(6)[:, :2]
        fam = BlockFamily([axes, axes[:, ::-1], rng.standard_normal((6, 2))])
        assert block_leave_one_out(fam) == 0.0

    def test_zero_width_block_is_zero(self):
        rng = np.random.default_rng(15)
        fam = BlockFamily([rng.standard_normal((6, 2)), np.zeros((6, 0))])
        assert block_leave_one_out(fam) == 0.0
        assert _loop_block_leave_one_out(fam) == 0.0

    def test_empty_family(self):
        with pytest.raises(ValueError):
            BlockFamily([])


class TestOrthComplementProjector:
    def test_single_basis_vector(self):
        P = orth_complement_projector(np.eye(2)[:, :1])
        assert np.allclose(P, np.diag([0.0, 1.0]))

    def test_full_rank_square(self):
        rng = np.random.default_rng(4)
        P = orth_complement_projector(rng.standard_normal((4, 4)))
        assert np.linalg.norm(P) <= 1e-10

    def test_projector_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.standard_normal((7, 3))
            P = orth_complement_projector(A)
            assert np.linalg.norm(P @ P - P) <= 1e-10
            assert np.linalg.norm(P - P.T) <= 1e-10
            assert np.linalg.norm(P @ A) <= 1e-10
            assert abs(np.trace(P) - (7 - 3)) <= 1e-8


class TestWellcondColumnSubset:
    def test_identity(self):
        S = wellcond_column_subset(np.eye(3), 3)
        assert S == [0, 1, 2]

    def test_duplicate_column_instance(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        S = wellcond_column_subset(A, 2)
        assert S in ([0, 2], [1, 2])
        assert abs(singular_values(A[:, S])[-1] - 1.0) <= 1e-12

    def test_guarantee_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            A = rng.standard_normal((6, 12))
            S = wellcond_column_subset(A, 4)
            assert len(S) == 4 and len(set(S)) == 4
            bound = singular_values(A)[3] / (2 * math.sqrt(12 * 4))
            assert singular_values(A[:, S])[3] >= bound

    def test_rank_deficiency_raises(self):
        A = np.ones((3, 3))
        with pytest.raises(RankError):
            wellcond_column_subset(A, 2)


class TestSpreadVector:
    def test_single_axis(self):
        basis = np.eye(4)[:, :1]
        v = spread_vector(basis)
        assert np.allclose(np.abs(v), basis[:, 0])
        assert abs(v[0]) >= 1.0 / math.sqrt(4)

    def test_full_two_dimensional_span(self):
        v = spread_vector(np.eye(2))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert np.all(np.abs(v) >= 1.0 / (2 * math.sqrt(2)) - 1e-12)

    def test_random_bases_meet_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
            v = spread_vector(Q)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
            resid = v - Q @ (Q.T @ v)
            assert np.linalg.norm(resid) <= 1e-10
            assert np.count_nonzero(np.abs(v) >= 1.0 / (3 * math.sqrt(8))) >= 3

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            spread_vector(np.ones((4, 2)))


class TestCheckOrthonormal:
    def test_refuses_a_nan_residual(self):
        # A nan residual compared false against the cut, so it passed.
        B = np.eye(4)[:, :2]
        B[1, 1] = np.nan
        with pytest.raises(ValueError, match=r"basis is not orthonormal \(Gram residual nan\)"):
            check_orthonormal(B)


class TestGoodBlocks:
    def test_orthogonal_blocks_selected_with_full_relative_sigma(self):
        fam = BlockFamily([np.eye(8)[:, :4], np.eye(8)[:, 4:]])
        seen = set()
        for s in range(120):
            res = good_blocks(fam, 1.0, np.random.default_rng(s))
            for label in res.selected:
                assert abs(res.relative_sigmas[label] - 1.0) <= 1e-12
            seen.add(tuple(res.selected))
        assert (0, 1) in seen  # both blocks survive together when sampled

    def test_adversarial_overlapping_pair(self):
        eps = 1e-6
        P1 = np.hstack([np.eye(8)[:, :4], eps * np.eye(8)[:, 4:]])
        P2 = np.hstack([eps * np.eye(8)[:, :4], np.eye(8)[:, 4:]])
        fam = BlockFamily([P1, P2])
        survived_once = False
        for s in range(200):
            res = good_blocks(fam, 0.5, np.random.default_rng(1000 + s))
            assert len(res.selected) <= 1
            survived_once |= len(res.selected) == 1
        assert survived_once

    def test_random_family_monte_carlo(self):
        # With the literal inclusion probability (alpha / 6) the sampled set
        # is empty in roughly a quarter of runs at 16 blocks, so this check
        # exercises the documented constant override.
        hits = 0
        for s in range(100):
            g = np.random.default_rng(5000 + s)
            fam = BlockFamily([g.standard_normal((64, 8)) for _ in range(16)])
            res = good_blocks(fam, 0.5, np.random.default_rng(6000 + s), c1=0.5)
            hits += len(res.selected) >= 1
        assert hits >= 90

    def test_empty_survivors_reported_not_raised(self):
        fam = BlockFamily([np.eye(4)[:, :2], np.eye(4)[:, 2:]])
        res = good_blocks(fam, 1.0, np.random.default_rng(1))  # likely empty draw
        assert isinstance(res.selected, list)
        payload = res.to_json()
        assert set(payload) == {"selected", "relative_sigmas", "params"}


class TestJacobianKhatriRao:
    def test_single_column_block_structure(self):
        rng = np.random.default_rng(8)
        n = 4
        V = rng.standard_normal((n, 1))
        U = rng.standard_normal((n, 1))
        J = jacobian_khatri_rao(np.array([1.0]), U, V)
        u_part = J[:, :n]
        s = singular_values(u_part)
        assert np.allclose(s, np.full(n, np.linalg.norm(V)))

    def test_zero_coefficients(self):
        U = np.ones((3, 2))
        assert np.count_nonzero(jacobian_khatri_rao(np.zeros(2), U, U)) == 0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(9)
        n, m = 3, 2
        U, V = rng.standard_normal((n, m)), rng.standard_normal((n, m))
        alpha = rng.standard_normal(m)

        def P(Umat, Vmat):
            return sum(alpha[i] * np.kron(Umat[:, i], Vmat[:, i]) for i in range(m))

        J = jacobian_khatri_rao(alpha, U, V)
        h = 1e-5
        fd = np.zeros_like(J)
        for c in range(2 * n * m):
            dU, dV = np.zeros((n, m)), np.zeros((n, m))
            if c < n * m:
                dU[c % n, c // n] = h
            else:
                dV[(c - n * m) % n, (c - n * m) // n] = h
            fd[:, c] = (P(U + dU, V + dV) - P(U - dU, V - dV)) / (2 * h)
        assert np.linalg.norm(J - fd) / np.linalg.norm(J) <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            jacobian_khatri_rao(np.ones(2), np.ones((3, 2)), np.ones((4, 2)))
