import dataclasses
import itertools
import math

import numpy as np
import pytest

from liftcert import tensor_lift
from liftcert.spectral import singular_values
from liftcert.tensor_lift import LiftSizeError, from_sym_coords, sym_coords, sym_lift
from liftcert.varieties import (CertificateReport, build_phi, certify,
                                determinantal_generators,
                                determinantal_operator, orthonormalize_basis,
                                random_rank_le_point, random_separable_point,
                                separable_generators, variety_from_spec)


def ref_determinantal_generators(n1, n2, r):
    """Full-coordinate dual tensors of the (r+1)-minors: every signed
    permutation of every minor, spread over all orderings of its variables."""
    N, d = n1 * n2, r + 1
    gens = []
    for I in itertools.combinations(range(n1), d):
        for J in itertools.combinations(range(n2), d):
            F = np.zeros(N**d)
            for pi in itertools.permutations(range(d)):
                sign = (-1.0) ** sum(pi[a] > pi[b]
                                     for a, b in itertools.combinations(range(d), 2))
                variables = tuple(I[t] * n2 + J[pi[t]] for t in range(d))
                for arrangement in itertools.permutations(variables):
                    F[np.ravel_multi_index(arrangement, (N,) * d)] += sign / math.factorial(d)
            gens.append(F)
    return np.array(gens)


class TestDeterminantalGenerators:
    def test_counts_match_formula(self):
        for n1, n2 in itertools.product(range(2, 6), repeat=2):
            for r in range(1, min(n1, n2)):
                if r > 2:
                    continue
                gens = determinantal_generators(n1, n2, r)
                assert len(gens) == math.comb(n1, r + 1) * math.comb(n2, r + 1)

    def test_two_by_two_determinant_form(self):
        (F,) = from_sym_coords(determinantal_generators(2, 2, 1), 4, 2)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = X.reshape(4)
        assert abs(F @ np.kron(x, x) - np.linalg.det(X)) <= 1e-12

    def test_vanishes_on_low_rank(self):
        gens = from_sym_coords(determinantal_generators(3, 4, 1), 12, 2)
        e1 = np.zeros((3, 1))
        e1[0] = 1.0
        f1 = np.zeros((1, 4))
        f1[0, 0] = 1.0
        x = (e1 @ f1).reshape(12)
        for F in gens:
            assert abs(F @ np.kron(x, x)) <= 1e-14

    def test_matches_direct_minors(self):
        rng = np.random.default_rng(0)
        gens = from_sym_coords(determinantal_generators(3, 3, 1), 9, 2)
        pairs = [(I, J) for I in itertools.combinations(range(3), 2)
                 for J in itertools.combinations(range(3), 2)]
        for _ in range(50):
            X = rng.standard_normal((3, 3))
            xx = np.kron(X.reshape(9), X.reshape(9))
            for F, (I, J) in zip(gens, pairs):
                assert abs(F @ xx - np.linalg.det(X[np.ix_(I, J)])) <= 1e-12

    @pytest.mark.parametrize("n1,n2,r", [(2, 2, 1), (3, 4, 1), (4, 4, 2)])
    def test_matches_reference_expansion(self, n1, n2, r):
        ref = ref_determinantal_generators(n1, n2, r)
        gens = determinantal_generators(n1, n2, r)
        assert np.abs(sym_coords(ref, n1 * n2, r + 1) - gens).max() <= 1e-15
        assert np.abs(from_sym_coords(gens, n1 * n2, r + 1) - ref).max() <= 1e-15

    def test_size_checked_before_allocating(self, monkeypatch):
        # 16 generators x C(18, 3) = 816 coordinates.
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 16 * 816 - 1)
        with pytest.raises(LiftSizeError,
                           match="determinantal generators with n1 = 4, n2 = 4, r = 2"):
            determinantal_generators(4, 4, 2)
        assert determinantal_generators(4, 4, 1).shape == (36, 136)

    @pytest.mark.parametrize("n1,n2,r", [(2, 2, 1), (3, 3, 1), (3, 4, 2), (4, 4, 2),
                                         (5, 5, 2), (6, 6, 2)])
    def test_rows_are_orthonormal_and_used_as_is(self, n1, n2, r):
        G = determinantal_generators(n1, n2, r)
        assert np.abs(G @ G.T - np.eye(len(G))).max() <= 1e-15
        op = determinantal_operator(n1, n2, r)
        assert np.array_equal(op.generators, G)
        assert (op.n, op.d, op.provenance) == (n1 * n2, r + 1, f"determinantal({n1},{n2},{r})")

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            determinantal_generators(3, 3, 0)
        with pytest.raises(ValueError):
            determinantal_generators(3, 3, 3)


class TestSeparableGenerators:
    def test_counts_match_formula(self):
        for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (3, 3, 2)]:
            gens = separable_generators(dims)
            N = math.prod(dims)
            expected = math.comb(N + 1, 2) - math.prod(
                math.comb(x + 1, 2) for x in dims)
            assert len(gens) == expected

    def test_two_qubit_generator_is_determinant(self):
        (g,) = from_sym_coords(separable_generators((2, 2)), 4, 2)
        det_dual = np.zeros(16)
        det_dual[0 * 4 + 3] = det_dual[3 * 4 + 0] = 0.5
        det_dual[1 * 4 + 2] = det_dual[2 * 4 + 1] = -0.5
        cos = abs(g @ det_dual) / (np.linalg.norm(g) * np.linalg.norm(det_dual))
        assert abs(cos - 1.0) <= 1e-10

    def test_vanishes_on_separable_squares(self):
        gens = from_sym_coords(separable_generators((2, 3)), 6, 2)
        for t in range(100):
            v = random_separable_point((2, 3), seed=1, tag=t)
            for g in gens:
                assert abs(g @ np.kron(v, v)) <= 1e-10

    def test_refuses_large_ambient_dimension(self, monkeypatch):
        # dims (2, 3): 21 symmetric coordinates, 3 * 6 = 18 squares.
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 21 * 21 - 1)
        with pytest.raises(LiftSizeError, match=r"full SVD basis .* \(21, 21\)"):
            separable_generators((2, 3))
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 21 * 18 - 1)
        with pytest.raises(LiftSizeError, match=r"squares of the separable .* \(21, 18\)"):
            separable_generators((2, 3))
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 21 * 21)
        assert separable_generators((2, 3)).shape == (3, 21)

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            separable_generators((2,))
        with pytest.raises(ValueError):
            separable_generators((2, 1))


class TestBuildPhi:
    def test_single_unit_generator(self):
        g = np.zeros(4)
        g[0] = 1.0  # dual of x_1^2 over R^2
        op = build_phi([sym_coords(g, 2, 2)], n=2, d=2)
        assert op.p == 1
        assert np.allclose(np.abs(op.phi[0]), g)

    def test_rows_orthonormal(self):
        op = determinantal_operator(3, 3, 1)
        assert np.linalg.norm(op.phi @ op.phi.T - np.eye(op.p)) <= 1e-10
        assert np.linalg.norm(op.generators @ op.generators.T - np.eye(op.p)) <= 1e-10

    def test_vanishes_on_variety_points(self):
        op = determinantal_operator(3, 3, 1)
        for t in range(100):
            x = random_rank_le_point(3, 3, 1, seed=2, tag=t)
            assert np.max(np.abs(op.evaluate(x))) <= 1e-10

    def test_dependent_generators_dropped(self):
        g = np.zeros(4)
        g[0] = 1.0
        g = sym_coords(g, 2, 2)
        op = build_phi([g, 2.0 * g, -g], n=2, d=2)
        assert op.p == 1

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            build_phi([], n=2, d=2)
        with pytest.raises(ValueError):
            build_phi([np.zeros(4)], n=2, d=2)

    def test_rejects_full_coordinates_and_vanishing_rows(self):
        with pytest.raises(ValueError, match="C\\(2\\+2-1, 2\\) = 3 symmetric coordinates"):
            build_phi([np.eye(4)[0]], n=2, d=2)
        with pytest.raises(ValueError, match="no generators survive"):
            build_phi([np.zeros(3)], n=2, d=2)

    def test_phi_is_the_full_coordinate_view(self):
        op = determinantal_operator(3, 3, 1)
        assert np.array_equal(op.phi, from_sym_coords(op.generators, 9, 2))
        assert "phi" not in {f.name for f in dataclasses.fields(op)}

    def test_spec_string_parsing(self):
        op = variety_from_spec("determinantal:2,2,1")
        assert op.p == 1 and op.n == 4 and op.d == 2
        op = variety_from_spec("separable:2,2")
        assert op.p == 1
        for bad in ("foo:1,2", "determinantal:2,2", "separable:2"):
            with pytest.raises(ValueError):
                variety_from_spec(bad)


class TestCertify:
    def test_identity_direction_value(self):
        op = determinantal_operator(2, 2, 1)
        basis = (np.eye(2) / math.sqrt(2.0)).reshape(4, 1)
        report = certify(op, basis)
        assert abs(report.eta - 0.5) <= 1e-12
        assert report.verdict == "certified_far"
        assert isinstance(report, CertificateReport)

    def test_planted_point_forces_zero(self):
        op = determinantal_operator(4, 4, 1)
        rng = np.random.default_rng(3)
        for t in range(20):
            B = rng.standard_normal((16, 3))
            B[:, 0] = 0.0
            B[0, 0] = 1.0  # vec of the rank-1 matrix e1 e1^T
            Q = orthonormalize_basis(B, keep_first=True)
            report = certify(op, Q)
            assert report.eta <= 1e-10
            assert report.verdict == "dont_know"

    def test_smoothed_random_bases_certify(self):
        op = determinantal_operator(4, 4, 1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = rng.standard_normal((16, 3))
            base /= np.linalg.norm(base, axis=0)
            Q = orthonormalize_basis(base + 0.1 * rng.standard_normal((16, 3)))
            assert certify(op, Q).eta >= 1e-7

    def test_rotation_invariance_linear_case(self):
        # Degree-1 generators cut out a subspace; eta must be exactly
        # rotation-invariant for d = 1.
        rng = np.random.default_rng(5)
        gens = [np.eye(6)[i] for i in range(3)]
        op = build_phi(gens, n=6, d=1)
        Q = orthonormalize_basis(rng.standard_normal((6, 2)))
        eta0 = certify(op, Q).eta
        R, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        eta1 = certify(op, Q @ R).eta
        assert abs(eta0 - eta1) <= 1e-9

    def test_rotation_invariant_verdict_quadratic_case(self):
        op = determinantal_operator(3, 3, 1)
        rng = np.random.default_rng(6)
        Q = orthonormalize_basis(rng.standard_normal((9, 2)))
        R, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        a = certify(op, Q)
        b = certify(op, Q @ R)
        assert a.verdict == b.verdict

    def test_input_validation(self):
        op = determinantal_operator(2, 2, 1)
        with pytest.raises(ValueError):
            certify(op, np.ones((4, 2)))  # not orthonormal
        wide = orthonormalize_basis(np.random.default_rng(7).standard_normal((4, 2)))
        with pytest.raises(ValueError):
            certify(op, wide)  # C(3, 2) = 3 lifted columns > p = 1
        with pytest.raises(ValueError):
            certify(op, np.eye(3))  # wrong ambient dimension

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf])
    def test_refuses_negative_or_non_finite_tolerance(self, tolerance):
        op = determinantal_operator(3, 3, 1)
        B = np.random.default_rng(8).standard_normal((9, 2))
        B[:, 0] = np.eye(9)[0]  # a rank-1 matrix, so eta is rounding noise
        Q = orthonormalize_basis(B, keep_first=True)
        with pytest.raises(ValueError, match="tolerance"):
            certify(op, Q, tolerance=tolerance)
        assert certify(op, Q).verdict == "dont_know"

    def test_zero_tolerance_does_not_certify_rounding_noise(self):
        op = determinantal_operator(3, 3, 1)
        for seed in range(10):
            B = np.random.default_rng(seed).standard_normal((9, 2))
            B[:, 0] = np.eye(9)[0]  # a rank-1 matrix: eta is rounding noise
            report = certify(op, orthonormalize_basis(B, keep_first=True), tolerance=0.0)
            assert report.verdict == "dont_know", report.eta
        Q = orthonormalize_basis(np.random.default_rng(0).standard_normal((9, 2)))
        assert certify(op, Q, tolerance=0.0).verdict == "certified_far"

    @pytest.mark.parametrize("spec,m", [("determinantal:3,3,1", 2), ("determinantal:4,4,2", 3),
                                        ("separable:2,3", 2), ("separable:2,2,2", 3)])
    def test_eta_matches_full_coordinate_operator(self, spec, m):
        op = variety_from_spec(spec)
        rng = np.random.default_rng(10)
        for _ in range(5):
            Q = orthonormalize_basis(rng.standard_normal((op.n, m)))
            want = singular_values(op.phi @ sym_lift(Q, op.d).data)[-1]
            assert abs(certify(op, Q).eta - want) <= 1e-12 * want

    def test_report_serialization(self):
        op = determinantal_operator(2, 2, 1)
        basis = (np.eye(2) / math.sqrt(2.0)).reshape(4, 1)
        payload = certify(op, basis).to_json()
        assert set(payload) == {"eta", "m", "n", "d", "verdict",
                                "basis_sha256", "tolerance"}


class TestOrthonormalizeBasis:
    def test_produces_orthonormal_columns(self):
        rng = np.random.default_rng(8)
        Q = orthonormalize_basis(rng.standard_normal((6, 3)))
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("keep_first", [False, True])
    def test_refuses_dependent_columns(self, keep_first):
        v = np.arange(1.0, 10.0)
        rng = np.random.default_rng(11)
        parallel = np.column_stack([v, 2 * v])
        zero_first = np.column_stack([np.zeros(9), v])
        nearly = np.column_stack([v, rng.standard_normal(9), v + 1e-12 * rng.standard_normal(9)])
        for B, column in [(parallel, 1), (zero_first, 0), (nearly, 2)]:
            with pytest.raises(ValueError, match=f"basis column {column} is zero or nearly in the span"):
                orthonormalize_basis(B, keep_first=keep_first)
        with pytest.raises(ValueError, match="basis has 12 columns in R\\^9"):
            orthonormalize_basis(rng.standard_normal((9, 12)), keep_first=keep_first)

    @pytest.mark.parametrize("keep_first", [False, True])
    def test_non_finite_basis_is_an_arithmetic_error(self, keep_first):
        # Inputs are checked finite where they enter, so an inf here is an
        # overflow (say base + rho * noise at rho = 1e308), not a bad basis.
        B = np.random.default_rng(13).standard_normal((9, 2))
        B[3, 1] = np.inf
        with pytest.raises(ArithmeticError, match="basis has non-finite entries"):
            orthonormalize_basis(B, keep_first=keep_first)

    @pytest.mark.parametrize("keep_first", [False, True])
    def test_accepts_columns_above_the_pivot_cut(self, keep_first):
        v = np.arange(1.0, 10.0)
        w = v + 1e-8 * np.random.default_rng(12).standard_normal(9)
        Q = orthonormalize_basis(np.column_stack([v, w]), keep_first=keep_first)
        assert Q.shape == (9, 2) and np.linalg.norm(Q.T @ Q - np.eye(2)) <= 1e-6

    def test_keep_first_preserves_direction(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((6, 3))
        B[:, 0] = 2.0 * np.eye(6)[:, 1]
        Q = orthonormalize_basis(B, keep_first=True)
        assert np.allclose(Q[:, 0], np.eye(6)[:, 1])
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-12
