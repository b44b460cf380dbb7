import dataclasses
import math

import numpy as np
import pytest

from liftcert import tensor_lift
from liftcert.powersum import noise_layers
from liftcert.rng import gaussians
from liftcert.tensor_lift import LiftSizeError, sym_project
from oracles import sym_projector_matrix
from paper_tools import (ERROR_NORM_CONST, DecoupledFactors, decouple, decoupling_residual,
                         error_norm_bound, gaussian_ball_log_prob_bound, perturb)


def symmetric_row_operator(n, d, rows, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((rows, n**d))
    return np.vstack([sym_project(r, n, d) for r in raw])


class TestPerturb:
    def test_deterministic_reconstruction(self):
        base = np.arange(12.0).reshape(3, 4)
        a = perturb(base, 0.5, seed=99)
        b = perturb(base, 0.5, seed=99)
        assert np.array_equal(a.realized, b.realized)
        assert a.realized.tobytes() == b.realized.tobytes()

    def test_different_seeds_differ(self):
        base = np.zeros((3, 3))
        assert not np.array_equal(perturb(base, 1.0, 1).realized,
                                  perturb(base, 1.0, 2).realized)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            perturb(np.zeros((2, 2)), 0.0, seed=1)
        with pytest.raises(ValueError):
            perturb(np.zeros((2, 2)), -1.0, seed=1)

    def test_sample_variance_concentrates(self):
        sm = perturb(np.ones((100, 100)), 0.5, seed=11)
        var = float(np.var(sm.noise))
        assert 0.2 <= var <= 0.3

    def test_vanishing_rho_limit(self):
        base = np.arange(1.0, 7.0).reshape(2, 3)
        sm = perturb(base, 1e-300, seed=4)
        assert np.array_equal(sm.realized, base)

    def test_descriptor_never_stores_realized(self):
        # (base, rho, seed) describe a smoothed matrix: the sample is not a field one sets.
        sm = perturb(np.ones((2, 2)), 0.3, seed=5)
        assert [f.name for f in dataclasses.fields(sm) if f.init] == ["base", "rho", "seed"]
        assert np.array_equal(perturb(sm.base, sm.rho, sm.seed).realized, sm.realized)


class TestNoiseLayers:
    @pytest.mark.parametrize("rho", [1e-200, 1e-3, 1.0, 1e100])
    @pytest.mark.parametrize("shares", [(0.5, 0.5), (0.1, 0.3, 0.6)])
    def test_layers_are_finite_and_sum_to_the_noise(self, rho, shares):
        Z = rho * np.random.default_rng(3).standard_normal((5, 3))
        rhos = [rho * math.sqrt(w) for w in shares]
        layers = noise_layers(Z, rho, rhos, 4, "test")
        assert len(layers) == len(shares)
        # Compared in units of rho: a norm of 1e-200-sized entries underflows.
        assert all(np.isfinite(L).all() and 0 < np.linalg.norm(L / rho) < 20 for L in layers)
        assert np.abs(sum(layers) - Z).max() <= 1e-15 * np.abs(Z).max()

    def test_zero_noise_gives_zero_layers_without_drawing(self, monkeypatch):
        monkeypatch.setattr("liftcert.rng.gaussians", None)
        layers = noise_layers(np.zeros((4, 2)), 0.0, (0.0, 0.0, 0.0), 1, "test")
        assert len(layers) == 3 and not any(L.any() for L in layers)

    @pytest.mark.parametrize("rho, rhos", [(1e-200, (1e-200, 1e-200)), (1e-200, (1e-201,) * 2),
                                           (1e200, (1e200, 1e200)), (0.0, (0.0, 1e-300))])
    def test_refuses_variances_that_do_not_sum_at_any_scale(self, rho, rhos):
        with pytest.raises(ValueError, match="split variances must sum to rho"):
            noise_layers(np.zeros((2, 2)), rho, rhos, 1, "test")

    def test_layers_draw_from_their_keyed_streams(self):
        rho, rhos = 0.5, (0.3, 0.4)
        Z = np.random.default_rng(5).standard_normal((3, 2))
        layers = noise_layers(Z, rho, rhos, 9, "a", "b")
        raw = [r * gaussians((3, 2), 9, "a", "b", j) for j, r in enumerate(rhos)]
        excess = raw[0] + raw[1] - Z
        for j in range(2):
            assert np.array_equal(layers[j], raw[j] - (rhos[j] / rho) ** 2 * excess)


class TestDecouple:
    def test_pairwise_identity(self):
        sm = perturb(np.random.default_rng(0).standard_normal((4, 2)), 0.3, seed=5)
        dec = decouple(sm, 2)
        psi = sym_projector_matrix(4, 2)
        assert decoupling_residual(sm, dec, psi) <= 1e-10

    def test_third_order_identity(self):
        sm = perturb(np.random.default_rng(1).standard_normal((3, 2)), 0.4, seed=6)
        dec = decouple(sm, 3)
        psi = sym_projector_matrix(3, 3)
        assert decoupling_residual(sm, dec, psi) <= 1e-9

    def test_identity_against_random_symmetric_rows(self):
        for n, m, d in [(2, 2, 2), (4, 2, 2), (3, 2, 3), (4, 2, 3), (2, 1, 3), (3, 2, 4)]:
            sm = perturb(np.random.default_rng(n * 10 + d).standard_normal((n, m)),
                         0.25, seed=n + d)
            dec = decouple(sm, d)
            psi = symmetric_row_operator(n, d, 6, seed=17 + n + d)
            assert decoupling_residual(sm, dec, psi) <= 1e-9

    def test_partial_endpoints(self):
        sm = perturb(np.random.default_rng(2).standard_normal((4, 2)), 0.3, seed=7)
        dec = decouple(sm, 3)
        assert np.array_equal(dec.partials[0], sm.realized)
        assert np.linalg.norm(dec.partials[-1] - sm.base) <= 1e-12

    def test_split_variances(self):
        sm = perturb(np.zeros((3, 2)), 0.5, seed=8)
        dec = decouple(sm, 2, split=[0.3, 0.4])
        assert abs(float(np.sum(dec.rhos**2)) - 0.25) <= 1e-12
        layer_sum = sum(dec.layers)
        assert np.linalg.norm(layer_sum - sm.noise) <= 1e-12

    def test_geometric_split_orders_layers(self):
        sm = perturb(np.zeros((3, 2)), 0.5, seed=9)
        dec = decouple(sm, 3, split="geometric")
        assert dec.rhos[0] < dec.rhos[1] < dec.rhos[2]
        assert abs(float(np.sum(dec.rhos**2)) - 0.25) <= 1e-12

    def test_split_mismatch(self):
        sm = perturb(np.zeros((3, 2)), 0.5, seed=10)
        with pytest.raises(ValueError):
            decouple(sm, 2, split=[0.5, 0.5])
        with pytest.raises(ValueError):
            decouple(sm, 1)

    def test_size_checked_before_allocating(self, monkeypatch):
        # The cap admits every d = 2 array but not the 4**3 x C(5, 3)
        # remainder terms.
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 600)
        sm = perturb(np.random.default_rng(12).standard_normal((4, 3)), 0.3, seed=12)
        with pytest.raises(LiftSizeError, match="lift with n = 4, m = 3, d = 3"):
            decouple(sm, 3)
        assert decouple(sm, 2).error.shape == (16, 6)

    def test_degenerate_noise_gives_base_factors_and_zero_error(self):
        base = np.arange(1.0, 9.0).reshape(4, 2)
        sm = perturb(base, 1e-300, seed=11)
        dec = decouple(sm, 2)
        for F in dec.factors:
            assert np.array_equal(F, base)
        assert np.count_nonzero(dec.error) == 0

    def test_error_norm_within_frozen_envelope(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for t in range(50):
                base = rng.standard_normal((4, 2))
                rho = float(rng.choice([0.05, 0.1, 0.3, 0.5]))
                sm = perturb(base, rho, seed=1000 * d + t)
                dec = decouple(sm, d)
                assert np.linalg.norm(dec.error) <= error_norm_bound(dec, base, rho)

    def test_frozen_constants_cover_supported_orders(self):
        assert set(ERROR_NORM_CONST) == {2, 3}
        base = np.random.default_rng(4).standard_normal((3, 2))
        sm = perturb(base, 0.1, seed=1)
        dec4 = DecoupledFactors(rhos=decouple(sm, 2).rhos,
                                layers=[np.zeros((3, 2))] * 4,
                                partials=[base] * 5, factors=[base] * 4,
                                error=np.zeros((81, 5)))
        with pytest.raises(ValueError):
            error_norm_bound(dec4, base, 0.1)


class TestGaussianBallBound:
    def test_one_dimensional_closed_form(self):
        got = gaussian_ball_log_prob_bound(1, 1.0, 1.0)
        expected = math.log(1.0 / math.sqrt(2.0)) - math.lgamma(1.5)
        assert abs(got - expected) <= 1e-14

    def test_monotone_vanishing_radius(self):
        vals = [gaussian_ball_log_prob_bound(5, delta, 0.7)
                for delta in (1.0, 0.1, 0.01, 1e-6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_ball_log_prob_bound(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_ball_log_prob_bound(3, 0.1, 0.0)

    def test_dominates_monte_carlo_frequency(self):
        n, delta, rho = 10, 0.01, 1.0
        rng = np.random.default_rng(12)
        samples = rho * rng.standard_normal((10**5, n))
        freq = float(np.mean(np.linalg.norm(samples, axis=1) < delta))
        assert math.exp(gaussian_ball_log_prob_bound(n, delta, rho)) >= freq
