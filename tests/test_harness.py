import math
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcert import harness, rng, tensor_lift
from liftcert.harness import (REQUIRED, TARGETS, ExperimentConfig, Target, _kron,
                              _kron_product, _per_trial, _random_row_isometry, run_experiment)
from liftcert.matrixio import dump_json
from liftcert.spectral import singular_values
from liftcert.stats import quantile_summary, wilson_interval
from liftcert.tensor_lift import LiftSizeError, from_sym_coords, sym_lift
from oracles import kron_operator, per_trial_lift, per_trial_thm52
from paper_tools import sigma_basic_check


def cfg(**kw):
    base = dict(target="thm51",
                params={"n": 8, "m": 2, "d": 2, "delta": 0.5, "base": "zero"},
                rho_grid=[0.1], trials=5, master_seed=11, threshold=1e-6)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(target="nope")
        with pytest.raises(ValueError):
            cfg(trials=0)
        with pytest.raises(ValueError):
            cfg(rho_grid=[])
        with pytest.raises(ValueError):
            cfg(study="spiral")

    def test_from_dict_round_trip(self):
        raw = {"target": "thm51", "params": {"n": 8, "m": 2}, "rho_grid": [0.1],
               "trials": 3, "master_seed": 4, "threshold": 1e-6}
        config = ExperimentConfig.from_dict(raw)
        assert config.rho_grid == [0.1]
        assert config.name == "thm51"
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**raw, "bogus": 1})
        no_grid = {key: value for key, value in raw.items() if key != "rho_grid"}
        with pytest.raises(ValueError, match=r"unknown config fields: \['rho'\]"):
            ExperimentConfig.from_dict({**no_grid, "rho": 0.1})

    def test_threshold_must_be_finite(self):
        with pytest.raises(ValueError, match="threshold"):
            cfg(threshold=float("nan"))
        with pytest.raises(ValueError, match="threshold"):
            cfg(threshold=float("inf"))

    def test_rho_grid_entries_finite_and_nonnegative(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rho_grid"):
                cfg(rho_grid=[0.1, bad])
        assert cfg(rho_grid=[0.0]).rho_grid == [0.0]

    def test_min_passes_nonnegative(self):
        with pytest.raises(ValueError, match="min_passes"):
            cfg(min_passes=-1)
        assert cfg(min_passes=0).min_passes == 0

    def test_min_passes_above_trials_refused(self):
        with pytest.raises(ValueError, match=r"min_passes = 6 exceeds trials = 5"):
            cfg(min_passes=6)
        assert cfg(min_passes=5).min_passes == 5
        # The typed checks come first.
        with pytest.raises(ValueError, match="trials must be int, got 2.7"):
            cfg(trials=2.7, min_passes=6)

    def test_params_resolved_against_the_target_table(self):
        config = cfg(params={"n": 8, "m": 2})
        assert config.params == {"n": 8, "m": 2, "d": 2, "delta": 0.5, "base": "zero"}
        assert config.resolved()["params"] == config.params
        assert cfg(params={"n": 8, "m": 2, "delta": 1}).params["delta"] == 1.0
        with pytest.raises(ValueError, match="unknown param 'dd'"):
            cfg(params={"n": 8, "m": 2, "dd": 3})
        with pytest.raises(ValueError, match="missing required param 'n'"):
            cfg(params={"m": 2})
        for bad in ("8", 8.0, True, None):
            with pytest.raises(ValueError, match="param 'n' must be int"):
                cfg(params={"n": bad, "m": 2})
        with pytest.raises(ValueError, match="param 'delta' must be finite"):
            cfg(params={"n": 8, "m": 2, "delta": float("nan")})
        with pytest.raises(ValueError, match="param 'm' must be >= 1"):
            cfg(params={"n": 8, "m": 0})
        with pytest.raises(ValueError, match="param 'planted' must be bool"):
            cfg(target="certify", params={"planted": 1})
        with pytest.raises(ValueError, match="param 'control' must be"):
            run_experiment(cfg(target="conj81", params={"n": 8, "m": 2,
                                                        "control": "duplicat"}))

    @pytest.mark.parametrize("target, params, message", [
        ("thm51", {"n": 4, "m": 2, "delta": 3.0}, "param 'delta' must be <= 1.0, got 3.0"),
        ("thm52", {"n": 4, "m": 2, "delta": 1.5}, "param 'delta' must be <= 1.0, got 1.5"),
        ("cor53", {"n": 4, "m": 2, "delta": 2.0}, "param 'delta' must be <= 1.0, got 2.0"),
        ("sigma_basic", {"n": 10, "k": 4, "delta": -1.0}, "param 'delta' must be > 0.0, got -1.0"),
        ("sigma_basic", {"n": 10, "k": 4, "delta": 0.0}, "param 'delta' must be > 0.0, got 0.0"),
        ("sigma_basic", {"n": 10, "k": 4, "h": 0}, "param 'h' must be > 0.0, got 0"),
        ("jacobian_probe", {"n": 4, "m": 2, "k": 1, "tau_factor": -1.0},
         "param 'tau_factor' must be >= 0.0, got -1.0"),
    ])
    def test_float_param_out_of_range_is_refused_by_name(self, target, params, message):
        # thm51 at delta = 3 asked for 30 rows of a 10-dimensional space and
        # silently got 10; sigma_basic at delta = -1 passed every trial.
        with pytest.raises(ValueError) as exc:
            cfg(target=target, params=params)
        assert str(exc.value) == message

    def test_float_param_range_ends_are_accepted(self):
        assert cfg(target="jacobian_probe",
                   params={"n": 4, "m": 2, "k": 1, "tau_factor": 0}).params["tau_factor"] == 0.0
        small = cfg(target="sigma_basic", params={"n": 10, "k": 4, "delta": 1e-300, "h": 1e-300})
        assert small.params["delta"] == small.params["h"] == 1e-300

    @pytest.mark.parametrize("target, params, named", [
        ("thm51", {"n": 2, "m": 3}, "n=2, m=3, d=2, delta=0.5"),
        ("cor53", {"n": 4, "m": 2, "blocks": 4}, "blocks=4"),
        ("thm52", {"n": 3, "m": 3}, "n=3, m=3, d=2"),
        ("claim76", {"n": 5, "m": 3}, "n=5, m=3"),
        ("prop73", {"n": 3, "m": 5}, "n=3, m=5"),
        ("sigma_basic", {"n": 1, "k": 4}, "n=1, k=4"),
        ("conj81", {"n": 3, "m": 4}, "n=3, m=4, s=2, d=2"),
        ("prop72", {"n": 3, "m": 2, "ell": 4}, "ell=4"),
        ("jacobian_probe", {"n": 4, "m": 2, "k": 3}, "m=2, k=3"),
        ("certify", {"variety": "separable:2,2", "m": 2}, "variety=separable:2,2, m=2"),
    ])
    def test_dimension_budget_refused_before_any_trial(self, target, params, named):
        config = cfg(target=target, params=params)
        with pytest.raises(ValueError, match="dimension budget") as exc:
            run_experiment(config)
        assert named in str(exc.value)

    @pytest.mark.parametrize("target, params, cap", [
        ("thm51", {"n": 8, "m": 2, "d": 2}, 20),
        ("cor53", {"n": 8, "m": 2, "d": 2, "blocks": 2}, 20),
        ("thm52", {"n": 4, "m": 2, "d": 2}, 20),
        # Within the budget (m**d = 32 <= 2184 rows), but 12**5 = 248832
        # columns: 543M entries at the real cap.
        ("thm52", {"n": 12, "m": 2, "d": 5}, None),
    ])
    def test_projector_size_refused_before_any_draw(self, monkeypatch, target, params, cap):
        if cap is not None:
            monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", cap)
        draws = []
        monkeypatch.setattr(rng, "gaussians", lambda *args: draws.append(args))
        with pytest.raises(LiftSizeError, match="row isometry"):
            run_experiment(cfg(target=target, params=params))
        assert draws == []

    def test_readme_target_table_matches(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme.split("Targets:", 1)[1]
        assert re.findall(r"^\| `(\w+)` \|", table, re.M) == list(TARGETS)

    def test_every_registered_target_named(self):
        for required in ("thm51", "thm52", "cor53", "certify", "prop72",
                         "prop73", "lemma74", "conj81", "conj82", "caa_probe",
                         "jacobian_probe", "sigma_basic"):
            assert required in TARGETS


class TestRunExperiment:
    def test_replayable_byte_identical(self):
        a = run_experiment(cfg()).to_csv()
        b = run_experiment(cfg()).to_csv()
        assert a == b
        sa = run_experiment(cfg()).summary()
        sb = run_experiment(cfg()).summary()
        assert sa == sb

    def test_duplicated_base_is_degenerate(self):
        config = cfg(params={"n": 8, "m": 2, "d": 2, "delta": 0.5,
                             "base": "duplicated"},
                     rho_grid=[1e-300], trials=6)
        result = run_experiment(config)
        assert max(r.sigma for r in result.reports) <= 1e-10
        assert result.per_rho[0]["pass_count"] == 0

    def test_min_passes_gate(self):
        ok = run_experiment(cfg(min_passes=5))
        assert ok.accepted()
        config = cfg(params={"n": 8, "m": 2, "d": 2, "delta": 0.5,
                             "base": "duplicated"},
                     rho_grid=[1e-300], trials=5, min_passes=1)
        assert not run_experiment(config).accepted()

    def test_sigma_matches_full_coordinate_projector(self):
        n, m, d = 5, 2, 3
        config = cfg(params={"n": n, "m": m, "d": d}, rho_grid=[0.3, 1.0], trials=3)
        rank = math.ceil(0.5 * math.comb(n + d - 1, d))
        projector = from_sym_coords(_random_row_isometry(
            rank, math.comb(n + d - 1, d), config.master_seed, "projector"), n, d)
        for report in run_experiment(config).reports:
            noise = report.rho * rng.gaussians((n, m), report.seed, "noise", 0)
            lift = sym_lift(noise, d).data  # the zero base adds nothing
            want = singular_values(projector @ lift)[math.comb(m + d - 1, d) - 1]
            assert abs(report.sigma - want) <= 1e-12 * want

    def test_wilson_interval_reported(self):
        agg = run_experiment(cfg()).per_rho[0]
        assert 0.0 <= agg["wilson_low"] <= agg["pass_rate"] <= agg["wilson_high"] <= 1.0


class TestStackedTrials:
    """thm51, cor53 and thm52 measure a rho's trials as stacks; their CSV and
    summary bytes equal those of the same measures taken one trial at a time."""

    ORACLES = {"thm51": per_trial_lift, "cor53": per_trial_lift, "thm52": per_trial_thm52}

    @pytest.mark.parametrize("target, params, stack_entries, stacks", [
        ("thm51", {"n": 6, "m": 2, "d": 2}, None, [9]),
        ("thm51", {"n": 8, "m": 3, "d": 3, "base": "random"}, None, [9]),
        # min(n, m) = 5 at d = 3 takes the orbit sums.
        ("thm51", {"n": 7, "m": 5, "d": 3, "delta": 1.0}, None, [9]),
        ("cor53", {"n": 8, "m": 2, "d": 2, "blocks": 3, "base": "duplicated"}, None, [9]),
        ("thm52", {"n": 6, "m": 3, "d": 3}, None, [9]),
        ("thm52", {"n": 5, "m": 3, "d": 1}, None, [9]),
        ("thm52", {"n": 4, "m": 2, "d": 4}, None, [9]),
        # A stack cap below one trial, and one of three trials: thm52's
        # largest array per trial is its 5 x 4 x 2 mode product.
        ("cor53", {"n": 8, "m": 2, "d": 2, "blocks": 2}, 1, [1] * 9),
        ("thm52", {"n": 4, "m": 2, "d": 2}, 3 * 40, [3, 3, 3]),
    ])
    def test_stacks_equal_one_trial_at_a_time(self, monkeypatch, target, params,
                                              stack_entries, stacks):
        config = cfg(target=target, params=params, rho_grid=[0.0, 0.05, 0.3, 1.0], trials=9,
                     threshold=1e-9, study="scaling")
        if stack_entries is not None:
            monkeypatch.setattr(harness, "_STACK_ENTRIES", stack_entries)
        sizes = []
        real = harness.stacked_singular_values
        monkeypatch.setattr(harness, "stacked_singular_values",
                            lambda A: sizes.append(len(A)) or real(A))
        stacked = run_experiment(config)
        monkeypatch.setitem(TARGETS, target, Target(TARGETS[target].params,
                                                    _per_trial(self.ORACLES[target])))
        single = run_experiment(config)
        assert sizes == stacks * 4
        assert stacked.to_csv() == single.to_csv()
        assert dump_json(stacked.summary()) == dump_json(single.summary())

    def test_stack_cap_splits_the_trials(self, monkeypatch):
        sizes = []
        real = sym_lift
        monkeypatch.setattr(harness, "sym_lift", lambda U, d: sizes.append(len(U)) or real(U, d))
        monkeypatch.setattr(harness, "_STACK_ENTRIES", 4 * harness._lift_entries(6, 2, 2))
        run_experiment(cfg(params={"n": 6, "m": 2, "d": 2}, trials=9))
        assert sizes == [4, 4, 1]


class TestScalingStudy:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            cfg(study="scaling")

    def test_needs_three_distinct_rho_values(self):
        # A log-log slope through one repeated rho is undefined.
        for grid in ([0.1, 0.1, 0.1], [0.1, 0.2, 0.1, 0.2]):
            with pytest.raises(ValueError, match=r"3 rho_grid points, got [12] distinct"):
                cfg(rho_grid=grid, study="scaling")
        assert cfg(rho_grid=[0.1, 0.2, 0.1, 0.4], study="scaling").rho_grid == [0.1, 0.2, 0.1, 0.4]

    def test_zero_base_scaling_is_exact(self):
        config = cfg(rho_grid=[0.02, 0.05, 0.1, 0.2, 0.5], trials=12, study="scaling")
        result = run_experiment(config)
        flags = result.extras["scaling"]
        assert flags["median_nondecreasing"]
        assert flags["envelope_ok"]
        assert flags["rho_responsive"]
        assert abs(flags["loglog_slope"] - 2.0) <= 1e-6

    def test_first_order_slope_near_one(self):
        config = ExperimentConfig(
            target="thm51",
            params={"n": 12, "m": 3, "d": 1, "delta": 1.0, "base": "zero"},
            rho_grid=[0.02, 0.05, 0.1, 0.2, 0.5], trials=12,
            master_seed=3, threshold=1e-9, study="scaling")
        flags = run_experiment(config).extras["scaling"]
        assert 0.8 <= flags["loglog_slope"] <= 1.2

    def test_envelope_uses_the_default_degree(self):
        config = ExperimentConfig(
            target="thm51", params={"n": 6, "m": 2}, rho_grid=[0.1, 0.2, 0.4],
            trials=3, master_seed=0, threshold=1e-9, study="scaling")
        flags = run_experiment(config).extras["scaling"]
        assert flags["envelope_rule"] == "rho^2 / 6^6"
        assert abs(flags["loglog_slope"] - 2.0) <= 1e-6

    def test_constant_target_flagged_unresponsive(self):
        config = ExperimentConfig(
            target="const_control", params={}, rho_grid=[0.02, 0.1, 0.5],
            trials=4, master_seed=5, threshold=1e-9, study="scaling")
        flags = run_experiment(config).extras["scaling"]
        assert flags["median_nondecreasing"]
        assert not flags["rho_responsive"]

    def test_zero_rho_grid_point_has_no_slope(self):
        # log(0) entered the fit, and its least squares failed to converge.
        config = cfg(params={"n": 8, "m": 2, "base": "random"}, rho_grid=[0.0, 0.1, 0.2],
                     study="scaling")
        flags = run_experiment(config).extras["scaling"]
        assert flags["loglog_slope"] is None
        assert all(median > 0 for median in flags["medians"])


def caa_run(k, h_grid):
    """The caa_probe target's per-h aggregates, 200 trials at n = 10, m = 20."""
    config = cfg(target="caa_probe", params={"n": 10, "m": 20, "k": k}, rho_grid=h_grid,
                 trials=200, master_seed=8)
    return run_experiment(config).per_rho


@pytest.fixture(scope="module")
def caa_table():
    return caa_run(4, [1.0, 0.5, 0.3, 0.1])


class TestCaaProbe:

    def test_calibration_self_consistency(self, caa_table):
        low, high = wilson_interval(200 - caa_table[0]["pass_count"], 200)  # h = 1
        assert low <= 0.5 <= high

    def test_small_h_tail_bound(self, caa_table):
        assert (200 - caa_table[3]["pass_count"]) / 200 <= math.exp(-2 * 4)  # h = 0.1

    def test_spread_support_dominates_single_column(self):
        narrow = caa_run(1, [0.5, 0.3, 0.1])
        wide = caa_run(20, [0.5, 0.3, 0.1])
        for rn, rw in zip(narrow, wide):
            assert rw["pass_count"] >= rn["pass_count"]


def jacobian_run(n, m, k, rho, trials, master_seed):
    return run_experiment(cfg(target="jacobian_probe",
                              params={"n": n, "m": m, "k": k, "tau_factor": 0.1},
                              rho_grid=[rho], trials=trials, master_seed=master_seed))


class TestJacobianProbe:
    def test_acceptance_scale(self):
        result = jacobian_run(n=10, m=20, k=5, rho=0.1, trials=100, master_seed=5)
        assert result.per_rho[0]["pass_count"] >= 95
        assert {r.threshold for r in result.reports} == {25.0}

    def test_zero_support_counts_nothing(self):
        result = jacobian_run(n=6, m=8, k=0, rho=0.1, trials=3, master_seed=5)
        assert result.per_rho[0]["sigma"]["max"] == 0.0

    def test_larger_rho_never_decreases_counts_on_paired_seeds(self):
        small = jacobian_run(n=8, m=12, k=3, rho=0.1, trials=20, master_seed=6).per_rho[0]["sigma"]
        large = jacobian_run(n=8, m=12, k=3, rho=10.0, trials=20, master_seed=6).per_rho[0]["sigma"]
        assert large["min"] >= small["min"]
        assert large["median"] >= small["median"]


class TestSigmaBasic:
    def test_zero_failures_at_desk_scale(self):
        out = sigma_basic_check(n=12, k=4, delta=1.0, h=0.3, rho=0.5,
                                trials=200, master_seed=6)
        assert out["applicable"]
        assert out["bad_count"] == 0
        assert out["within_margin"]

    def test_degenerate_h_reports_not_applicable(self):
        out = sigma_basic_check(n=12, k=4, delta=1.0, h=1.0, rho=0.5,
                                trials=10, master_seed=6)
        assert out["applicable"] is False

    def test_zero_base_matches_generic_base_acceptance(self):
        zero = sigma_basic_check(n=10, k=4, delta=1.0, h=0.3, rho=0.5,
                                 trials=100, master_seed=7, base="zero")
        generic = sigma_basic_check(n=10, k=4, delta=1.0, h=0.3, rho=0.5,
                                    trials=100, master_seed=7, base="random")
        assert zero["within_margin"] and generic["within_margin"]


class TestProbesThroughGenericPath:
    def test_caa_target_runs_over_h_grid(self):
        config = ExperimentConfig(
            target="caa_probe", params={"n": 8, "m": 10, "k": 3},
            rho_grid=[1.0, 0.2], trials=30, master_seed=9, threshold=0.0)
        result = run_experiment(config)
        assert "lambda_hat" in result.extras
        assert len(result.per_rho) == 2
        # h = 1 threshold sits at the pilot median, so roughly half pass
        assert 5 <= result.per_rho[0]["pass_count"] <= 25

    def test_sigma_basic_target_reports_event_rate(self):
        config = ExperimentConfig(
            target="sigma_basic", params={"n": 10, "k": 4, "delta": 1.0, "h": 0.3},
            rho_grid=[0.5], trials=20, master_seed=9, threshold=0.0)
        result = run_experiment(config)
        assert result.per_rho[0]["pass_count"] == 20  # no bad events expected


# Small draws for every declared param; the dimension budgets below decide
# which draws are feasible.
SMALL = {
    "n": st.integers(1, 5), "m": st.integers(1, 4), "d": st.integers(1, 3),
    "delta": st.sampled_from([0.25, 0.5, 1.0]), "base": st.sampled_from(["zero", "random"]),
    "blocks": st.integers(1, 3), "planted": st.booleans(),
    "variety": st.sampled_from(["determinantal:3,3,1", "separable:2,2"]),
    "ell": st.integers(1, 3), "s": st.integers(1, 3), "shared_base": st.booleans(),
    "control": st.sampled_from(["none", "duplicate"]),
    "dim": st.integers(1, 4), "r": st.integers(1, 3), "N": st.integers(1, 20),
    "k": st.integers(1, 4), "rho": st.sampled_from([0.5, 1.0]),
    "pilot_trials": st.integers(1, 8), "tau_factor": st.sampled_from([0.1, 0.5]),
    "h": st.sampled_from([0.1, 0.3]),
}


def _lift_rank(p):
    return math.ceil(p["delta"] * math.comb(p["n"] + p["d"] - 1, p["d"]))


def _power_sum_ok(p, rank=0):
    return p["m"] < math.comb(p["n"] + 1, 2) and rank <= math.comb(p["n"] + 3, 4)


FEASIBLE = {
    "thm51": lambda p: math.comb(p["m"] + p["d"] - 1, p["d"]) <= _lift_rank(p),
    "cor53": lambda p: p["blocks"] * math.comb(p["m"] + p["d"] - 1, p["d"]) <= _lift_rank(p),
    "thm52": lambda p: p["m"] ** p["d"] <= _lift_rank(p),
    "prop72": lambda p: p["ell"] <= p["n"] and p["n"] ** 2 - p["n"] * p["ell"]
    - p["m"] * math.comb(p["ell"] + 1, 2) - p["m"] + 1 > 0,
    "prop73": lambda p: _power_sum_ok(
        p, p["m"] * math.comb(p["n"] + 1, 2) - math.comb(p["m"], 2)),
    "lemma74": _power_sum_ok,
    "claim77": _power_sum_ok,
    "claim76": lambda p: _power_sum_ok(
        p, 2 * p["m"] * math.comb(p["n"] + 1, 2) - math.comb(2 * p["m"], 2)),
    "conj81": lambda p: p["s"] * math.comb(p["m"] + p["d"] - 1, p["d"])
    <= math.comb(p["n"] + p["d"] - 1, p["d"]),
    "certify": lambda p: math.comb(p["m"] + 1, 2) <= {
        "determinantal:4,4,1": 36, "determinantal:3,3,1": 9, "separable:2,2": 1}[p["variety"]],
    "caa_probe": lambda p: p["k"] <= p["m"],
    "jacobian_probe": lambda p: p["k"] <= p["m"],
    "sigma_basic": lambda p: math.ceil(p["k"] / 2) <= min(p["n"], p["k"]),
}


def _draw_params(data, target):
    names = sorted(TARGETS[target].params)
    given = data.draw(st.lists(st.sampled_from(names), unique=True), label="given")
    required = [n for n, p in TARGETS[target].params.items()
                if p.default is REQUIRED]
    return {n: data.draw(SMALL[n], label=n) for n in sorted(set(given) | set(required))}


class TestTargetTable:
    @pytest.mark.parametrize("target", list(TARGETS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_small_params_give_finite_sigmas_or_a_named_refusal(self, target, data):
        params = _draw_params(data, target)
        config = ExperimentConfig(target=target, params=params, rho_grid=[0.3],
                                  trials=1, master_seed=1, threshold=1e-9)
        if FEASIBLE.get(target, lambda p: True)(config.params):
            result = run_experiment(config)
            assert all(math.isfinite(r.sigma) for r in result.reports)
        else:
            with pytest.raises(ValueError, match="dimension budget") as exc:
                run_experiment(config)
            assert re.search(rf"\b({'|'.join(params)})=", str(exc.value))

    @pytest.mark.parametrize("target", list(TARGETS))
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(data=st.data(), name=st.from_regex(r"[a-z_]{1,8}", fullmatch=True))
    def test_unknown_param_named(self, target, data, name):
        params = _draw_params(data, target)
        if name in TARGETS[target].params:
            return
        with pytest.raises(ValueError, match=f"unknown param '{name}'"):
            ExperimentConfig(target=target, params={**params, name: 1},
                             rho_grid=[0.3], trials=1, master_seed=1, threshold=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kron_fold_matches_np_kron_bit_for_bit(d):
    # thm52's trial folds its factors by broadcasting; each entry is the same
    # one product that np.kron forms, so the bits must agree.
    factors = [np.random.default_rng([d, j]).standard_normal((6, 3)) for j in range(d)]
    factors.append(np.random.default_rng(d).standard_normal((2, 5)))
    assert np.array_equal(reduce(_kron, factors), reduce(np.kron, factors))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n, m", [(6, 3), (4, 2), (3, 3)])
def test_mode_products_match_the_formed_kronecker_product(n, m, d):
    rows = math.ceil(0.5 * math.comb(n + d - 1, d))
    psi = _random_row_isometry(rows, n**d, 3, "operator")
    factors = np.random.default_rng([n, m, d]).standard_normal((d, n, m))
    want = kron_operator(psi, factors)
    got = _kron_product(psi, factors)
    assert got.shape == want.shape == (rows, m**d)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_quantile_summary_equals_numpy_bit_for_bit():
    gen = np.random.default_rng(20)
    for _ in range(2000):
        size = int(gen.integers(1, 101))
        # Few distinct values give ties; zeros and spread scales ride along.
        pool = np.append(gen.standard_normal(int(gen.integers(1, size + 1))), 0.0)
        v = gen.choice(pool * 10.0 ** gen.integers(-8, 8), size=size)
        got = quantile_summary(v.tolist())
        want = {"min": np.min(v), "q25": np.quantile(v, 0.25), "median": np.median(v),
                "q75": np.quantile(v, 0.75), "max": np.max(v)}
        assert got == {key: float(value) for key, value in want.items()}
        assert all(type(value) is float for value in got.values())
