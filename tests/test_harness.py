import math
import re
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcert import harness, rng, tensor_lift, varieties
from liftcert.harness import (REQUIRED, TARGETS, ExperimentConfig, Target, _kron,
                              _kron_product, _random_row_isometry, run_experiment)
from liftcert.matrixio import dump_json
from liftcert.spectral import singular_values
from liftcert.stats import quantile_summary, wilson_interval
from liftcert.tensor_lift import LiftSizeError, from_sym_coords, sym_lift
from oracles import (exact_orbit_conj82, kron_operator, per_rho, per_trial, per_trial_claim76,
                     per_trial_claim77, per_trial_conj81, per_trial_conj82,
                     per_trial_jacobian_probe, per_trial_lemma74, per_trial_lift,
                     per_trial_prop71, per_trial_prop72, per_trial_sigma_basic, per_trial_thm52,
                     seeds_caa_probe, seeds_certify, seeds_prop73)
from paper_tools import sigma_basic_check


def cfg(**kw):
    base = dict(target="thm51",
                params={"n": 8, "m": 2, "d": 2, "delta": 0.5, "base": "zero"},
                rho_grid=[0.1], trials=5, master_seed=11, threshold=1e-6)
    base.update(kw)
    return ExperimentConfig(**base)


def warm_trial_peak(measure, rho=0.3) -> int:
    """The traced peak bytes of one trial of ``measure`` at ``rho``, after a
    first trial has filled its caches."""
    def trial(seed):
        for inputs, _ in measure.draw(rho, [seed]):
            measure.read(measure.build(inputs), inputs, rho)
    trial(1)
    tracemalloc.start()
    try:
        trial(2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_stages(monkeypatch, target, calls):
    """Log in ``calls`` each stage of the target's Measure as run_experiment
    calls it: ``("draw", trials)``, "build" and "read", after "bound".  Build
    and read check that they get what the stage before them gave, and build
    that it leaves drawn arrays as they were: at scale 0 they are the base."""
    real = TARGETS[target]

    def bind(p, config):
        measure, last = real.bind(p, config), {}
        calls.append("bound")

        def draw(rho, seeds):
            for inputs, trials in measure.draw(rho, seeds):
                calls.append(("draw", trials))
                last["inputs"] = inputs
                yield inputs, trials

        def build(inputs):
            calls.append("build")
            assert inputs is last["inputs"]
            drawn = inputs.copy() if isinstance(inputs, np.ndarray) else None
            last["A"] = measure.build(inputs)
            assert drawn is None or np.array_equal(drawn, inputs)
            return last["A"]

        def read(A, inputs, rho):
            calls.append("read")
            assert A is last["A"] and inputs is last["inputs"]
            return measure.read(A, inputs, rho)
        return measure._replace(draw=draw, build=build, read=read)
    monkeypatch.setitem(TARGETS, target, real._replace(bind=bind))


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

    def test_conj82_orbits_past_int64_match_exact_multinomials(self, monkeypatch):
        # Coefficients of up to C(70, 35) ~ 1e20 wrapped in int64 (sigma 5.126e-05).
        config = cfg(target="conj82", params={"dim": 2, "r": 70, "N": 100},
                     rho_grid=[0.3], trials=1, master_seed=0, threshold=0.0)
        got = run_experiment(config).reports[0].sigma
        monkeypatch.setitem(TARGETS, "conj82", Target(TARGETS["conj82"].params,
                                                      per_trial(exact_orbit_conj82)))
        want = run_experiment(config).reports[0].sigma
        assert abs(got - want) <= 1e-10 * want


class TestStackedTrials:
    """The fixed-base targets (thm51, cor53, thm52, prop72, conj81, conj82,
    sigma_basic) measure a rho's trials as stacks; their CSV and summary
    bytes equal those of the same measures taken one trial at a time."""

    ORACLES = {"thm51": per_trial_lift, "cor53": per_trial_lift, "thm52": per_trial_thm52,
               "prop72": per_trial_prop72, "conj82": per_trial_conj82,
               "sigma_basic": per_trial_sigma_basic}

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
        ("prop72", {"n": 8, "m": 3, "ell": 3}, None, [9]),
        ("prop72", {"n": 10, "m": 4, "ell": 2}, None, [9]),
        # prop72's largest array per trial is its 36 x 8 block matrix.
        ("prop72", {"n": 6, "m": 2, "ell": 2}, 4 * 288, [4, 4, 1]),
        # conj82's are its 20 x 15 x 4 monomial factors, sigma_basic's its 6 x 5 base.
        ("conj82", {"dim": 3, "r": 4, "N": 20}, 2 * 1200, [2, 2, 2, 2, 1]),
        ("sigma_basic", {"n": 6, "k": 5, "base": "random"}, 2 * 30, [2, 2, 2, 2, 1]),
        ("sigma_basic", {"n": 5, "k": 4, "delta": 0.5, "h": 0.7}, None, [9]),
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
                                                    per_trial(self.ORACLES[target])))
        single = run_experiment(config)
        # rho 0 draws nothing and decomposes its one unperturbed matrix.
        assert sizes == [1] + stacks * 3
        assert stacked.to_csv() == single.to_csv()
        assert dump_json(stacked.summary()) == dump_json(single.summary())

    def test_stack_cap_splits_the_trials(self, monkeypatch):
        sizes = []
        real = sym_lift
        monkeypatch.setattr(harness, "sym_lift", lambda U, d: sizes.append(len(U)) or real(U, d))
        monkeypatch.setattr(harness, "_STACK_ENTRIES", 4 * harness._lift_entries(6, 2, 2))
        run_experiment(cfg(params={"n": 6, "m": 2, "d": 2}, trials=9))
        assert sizes == [4, 4, 1]

    def test_each_stack_is_decomposed_before_the_next_is_built(self, monkeypatch):
        calls = []
        lift, svd = harness.sym_lift, harness.stacked_singular_values
        monkeypatch.setattr(harness, "sym_lift", lambda U, d: calls.append("build") or lift(U, d))
        monkeypatch.setattr(harness, "stacked_singular_values",
                            lambda A: calls.append("svd") or svd(A))
        monkeypatch.setattr(harness, "_STACK_ENTRIES", 2 * harness._lift_entries(6, 2, 2))
        run_experiment(cfg(params={"n": 6, "m": 2, "d": 2}, trials=5))
        assert calls == ["build", "svd"] * 3

    @pytest.mark.parametrize("params, reads", [
        ({}, ("once", "stacks")),
        ({"shared_base": False}, ("once", "stacks")),
        ({"control": "duplicate"}, ("once", "once")),
    ])
    def test_conj81_stacks_equal_one_trial_at_a_time(self, monkeypatch, params, reads):
        # Stacks of at most two trials' s = 2 lifts; unperturbed, the one
        # lift of the unperturbed bases is decomposed once for every trial.
        config = cfg(target="conj81", params={"n": 6, "m": 2, "s": 2, "d": 2, **params},
                     rho_grid=[0.0, 0.3], trials=5, threshold=1e-9)
        monkeypatch.setattr(harness, "_STACK_ENTRIES", 2 * 2 * harness._lift_entries(6, 2, 2))
        shapes = []
        real = harness.stacked_singular_values
        monkeypatch.setattr(harness, "stacked_singular_values",
                            lambda A: shapes.append(A.shape[:-2]) or real(A))
        stacked = run_experiment(config)
        monkeypatch.setitem(TARGETS, "conj81", Target(TARGETS["conj81"].params,
                                                      per_trial(per_trial_conj81)))
        single = run_experiment(config)
        shown = {"stacks": [(2,), (2,), (1,)], "once": [(1,)]}
        assert shapes == shown[reads[0]] + shown[reads[1]]
        assert stacked.to_csv() == single.to_csv()
        assert dump_json(stacked.summary()) == dump_json(single.summary())

    @pytest.mark.parametrize("target, params, builder, entries", [
        ("conj81", {"n": 6, "m": 2, "s": 2, "d": 2}, "build_block_lift",
         2 * harness._lift_entries(6, 2, 2)),
        ("conj82", {"dim": 3, "r": 4, "N": 20}, "build_power_matrix", 20 * 15 * 4),
    ])
    def test_fixed_bases_build_and_decompose_each_stack(self, monkeypatch, target, params,
                                                        builder, entries):
        # One build and one SVD per stack of two trials, not one per trial.
        calls = []
        build, svd = getattr(harness.ps, builder), harness.stacked_singular_values
        monkeypatch.setattr(harness.ps, builder,
                            lambda *args: calls.append("build") or build(*args))
        monkeypatch.setattr(harness, "stacked_singular_values",
                            lambda A: calls.append("svd") or svd(A))
        monkeypatch.setattr(harness, "_STACK_ENTRIES", 2 * entries)
        run_experiment(cfg(target=target, params=params, trials=5))
        assert calls == ["build", "svd"] * 3


class TestFixedBaseMeasure:
    """The seven fixed-base targets share ``harness._smoothed``: it refuses a
    trial past the cap when the target binds, and at scale 0 it draws
    nothing and builds and decomposes one matrix per rho."""

    @pytest.mark.parametrize("target, params, oracle", [
        ("thm51", {"n": 6, "m": 2, "d": 2, "base": "random"}, per_trial_lift),
        ("cor53", {"n": 8, "m": 2, "d": 2, "blocks": 2, "base": "duplicated"}, per_trial_lift),
        ("thm52", {"n": 4, "m": 2, "d": 2, "base": "random"}, per_trial_thm52),
        ("prop72", {"n": 6, "m": 2, "ell": 2}, per_trial_prop72),
        ("conj81", {"n": 6, "m": 2, "s": 2, "d": 2}, per_trial_conj81),
        ("conj81", {"n": 6, "m": 2, "s": 2, "d": 2, "control": "duplicate",
                    "shared_base": False}, per_trial_conj81),
        ("conj82", {"dim": 3, "r": 4, "N": 20}, per_trial_conj82),
        ("sigma_basic", {"n": 6, "k": 5, "base": "random"}, per_trial_sigma_basic),
    ])
    def test_scale_zero_builds_and_decomposes_once(self, monkeypatch, target, params, oracle):
        config = cfg(target=target, params=params, rho_grid=[0.0, 0.3], trials=5,
                     threshold=1e-9)
        smoothed_run = run_experiment(config)
        calls = []
        spy_stages(monkeypatch, target, calls)
        svd, draw = harness.stacked_singular_values, harness._rng.gaussians
        monkeypatch.setattr(harness, "stacked_singular_values",
                            lambda A: calls.append("svd") or svd(A))
        monkeypatch.setattr(harness._rng, "gaussians",
                            lambda *args, **kw: calls.append("gaussians") or draw(*args, **kw))
        result = run_experiment(cfg(target=target, params=params, rho_grid=[0.0], trials=3))
        # One run stands for the three trials: no noise drawn, one build, one SVD.
        assert calls[calls.index("bound"):] == ["bound", ("draw", 3), "build", "read", "svd"]
        assert len({r.sigma for r in result.reports}) == 1
        monkeypatch.setitem(TARGETS, target, Target(TARGETS[target].params, per_trial(oracle)))
        single = run_experiment(config)
        assert smoothed_run.to_csv() == single.to_csv()
        assert dump_json(smoothed_run.summary()) == dump_json(single.summary())

    def test_thm52_trial_peaks_within_its_declared_arrays(self):
        # An F-ordered operator was copied whole to fold it, on every stack:
        # this trial peaked at 0.204 MB against 1400 declared entries.
        config = cfg(target="thm52", params={"n": 5, "m": 2, "d": 4}, trials=1)
        measure = TARGETS["thm52"].bind(config.params, config)
        assert measure.arrays == {"one trial's arrays": (35 * 5 * 2**3,)}
        assert warm_trial_peak(measure) < 4 * 8 * 35 * 5 * 2**3

    @pytest.mark.parametrize("target, params, entries, named", [
        # Under a cap one entry below a trial's arrays, with its bases and
        # operator (63 entries for thm51, 126 for cor53) under it.
        ("thm51", {"n": 6, "m": 2, "d": 2, "delta": 0.1}, 84,
         "params n=6, m=2, d=2, delta=0.1, base=zero: one trial's arrays would have shape (84,)"),
        ("cor53", {"n": 6, "m": 2, "d": 2, "blocks": 2, "delta": 0.25}, 168,
         "params n=6, m=2, d=2, delta=0.25, base=zero, blocks=2: one trial's arrays would have "
         "shape (168,)"),
        ("prop72", {"n": 6, "m": 2, "ell": 2}, 288,
         "params n=6, m=2, ell=2: one trial's arrays would have shape (288,)"),
        ("conj81", {"n": 6, "m": 2, "s": 2, "d": 2}, 168,
         "params n=6, m=2, s=2, d=2, control=none, shared_base=True: one trial's arrays would "
         "have shape (168,)"),
        ("conj82", {"dim": 3, "r": 4, "N": 20}, 1200,
         "params dim=3, r=4, N=20: one trial's arrays would have shape (20, 15, 4)"),
        # thm52's row isometry is larger than a trial's mode products, and
        # sigma_basic's base is as large as its trial: each is refused first.
        ("thm52", {"n": 4, "m": 2, "d": 2}, 80,
         "params n=4, m=2, d=2, delta=0.5, base=zero: the random row isometry"),
        ("sigma_basic", {"n": 6, "k": 5}, 30,
         "params n=6, k=5, delta=1.0, h=0.3, base=zero: the zero base would have shape (6, 5)"),
        # certify's 36 x 15 operator forms are under its 136 x 15 lift, which
        # is refused first, in sym_lift's words.
        ("certify", {"m": 5}, 540,
         "params variety=determinantal:4,4,1, m=5, planted=False: the symmetrized lift with "
         "n = 16, m = 5, d = 2 would have shape (136, 15)"),
    ])
    def test_trial_past_the_cap_is_refused_at_bind(self, monkeypatch, target, params, entries,
                                                   named):
        # Refused as the target binds, before any trial's noise is drawn.
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", entries - 1)
        paths, draw = [], harness._rng.gaussians
        monkeypatch.setattr(harness._rng, "gaussians", lambda shape, seeds, *path, **kw: (
            paths.append(path) or draw(shape, seeds, *path, **kw)))
        with pytest.raises(LiftSizeError, match="^" + re.escape(named)):
            run_experiment(cfg(target=target, params=params))
        assert not any("noise" in path for path in paths)

    def test_stacks_fit_under_a_lowered_cap(self, monkeypatch):
        # A cap of three trials' arrays, below _STACK_ENTRIES: each trial fits,
        # so ten trials run in stacks of three with the uncapped run's bytes.
        config = cfg(params={"n": 6, "m": 2, "d": 2}, rho_grid=[0.3], trials=10)
        uncapped = run_experiment(config)
        monkeypatch.setattr(tensor_lift, "MAX_DENSE_ENTRIES", 3 * harness._lift_entries(6, 2, 2))
        sizes, svd = [], harness.stacked_singular_values
        monkeypatch.setattr(harness, "stacked_singular_values",
                            lambda A: sizes.append(len(A)) or svd(A))
        capped = run_experiment(config)
        assert sizes == [3, 3, 3, 1]
        assert capped.to_csv() == uncapped.to_csv()
        assert dump_json(capped.summary()) == dump_json(uncapped.summary())


# One small config of each target whose trials report a singular value.
SPECTRA_TARGETS = {
    "thm51": {"n": 6, "m": 2}, "thm52": {"n": 4, "m": 2}, "cor53": {"n": 8, "m": 2, "blocks": 2},
    "prop71": {"n": 3, "m": 3}, "prop72": {"n": 6, "m": 2, "ell": 2},
    "lemma74": {"n": 5, "m": 3}, "claim77": {"n": 5, "m": 3}, "claim76": {"n": 8, "m": 3},
    "conj81": {"n": 6, "m": 2}, "conj82": {"dim": 3, "r": 4, "N": 20},
    "sigma_basic": {"n": 6, "k": 5},
}
# And of the other five.
ALL_TARGETS = {**SPECTRA_TARGETS, "certify": {}, "prop73": {"n": 5, "m": 3},
               "caa_probe": {"n": 5, "m": 4, "k": 2, "pilot_trials": 16},
               "jacobian_probe": {"n": 5, "m": 4, "k": 2}, "const_control": {}}


@pytest.mark.parametrize("target", list(SPECTRA_TARGETS))
def test_singular_value_targets_return_spectra(monkeypatch, target):
    # Each run's matrix or stack goes through one stacked SVD, one value per trial.
    config = cfg(target=target, params=SPECTRA_TARGETS[target], trials=3)
    stacks, svd = [], harness.stacked_singular_values
    monkeypatch.setattr(harness, "stacked_singular_values",
                        lambda A: stacks.append(A.shape[:-2]) or svd(A))
    assert len(run_experiment(config).reports) == 3
    assert sum(math.prod(lead) for lead in stacks) == 3


@pytest.mark.parametrize("target", list(TARGETS))
def test_every_target_binds_a_measure(target):
    config = cfg(target=target, params=ALL_TARGETS[target])
    assert isinstance(TARGETS[target].bind(config.params, config), harness.Measure)


# One config of each target whose largest declared array outweighs the fixed
# overhead of a trial, where it has one; caa_probe declares none, since its
# bind checks the Khatri-Rao product that it builds for its pilot.
PEAK_CONFIGS = {
    "thm51": {"n": 10, "m": 4, "d": 3}, "thm52": {"n": 5, "m": 2, "d": 4},
    "cor53": {"n": 12, "m": 3, "d": 3, "blocks": 2}, "certify": {},
    "prop71": {"n": 3, "m": 6}, "prop72": {"n": 20, "m": 3, "ell": 6},
    "prop73": {"n": 10, "m": 8}, "lemma74": {"n": 10, "m": 6}, "claim77": {"n": 10, "m": 6},
    "claim76": {"n": 10, "m": 6}, "conj81": {"n": 10, "m": 3, "d": 3},
    "conj82": {"dim": 6, "r": 4, "N": 100}, "caa_probe": ALL_TARGETS["caa_probe"],
    "jacobian_probe": {"n": 20, "m": 10, "k": 4}, "sigma_basic": {"n": 100, "k": 80},
    "const_control": {},
}
# A trial's fixed overhead: certify's, the largest, peaked at 41 KB.
PEAK_ALLOWANCE = 64 * 1024


@pytest.mark.parametrize("target", list(TARGETS))
def test_every_target_peaks_within_its_declared_arrays(target):
    # A trial that peaks past four copies of its largest declared array
    # likely builds a larger one it does not declare, which the cap never sees.
    config = cfg(target=target, params=PEAK_CONFIGS[target], trials=1)
    measure = TARGETS[target].bind(config.params, config)
    declared = max((math.prod(shape) for shape in measure.arrays.values()), default=0)
    assert warm_trial_peak(measure) <= 4 * 8 * declared + PEAK_ALLOWANCE


SMOOTHED = {"thm51", "thm52", "cor53", "prop72", "conj81", "conj82", "sigma_basic",
            "const_control", "certify"}


@pytest.mark.parametrize("target, params", [
    *ALL_TARGETS.items(), pytest.param("certify", {"planted": True}, id="certify-planted")])
def test_each_run_is_drawn_built_and_read_once_in_order(monkeypatch, target, params):
    # Under a stack cap of one entry every stack holds one trial.  A scale of
    # 0 (rho 0, and every rho of const_control) is one run for all five.
    monkeypatch.setattr(harness, "_STACK_ENTRIES", 1)
    calls = []
    spy_stages(monkeypatch, target, calls)
    run_experiment(cfg(target=target, params=params, rho_grid=[0.0, 0.3], trials=5))
    once, each = [("draw", 5)], [("draw", 1)] * 5
    draws = (once if target in SMOOTHED else each) + (once if target == "const_control" else each)
    assert calls == ["bound"] + [call for draw in draws for call in (draw, "build", "read")]


@pytest.mark.parametrize("planted", [False, True])
def test_a_certify_experiment_hashes_no_basis(monkeypatch, planted):
    monkeypatch.setattr(varieties, "matrix_sha256", lambda *a: pytest.fail("a basis was hashed"))
    config = cfg(target="certify", params={"planted": planted}, rho_grid=[0.0, 0.3], trials=3)
    assert len(run_experiment(config).reports) == 6


@pytest.mark.parametrize("trials", [1, 4])
def test_planted_certify_builds_the_forms_of_the_basis_planted_at_e0(trials):
    # A planted eta is exactly 0 at every rho, so only the forms show which point was planted.
    config = cfg(target="certify", params={"planted": True}, rho_grid=[0.0, 0.3], trials=trials)
    measure = TARGETS["certify"].bind(config.params, config)
    op = varieties.variety_from_spec(config.params["variety"])
    base = rng.unit_columns((op.n, config.params["m"]), config.master_seed, "base")
    seeds = [rng.derive_seed(config.master_seed, "trial", t) for t in range(trials)]
    for rho in config.rho_grid:
        built = np.concatenate([np.repeat(measure.build(inputs), count // len(inputs), axis=0)
                                for inputs, count in measure.draw(rho, seeds)])
        want = []
        for seed in seeds:
            B = base + rho * rng.gaussians(base.shape, seed, "noise")
            B[:, 0] = np.eye(op.n)[0]
            want.append(varieties.apply_to_lift(op, varieties.orthonormalize_basis(B, keep_first=True)))
        assert np.abs(built).max() > 0.1 and np.array_equal(built, np.array(want))


class TestMatricesOneAtATime:
    """The targets that yield one matrix per trial, and conj81, conj82 and
    sigma_basic at the default stack size, give the CSV and summary bytes of
    their measures taken one trial at a time with ``singular_values(...)[k]``;
    certify, prop73 and caa_probe those of the measures they replaced."""

    ORACLES = {"prop71": per_trial_prop71, "lemma74": per_trial_lemma74,
               "claim77": per_trial_claim77, "claim76": per_trial_claim76,
               "conj81": per_trial_conj81, "conj82": per_trial_conj82,
               "sigma_basic": per_trial_sigma_basic}

    @pytest.mark.parametrize("target, params", [
        ("prop71", {"n": 3, "m": 3}),
        ("lemma74", {"n": 5, "m": 3}),
        ("claim77", {"n": 5, "m": 3}),
        ("claim76", {"n": 8, "m": 3}),
        ("conj81", {"n": 6, "m": 2, "s": 2, "d": 2}),
        ("conj81", {"n": 6, "m": 2, "s": 2, "d": 2, "control": "duplicate",
                    "shared_base": False}),
        ("conj82", {"dim": 3, "r": 4, "N": 20}),
        ("sigma_basic", {"n": 6, "k": 5, "base": "random"}),
        ("sigma_basic", {"n": 5, "k": 4, "delta": 0.5, "h": 0.7}),
    ])
    def test_reads_equal_one_trial_at_a_time(self, monkeypatch, target, params):
        config = cfg(target=target, params=params, rho_grid=[0.0, 0.05, 0.3, 1.0], trials=4,
                     threshold=1e-9, study="scaling")
        read = run_experiment(config)
        monkeypatch.setitem(TARGETS, target, Target(TARGETS[target].params,
                                                    per_trial(self.ORACLES[target])))
        single = run_experiment(config)
        assert read.to_csv() == single.to_csv()
        assert dump_json(read.summary()) == dump_json(single.summary())

    @pytest.mark.parametrize("trials", [1, 30])
    @pytest.mark.parametrize("target, params, oracle", [
        ("certify", {}, seeds_certify),
        ("certify", {"planted": True}, seeds_certify),
        ("prop73", {"n": 5, "m": 3}, seeds_prop73),
        ("caa_probe", {"n": 5, "m": 4, "k": 2, "pilot_trials": 16}, seeds_caa_probe),
    ])
    def test_reads_equal_the_seed_at_a_time_measures(self, monkeypatch, target, params, oracle,
                                                      trials):
        # The measures these targets wrote before they were a draw, a build and
        # a read: certify through varieties.certify, prop73 and caa_probe as
        # generators, caa_probe's lambda_hat and delta as attributes.
        config = cfg(target=target, params=params, rho_grid=[0.0, 0.3], trials=trials,
                     threshold=1e-9)
        read = run_experiment(config)
        monkeypatch.setitem(TARGETS, target, Target(TARGETS[target].params, per_rho(oracle)))
        single = run_experiment(config)
        assert read.to_csv() == single.to_csv()
        assert dump_json(read.summary()) == dump_json(single.summary())

    def test_each_matrix_is_decomposed_before_the_next_is_built(self, monkeypatch):
        # A list of the trials' matrices would build all three before the first SVD.
        calls = []
        build, svd = harness.ps.build_solution_space_M, harness.stacked_singular_values
        monkeypatch.setattr(harness.ps, "build_solution_space_M",
                            lambda inst: calls.append("build") or build(inst))
        monkeypatch.setattr(harness, "stacked_singular_values",
                            lambda A: calls.append("svd") or svd(A))
        run_experiment(cfg(target="lemma74", params={"n": 5, "m": 3}, trials=3))
        assert calls == ["build", "svd"] * 3


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

    def test_envelope_past_the_float_range_is_not_met(self):
        # 1000.0**103 raised OverflowError, and the study wrote nothing.
        config = cfg(params={"n": 2, "m": 1, "d": 103}, rho_grid=[1000.0, 1001.0, 1002.0],
                     trials=1, master_seed=0, study="scaling")
        flags = run_experiment(config).extras["scaling"]
        assert flags["medians"][0] > 1e288
        assert not flags["envelope_ok"]
        assert flags["median_nondecreasing"] and flags["rho_responsive"]
        # The envelope there is 1000**103 / 2**6, about 1.6e307.
        assert harness._meets_envelope(1e308, 1000.0, 103, 2)
        assert not harness._meets_envelope(1e306, 1000.0, 103, 2)


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


def jacobian_run(n, m, k, rho, trials, master_seed, tau_factor=0.1):
    return run_experiment(cfg(target="jacobian_probe",
                              params={"n": n, "m": m, "k": k, "tau_factor": tau_factor},
                              rho_grid=[rho], trials=trials, master_seed=master_seed))


class TestJacobianProbe:
    def test_acceptance_scale(self):
        result = jacobian_run(n=10, m=20, k=5, rho=0.1, trials=100, master_seed=5)
        assert result.per_rho[0]["pass_count"] >= 95
        assert {r.threshold for r in result.reports} == {25.0}

    def test_zero_support_counts_nothing(self):
        result = jacobian_run(n=6, m=8, k=0, rho=0.1, trials=3, master_seed=5)
        assert result.per_rho[0]["sigma"]["max"] == 0.0

    # A cut of tau_factor * rho = 0 counted rounding noise: 16 columns of
    # a rank-12 Jacobian, and all 36 of an all-zero one.
    @pytest.mark.parametrize("n, m, k, rho, tau_factor, want", [
        (4, 3, 2, 0.0, 0.1, 12.0), (4, 3, 2, 0.3, 0.0, 12.0), (6, 8, 0, 0.0, 0.1, 0.0)])
    def test_a_zero_cut_counts_the_rank(self, n, m, k, rho, tau_factor, want):
        result = jacobian_run(n=n, m=m, k=k, rho=rho, trials=3, master_seed=0,
                              tau_factor=tau_factor)
        assert [r.sigma for r in result.reports] == [want] * 3

    # At tau_factor 5 the cut of 1.5 leaves 10 to 16 of the 16 values.
    @pytest.mark.parametrize("tau_factor", [0.1, 5.0])
    def test_counts_equal_a_cut_at_tau_factor_times_rho(self, monkeypatch, tau_factor):
        params = {"n": 5, "m": 4, "k": 2, "tau_factor": tau_factor}
        config = cfg(target="jacobian_probe", params=params, rho_grid=[0.3], trials=6,
                     master_seed=3, threshold=0.0)
        counted = run_experiment(config)
        monkeypatch.setitem(TARGETS, "jacobian_probe", Target(
            TARGETS["jacobian_probe"].params, per_trial(per_trial_jacobian_probe)))
        assert counted.to_csv() == run_experiment(config).to_csv()

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
