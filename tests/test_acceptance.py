"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Thresholds are fixed here, not calibrated at runtime.
"""

import itertools
import math
import time

import numpy as np

from liftcert import rng as _rng
from liftcert.harness import ExperimentConfig, run_experiment
from liftcert.powersum import (antisym_witnesses, make_power_sum_instance,
                               build_sym4_IkronA)
from liftcert.spectral import jacobian_khatri_rao, leave_one_out, singular_values
from liftcert.tensor_lift import kron_power, sel_avg, sym_lift
from liftcert.varieties import determinantal_operator, separable_generators
from oracles import sym_projector_matrix
from paper_tools import (BlockFamily, block_leave_one_out, decouple, decoupling_residual,
                         error_norm_bound, perturb, wellcond_column_subset)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_selector_spectrum():
    start = time.perf_counter()
    worst_low, worst_high = 1.0, 1.0
    for m in range(1, 5):
        for d in range(1, 4):
            s = np.linalg.svd(sel_avg(m, d), compute_uv=False)
            floor = 1.0 / math.sqrt(math.factorial(d))
            worst_low = min(worst_low, float(s.min()) - floor)
            worst_high = max(worst_high, float(s.max()))
    elapsed = time.perf_counter() - start
    ok = worst_low >= -1e-9 and worst_high <= 1.0 + 1e-9 and elapsed < 1.0
    report(1, ok, f"selector spectrum in window for m<=4, d<=3 "
                  f"(slack {worst_low:.2e}, max {worst_high:.12f}, {elapsed:.2f}s)")


def test_criterion_02_lift_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        U = rng.standard_normal((n, m))
        resid = np.linalg.norm(kron_power(U, d) @ sel_avg(m, d) - sym_lift(U, d).data)
        worst = max(worst, resid)
    report(2, worst <= 1e-10, f"kron power through selector equals lift on 50 "
                              f"instances (max residual {worst:.2e})")


def test_criterion_03_leave_one_out_sandwiches():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        U = rng.standard_normal((8, 4))
        ell = leave_one_out(U)
        smin = float(singular_values(U)[-1])
        worst = max(worst, ell / 2.0 - smin, smin - ell)
    worst_block = 0.0
    for _ in range(200):
        blocks = [rng.standard_normal((8, 2)) for _ in range(3)]
        ell = block_leave_one_out(BlockFamily(blocks))
        smin = float(singular_values(np.hstack(blocks))[-1])
        worst_block = max(worst_block, ell / math.sqrt(3) - smin, smin - ell)
    ok = worst <= 1e-10 and worst_block <= 1e-10
    report(3, ok, f"sandwiches hold on 200 + 200 instances "
                  f"(margins {worst:.2e}, {worst_block:.2e})")


def test_criterion_04_column_subset_guarantee():
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(100):
        A = rng.standard_normal((6, 12))
        S = wellcond_column_subset(A, 4)
        bound = float(singular_values(A)[3]) / (2.0 * math.sqrt(12 * 4))
        if float(singular_values(A[:, S])[3]) < bound:
            violations += 1
    report(4, violations == 0,
           f"subset conditioning bound held on 100/100 instances "
           f"({violations} violations)")


def test_criterion_05_decoupling_identity_and_error_envelope():
    rng = np.random.default_rng(5)
    worst_resid = 0.0
    envelope_ok = True
    for d in (2, 3):
        psi = sym_projector_matrix(4, d)
        for t in range(50):
            base = rng.standard_normal((4, 2))
            rho = float(rng.choice([0.05, 0.1, 0.3, 0.5]))
            sm = perturb(base, rho, seed=50 * d + t)
            dec = decouple(sm, d)
            worst_resid = max(worst_resid, decoupling_residual(sm, dec, psi))
            if np.linalg.norm(dec.error) > error_norm_bound(dec, base, rho):
                envelope_ok = False
    ok = worst_resid <= 1e-9 and envelope_ok
    report(5, ok, f"decoupling identity residual {worst_resid:.2e} <= 1e-9 and "
                  f"frozen error envelope never violated over 2x50 trials")


THM51_PARAMS = {"n": 10, "m": 2, "d": 2, "delta": 0.5, "base": "zero"}


def test_criterion_06_projected_lift_least_singular_value():
    config = ExperimentConfig(target="thm51", params=THM51_PARAMS,
                              rho_grid=[0.1], trials=100, master_seed=2024,
                              threshold=1e-6)
    passes = run_experiment(config).per_rho[0]["pass_count"]
    adv = ExperimentConfig(target="thm51",
                           params={**THM51_PARAMS, "base": "duplicated"},
                           rho_grid=[1e-300], trials=10, master_seed=2024,
                           threshold=1e-6)
    adv_max = max(r.sigma for r in run_experiment(adv).reports)
    ok = passes >= 99 and adv_max <= 1e-10
    report(6, ok, f"random projector lift: {passes}/100 trials >= 1e-6; "
                  f"degenerate base max sigma {adv_max:.2e}")


def test_criterion_07_rho_scaling():
    config = ExperimentConfig(target="thm51", params=THM51_PARAMS,
                              rho_grid=[0.02, 0.05, 0.1, 0.2, 0.5],
                              trials=100, master_seed=2024, threshold=1e-6,
                              study="scaling")
    flags = run_experiment(config).extras["scaling"]
    ok = flags["median_nondecreasing"] and flags["envelope_ok"]
    report(7, ok, f"median sigma nondecreasing={flags['median_nondecreasing']}, "
                  f"envelope rho^2/n^6 ok={flags['envelope_ok']}, "
                  f"slope={flags['loglog_slope']:.3f}")


def test_criterion_08_certification():
    config = ExperimentConfig(target="certify",
                              params={"variety": "determinantal:4,4,1", "m": 3},
                              rho_grid=[0.1], trials=100, master_seed=88,
                              threshold=1e-7)
    passes = run_experiment(config).per_rho[0]["pass_count"]

    planted = ExperimentConfig(target="certify",
                               params={"variety": "determinantal:4,4,1",
                                       "m": 3, "planted": True},
                               rho_grid=[0.1], trials=20, master_seed=88,
                               threshold=1e-7)
    planted_max = max(r.sigma for r in run_experiment(planted).reports)

    counts_ok = True
    for n1, n2 in itertools.product(range(2, 6), repeat=2):
        for r in range(1, min(n1, n2)):
            if r > 2:
                continue
            got = determinantal_operator(n1, n2, r).p
            counts_ok &= got == math.comb(n1, r + 1) * math.comb(n2, r + 1)
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (3, 3, 2)]:
        N = math.prod(dims)
        expected = math.comb(N + 1, 2) - math.prod(math.comb(x + 1, 2) for x in dims)
        counts_ok &= len(separable_generators(dims)) == expected

    ok = passes >= 95 and planted_max <= 1e-10 and counts_ok
    report(8, ok, f"certificates: {passes}/100 >= 1e-7, planted max eta "
                  f"{planted_max:.2e}, generator counts exact={counts_ok}")


def test_criterion_09_build_sym4_IkronA_rank_oracle():
    n, m, rho = 4, 3, 0.1
    want_rank = m * math.comb(n + 1, 2) - math.comb(m, 2)
    rank_ok = witness_ok = 0
    for t in range(50):
        inst = make_power_sum_instance(n, m, rho,
                                       seed=_rng.derive_seed(99, "trial", t))
        M = build_sym4_IkronA(inst)
        s = singular_values(M)
        rank_ok += int(np.count_nonzero(s >= 1e-8)) == want_rank
        witness_ok += float(
            np.linalg.norm(M @ antisym_witnesses(inst), axis=0).max()) <= 1e-8
    ok = rank_ok == 50 and witness_ok == 50
    report(9, ok, f"merged block rank == {want_rank} in {rank_ok}/50 and "
                  f"antisymmetric witnesses annihilated in {witness_ok}/50")


def test_criterion_10_pair_space_and_layered_builders():
    runs = {
        "lemma74": {"n": 4, "m": 3},
        "prop72": {"n": 6, "m": 2, "ell": 2},
        "claim77": {"n": 4, "m": 3},
    }
    results = {}
    for target, params in runs.items():
        config = ExperimentConfig(target=target, params=params, rho_grid=[0.1],
                                  trials=50, master_seed=99, threshold=1e-8)
        results[target] = run_experiment(config).per_rho[0]["pass_count"]
    ok = all(v >= 48 for v in results.values())
    report(10, ok, "sigma_min >= 1e-8 pass counts: " +
           ", ".join(f"{k} {v}/50" for k, v in results.items()))


def test_criterion_11_block_lift():
    config = ExperimentConfig(target="conj81",
                              params={"n": 8, "m": 2, "s": 2, "d": 2},
                              rho_grid=[0.2], trials=100, master_seed=31,
                              threshold=1e-6)
    passes = run_experiment(config).per_rho[0]["pass_count"]
    control = ExperimentConfig(target="conj81",
                               params={"n": 8, "m": 2, "s": 2, "d": 2,
                                       "control": "duplicate"},
                               rho_grid=[0.2], trials=5, master_seed=31,
                               threshold=1e-6)
    control_max = max(r.sigma for r in run_experiment(control).reports)
    ok = passes >= 95 and control_max <= 1e-10
    report(11, ok, f"block lift: {passes}/100 >= 1e-6; duplicated-subspace "
                   f"control max sigma {control_max:.2e}")


def test_criterion_12_power_coefficient_matrix():
    dim, r = 3, 2
    N = 2 * r * math.comb(dim + r - 1, r)
    config = ExperimentConfig(target="conj82",
                              params={"dim": dim, "r": r, "N": N},
                              rho_grid=[0.1], trials=100, master_seed=32,
                              threshold=1e-6)
    passes = run_experiment(config).per_rho[0]["pass_count"]
    report(12, passes >= 99,
           f"power matrix with N={N} rows: {passes}/100 >= 1e-6")


def test_criterion_13_jacobian_probe():
    config = ExperimentConfig(target="jacobian_probe",
                              params={"n": 10, "m": 20, "k": 5, "tau_factor": 0.1},
                              rho_grid=[0.1], trials=100, master_seed=33, threshold=0.0)
    passes = run_experiment(config).per_rho[0]["pass_count"]
    rng = np.random.default_rng(13)
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
    fd_rel = np.linalg.norm(J - fd) / np.linalg.norm(J)
    ok = passes >= 95 and fd_rel <= 1e-6
    report(13, ok, f"jacobian probe {passes}/100 with >= 25 values "
                   f">= 0.01; finite-difference relative error {fd_rel:.2e}")


def test_criterion_14_reproducibility():
    config = ExperimentConfig(target="certify",
                              params={"variety": "determinantal:4,4,1", "m": 3},
                              rho_grid=[0.1], trials=10, master_seed=77,
                              threshold=1e-7)
    first = run_experiment(config)
    second = run_experiment(config)
    ok = first.to_csv() == second.to_csv() and first.summary() == second.summary()
    report(14, ok, "rerun with identical config+seed produced byte-identical "
                   "CSV and summary")
