"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every criterion is deterministic (seeded); the printed line carries the
measured quantities so a failure is diagnosable from the log alone.
"""

import json
import time

import numpy as np
import pytest

from gsir.cli import main
from gsir.estimator import fit_gsir1, fit_gsir2
from gsir.experiments import derive_seed, parse_config, run_kernel_recovery
from gsir.kernels import KernelSpec, centered_gram
from gsir.linalg import operator_norm, spectral_apply
from gsir.rates import fit_loglog_slope, optimal_rate_theory
from gsir.seqsim import (build_model, empirical_operators, error_report,
                         estimate_regression_ops, lemma_alpha_sum,
                         power_spectrum, simulate_sample)
from reference_oracle import inv_shift, inv_sqrt_shift, sqrt

RATE_N_GRID = (250, 500, 1000, 2000, 4000, 8000)
RATE_DELTA = 2.0 / 7.0
RATE_REPS = 20
RATE_SEED = 5


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


@pytest.fixture(scope="module")
def rate_protocol():
    # shared by criteria 2, 3 and 5: alpha=2, beta=1, J=200, rank-2 identity
    # S, epsilon = n^(-2/7), 20 replications per n
    t0 = time.perf_counter()
    model = build_model(200, 2, alpha=2.0, beta=1.0, s_kind="identity", seed=0)
    records = {}
    for n in RATE_N_GRID:
        eps = float(n) ** (-RATE_DELTA)
        recs = []
        for rep in range(RATE_REPS):
            sample = simulate_sample(model, n, derive_seed(RATE_SEED, n, rep))
            recs.append(error_report(model, estimate_regression_ops(sample, eps)))
        records[n] = recs
    elapsed = time.perf_counter() - t0
    return {"model": model, "records": records, "elapsed": elapsed}


def test_criterion_01_residual_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        kind = "independent" if i % 2 == 0 else "heteroscedastic"
        model = build_model(int(rng.integers(3, 40)), int(rng.integers(1, 5)),
                            alpha=float(rng.uniform(1.2, 3.5)),
                            beta=float(rng.uniform(0.3, 1.5)),
                            seed=int(rng.integers(0, 10_000)),
                            s_kind="identity" if i % 4 < 2 else "random")
        sample = simulate_sample(model, int(rng.integers(2, 300)),
                                 seed=int(rng.integers(0, 10_000)),
                                 residual_kind=kind)
        ops = empirical_operators(sample)
        resid = operator_norm(ops.sxy - ops.sxu - ops.sxx @ model.R)
        worst = max(worst, resid / operator_norm(ops.sxy))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12 and elapsed < 5.0,
            f"worst relative residual {worst:.2e} (<= 1e-12), {elapsed:.1f}s")


def test_criterion_02_gsir1_rate(rate_protocol):
    meds = [float(np.median([r.err_r1 for r in rate_protocol["records"][n]]))
            for n in RATE_N_GRID]
    fit = fit_loglog_slope(RATE_N_GRID, meds)
    ok = (abs(fit.slope + RATE_DELTA) <= 0.08 and fit.r_squared >= 0.95
          and rate_protocol["elapsed"] < 180.0)
    _report(2, ok, f"slope {fit.slope:.4f} (target {-RATE_DELTA:.4f} +- 0.08), "
            f"r2 {fit.r_squared:.4f}, {rate_protocol['elapsed']:.1f}s")


def test_criterion_03_gsir2_matches_gsir1(rate_protocol):
    meds_r1 = [float(np.median([r.err_r1 for r in rate_protocol["records"][n]]))
               for n in RATE_N_GRID]
    meds_eta = [float(np.median([r.eta_span_err for r in rate_protocol["records"][n]]))
                for n in RATE_N_GRID]
    s1 = fit_loglog_slope(RATE_N_GRID, meds_r1).slope
    s2 = fit_loglog_slope(RATE_N_GRID, meds_eta).slope
    _report(3, abs(s2 - s1) <= 0.1,
            f"predictor-span slope {s2:.4f} vs GSIR-I {s1:.4f}, diff {abs(s2 - s1):.4f} (<= 0.1)")


def test_criterion_04_optimal_delta_shape():
    model = build_model(200, 2, alpha=2.0, beta=1.0, s_kind="identity", seed=0)
    deltas = [round(0.10 + 0.05 * k, 2) for k in range(9)]
    medians = []
    for delta in deltas:
        eps = 4000.0 ** (-delta)
        errs = [error_report(model, estimate_regression_ops(
                    simulate_sample(model, 4000, derive_seed(13, 4000, rep)), eps)).err_r1
                for rep in range(RATE_REPS)]
        medians.append(float(np.median(errs)))
    best = deltas[int(np.argmin(medians))]
    _report(4, abs(best - RATE_DELTA) <= 0.05 + 1e-9,
            f"argmin delta {best:.2f} vs 2/7 ~ {RATE_DELTA:.3f} (within one 0.05 step)")


def test_criterion_05_eigenprojection_bound(rate_protocol):
    checked = holds = 0
    for recs in rate_protocol["records"].values():
        for rec in recs:
            for j in range(rec.d):
                if rec.bound_applicable[j]:
                    checked += 1
                    holds += int(rec.bound_ok[j])
    _report(5, checked > 0 and holds == checked,
            f"bound held for {holds}/{checked} (replication, j) pairs with positive gap")


def test_criterion_06_lemma_alpha_slope():
    eps_grid = (1e-2, 1e-3, 1e-4, 1e-5)
    detail = []
    ok = True
    for alpha in (1.5, 2.0, 3.0):
        lam = power_spectrum(alpha, 10 ** 5)
        sums = [lemma_alpha_sum(lam, eps) for eps in eps_grid]
        slope = fit_loglog_slope(eps_grid, sums).slope
        dev = abs(slope + 1.0 / alpha)
        ok = ok and dev <= 0.1
        detail.append(f"alpha {alpha:g}: slope {slope:.4f} vs {-1.0 / alpha:.4f} (dev {dev:.4f})")
    _report(6, ok, "; ".join(detail))


def test_criterion_07_theory_calculator():
    t1 = optimal_rate_theory(3.0, 1.0)
    t2 = optimal_rate_theory(2.0, 0.2)
    t3 = optimal_rate_theory(50.0, 1.0)
    exact = (t1.delta_opt == 0.3 and t1.exponent_opt == 0.3
             and t2.delta_opt == 0.5 and t2.exponent_opt == 0.1
             and t3.delta_opt == 50.0 / 151.0 and t3.exponent_opt == 50.0 / 151.0)
    worst = 0.0
    for alpha in (1.5, 2.0, 5.0, 10.0):
        bstar = (alpha - 1.0) / (2.0 * alpha)
        th = optimal_rate_theory(alpha, bstar)
        denom = 2.0 * alpha * bstar + alpha + 1.0
        worst = max(worst, abs(th.delta_opt - alpha / denom),
                    abs(th.exponent_opt - alpha * bstar / denom))
    _report(7, exact and worst <= 1e-12,
            f"tabulated examples exact: {exact}; branch mismatch at threshold {worst:.2e} (<= 1e-12)")


def test_criterion_08_kernel_recovery():
    doc = {
        "schema_version": 1,
        "mode": "kernel_recovery",
        "base_seed": 29,
        "n_grid": [200, 500, 1000],
        "replications": 20,
        "dataset": {"model": "m3_symmetric", "p": 5, "sigma_noise": 0.2},
        "epsilon": 1e-3,
        "d": 1,
        "n_test": 500,
    }
    t0 = time.perf_counter()
    report = run_kernel_recovery(parse_config(doc, "kernel-recovery"))
    elapsed = time.perf_counter() - t0
    detail = []
    ok = elapsed < 120.0
    for variant in ("gsir1", "gsir2"):
        med = report.summary["by_variant"][variant]["median_max_cancor"]
        mono = report.summary["by_variant"][variant]["cancor_monotone_nondecreasing"]
        ok = ok and med[500] >= 0.9 and mono
        detail.append(f"{variant}: median cancor(500) {med[500]:.4f} (>= 0.9), "
                      f"monotone {med[200]:.3f}/{med[500]:.3f}/{med[1000]:.3f}: {mono}")
    _report(8, ok, "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_09_operator_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_round = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 101))
        a = rng.standard_normal((k, k))
        m = a.T @ a
        root = spectral_apply(m, sqrt())
        worst_round = max(worst_round, operator_norm(root @ root - m) / operator_norm(m))
        eps = float(rng.uniform(1e-4, 1.0))
        b = spectral_apply(m, inv_shift(eps))
        worst_round = max(worst_round,
                          operator_norm((m + eps * np.eye(k)) @ b - np.eye(k)))
        q = spectral_apply(m, inv_sqrt_shift(eps))
        worst_round = max(worst_round, operator_norm(q @ q - b) / operator_norm(b))

    # normalization lives on the eigenvector-derived coefficients: the stored
    # C for variant one, the pre-transform A = T^(1/2) C for variant two
    rng = np.random.default_rng(78)
    worst_norm = 0.0
    for i in range(20):
        n = int(rng.integers(12, 40))
        x = rng.standard_normal((n, int(rng.integers(1, 4))))
        y = np.sin(x[:, :1]) + 0.2 * rng.standard_normal((n, 1))
        kx = KernelSpec("gaussian", float(rng.uniform(0.2, 1.5)))
        ky = KernelSpec("gaussian", 0.5)
        d = int(rng.integers(1, 4))
        eps = float(rng.uniform(1e-4, 1e-1))
        gx = centered_gram(kx, x)
        if i % 2 == 0:
            c = fit_gsir1(x, y, kx, ky, eps, d).coefficients
        else:
            fit = fit_gsir2(x, y, kx, ky, eps, d)
            t_half = spectral_apply(gx / n + eps * np.eye(n), sqrt())
            c = t_half @ fit.coefficients
        worst_norm = max(worst_norm, float(np.max(np.abs(c.T @ gx @ c - np.eye(d)))))
    elapsed = time.perf_counter() - t0
    _report(9, worst_round <= 1e-8 and worst_norm <= 1e-6 and elapsed < 10.0,
            f"round-trip {worst_round:.2e} (<= 1e-8), normalization {worst_norm:.2e} (<= 1e-6), "
            f"{elapsed:.1f}s")


def test_criterion_10_deterministic_csv(tmp_path):
    docs = {
        "sim": {"schema_version": 1, "mode": "sim_rate", "base_seed": 11,
                "n_grid": [40, 80], "replications": 2, "alpha": 2.0,
                "beta": 1.0, "delta": "optimal", "model": {"j_dim": 12, "y_dim": 2}},
        "rec": {"schema_version": 1, "mode": "kernel_recovery", "base_seed": 5,
                "n_grid": [40, 60], "replications": 2,
                "dataset": {"model": "m3_symmetric", "p": 2, "sigma_noise": 0.1},
                "epsilon": 1e-3, "d": 1, "n_test": 100},
        "thy": {"schema_version": 1, "mode": "theory_table",
                "grid": [[3.0, 1.0], [2.0, 0.2], [50.0, 1.0]]},
    }
    commands = {"sim": "sim-rate", "rec": "kernel-recovery", "thy": "theory"}
    ok = True
    detail = []
    for name, doc in docs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.csv"
            argv = [commands[name], "--config", str(cfg), "--out", str(out)]
            if name == "sim" and run == 1:
                argv += ["--threads", "2"]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        same = outs[0] == outs[1]
        ok = ok and same
        detail.append(f"{commands[name]}: {'identical' if same else 'DIFFER'}")
    _report(10, ok, "; ".join(detail))
