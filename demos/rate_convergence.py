#!/usr/bin/env python3
"""
Convergence of the regularized regression-operator estimates on the
sequence-space model.

Runs the `gsir sim-rate` protocol: sweeps n at the theoretically optimal
epsilon = n^(-delta_opt), prints the median operator-norm errors for both
variants, and compares the fitted log-log slope against the predicted
exponent.
"""

from gsir.experiments import SimRateConfig, run_sim_rate
from gsir.rates import rate_bound_terms

ALPHA = 2.0
BETA = 1.0
N_GRID = (250, 500, 1000, 2000, 4000, 8000)
REPS = 20
BASE_SEED = 5


def main():
    config = SimRateConfig(base_seed=BASE_SEED, n_grid=N_GRID, replications=REPS,
                           alpha=ALPHA, beta=BETA)
    summary = run_sim_rate(config).summary
    (med,) = summary["by_delta"]
    print("=" * 72)
    print("Sequence-space rate check")
    print("=" * 72)
    print(f"alpha={ALPHA}, beta={BETA}, J={config.model.j_dim}, reps={REPS}, "
          f"seed={BASE_SEED}")
    print(f"theory: branch={summary['branch']}, delta_opt={summary['delta_opt']:.4f}, "
          f"rate exponent={summary['exponent_opt']:.4f}\n")

    print(f"{'n':>6} {'epsilon':>10} {'med |R1-R|':>12} {'med |R2-R_h|':>13} "
          f"{'med eta span':>13}")
    print("-" * 60)
    for n in N_GRID:
        print(f"{n:>6} {float(n) ** -med['delta']:>10.5f} "
              f"{med['median_err_r1'][n]:>12.5f} {med['median_err_r2'][n]:>13.5f} "
              f"{med['median_eta_span_err'][n]:>13.5f}")

    print("\nfitted slopes (log error vs log n):")
    print(f"  GSIR-I operator error : {med['slope_err_r1']:+.4f}  "
          f"(r2={med['r2_err_r1']:.4f}, theory {-summary['exponent_opt']:+.4f})")
    print(f"  GSIR-II predictor span: {med['slope_eta_span_err']:+.4f}  "
          f"(r2={med['r2_eta_span_err']:.4f})")

    # the non-asymptotic bound terms at one corner of the sweep
    n, eps = N_GRID[-1], float(N_GRID[-1]) ** -med["delta"]
    terms, total = rate_bound_terms(n, eps, ALPHA, BETA, variant="gsir1")
    print(f"\nbound terms at n={n}, eps={eps:.5f}: "
          + " + ".join(f"{t:.4f}" for t in terms) + f" = {total:.4f}")


if __name__ == "__main__":
    main()
