"""Closed-form convergence-rate calculator and log-log slope fitting.

The operator-norm error of the regularized regression estimates is bounded
by a four-term expression in (n, epsilon) whose exponents depend on the
spectrum decay alpha and the coupling smoothness beta.  Balancing the terms
at epsilon = n^-delta gives an optimal delta and an optimal rate n^-rho;
the formulas switch branches at beta = (alpha - 1) / (2 alpha), continuously.
"""

import numpy as np
from dataclasses import dataclass

# The two regularized inverse-regression variants (`gsir.estimator`).
VARIANTS = ("gsir1", "gsir2")


@dataclass(frozen=True)
class RateTheory:
    """Optimal tuning exponent and rate exponent for one (alpha, beta)."""

    branch: str          # 'smooth' above the threshold, 'rough' at or below
    delta_opt: float     # epsilon = n^-delta_opt
    exponent_opt: float  # error = n^-exponent_opt


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log n, log error)."""

    slope: float
    r_squared: float


def _check_alpha_beta(alpha, beta):
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")


def optimal_rate_theory(alpha, beta):
    """Optimal regularization exponent delta and rate exponent rho.

    Above the threshold beta > (alpha - 1) / (2 alpha) the variance terms
    bind and delta = alpha / (2 alpha min(beta, 1) + alpha + 1) with
    rho = alpha min(beta, 1) / (2 alpha min(beta, 1) + alpha + 1); at or
    below it the n^-1/2 term binds, delta = 1/2 and rho = beta / 2.  The two
    branches agree exactly at the threshold.
    """
    _check_alpha_beta(alpha, beta)
    threshold = (alpha - 1.0) / (2.0 * alpha)
    bc = min(beta, 1.0)
    if beta > threshold:
        denom = 2.0 * alpha * bc + alpha + 1.0
        return RateTheory(branch="smooth", delta_opt=alpha / denom,
                          exponent_opt=alpha * bc / denom)
    return RateTheory(branch="rough", delta_opt=0.5, exponent_opt=beta / 2.0)


def rate_bound_terms(n, epsilon, alpha, beta, variant="gsir1"):
    """Evaluate the error-bound terms at one (n, epsilon).

    Returns (terms, total).  For variant 'gsir1' the four terms are

      n^-1/2 eps^(min(beta,1) - 1),  eps^min(beta,1),
      n^-1 eps^(-(3 alpha + 1)/(2 alpha)),  n^-1/2 eps^(-(alpha + 1)/(2 alpha));

    'gsir2' replaces beta by beta + 1/2 in the first two and uses the lighter
    exponents -1 - 1/(2 alpha) and -1/(2 alpha) in the last two.
    """
    _check_alpha_beta(alpha, beta)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    n = float(n)
    if variant == "gsir1":
        b = min(beta, 1.0)
        e3 = -(3.0 * alpha + 1.0) / (2.0 * alpha)
        e4 = -(alpha + 1.0) / (2.0 * alpha)
    else:
        b = min(beta + 0.5, 1.0)
        e3 = -1.0 - 1.0 / (2.0 * alpha)
        e4 = -1.0 / (2.0 * alpha)
    try:
        terms = np.array([epsilon ** (b - 1.0) / np.sqrt(n), epsilon ** b,
                          epsilon ** e3 / n, epsilon ** e4 / np.sqrt(n)])
    except OverflowError:
        raise ValueError(f"a bound term overflows at epsilon={epsilon:.3g}") from None
    return terms, float(terms.sum())


def fit_loglog_slope(ns, errors):
    """OLS slope of log(error) against log(n).

    Needs at least 3 points, positive throughout.  r_squared is reported as
    1.0 for a degenerate zero-variance response (the line is exact).
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.shape != errors.shape or ns.ndim != 1:
        raise ValueError(f"ns and errors must be 1-d of equal length, got "
                         f"{ns.shape} and {errors.shape}")
    if ns.size < 3:
        raise ValueError(f"need at least 3 points for a slope, got {ns.size}")
    if not (np.all(ns > 0) and np.all(errors > 0)):
        raise ValueError("log-log fit requires strictly positive ns and errors")
    x = np.log(ns)
    y = np.log(errors)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(coeffs[0]), r_squared=float(r2))
