"""Sequence-space simulator for the regression-operator convergence theory.

Works directly with Karhunen-Loeve coordinates instead of kernels: the X
feature has independent coordinates zeta_j with variance lambda_j = j^-alpha,
and the Y feature is an exact linear image Zy = Zx R + Zu with a residual
whose covariance with Zx is exactly zero.  R = Lambda^beta S encodes the
smoothness coupling, so the population regression operators and their
eigenstructure are known in closed form and empirical estimates can be
compared against them at any (n, epsilon).
"""

import numpy as np
from dataclasses import dataclass
from functools import cached_property

from .linalg import (DEFAULT_CLAMP, NumericalError, inv_shift, inv_sqrt_shift,
                     operator_norm, symmetric_eigh)

S_KINDS = ("identity", "random")
RESIDUAL_KINDS = ("independent", "heteroscedastic")

_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class SpectralModel:
    """Population model: spectra, coupling, and the regression operators."""

    j_dim: int
    y_dim: int
    alpha: float
    beta: float
    alpha_u: float
    s_kind: str
    lambdas: np.ndarray      # (j_dim,) eigenvalues j^-alpha
    S: np.ndarray            # (j_dim, y_dim), operator norm 1
    R: np.ndarray            # Lambda^beta S
    Rprime: np.ndarray       # Lambda^(beta + 1/2) S
    noise_scales: np.ndarray  # (y_dim,) residual scales k^-alpha_u

    @cached_property
    def m_spectrum(self):
        """(d, mu, u) of M = R R^T: rank, descending eigenvalues and a 0, top-d vectors."""
        u, s, _ = np.linalg.svd(self.R, full_matrices=False)
        d = int(np.count_nonzero(s > DEFAULT_CLAMP * s[0]))
        return d, np.concatenate([s * s, [0.0]]), u[:, :d]


@dataclass(frozen=True)
class SpectralSample:
    """One simulated draw of n rows of coordinates."""

    n: int
    Zx: np.ndarray
    Zu: np.ndarray
    Zy: np.ndarray
    residual_kind: str


@dataclass(frozen=True)
class EmpiricalOps:
    """Column-centered second-moment estimates from one sample."""

    n: int
    sxx: np.ndarray
    sxy: np.ndarray
    sxu: np.ndarray


@dataclass(frozen=True)
class RegressionOps:
    """Regularized sample regression operators at one epsilon."""

    epsilon: float
    sxx: np.ndarray
    sxy: np.ndarray
    r1: np.ndarray        # (sxx + eps)^-1 sxy
    r2: np.ndarray        # (sxx + eps)^-1/2 sxy
    w: np.ndarray         # eigenvalues of sxx, clamped at 0
    v: np.ndarray         # the matching eigenvectors


@dataclass(frozen=True)
class ErrorRecord:
    """Operator-norm errors of one estimate against the population model."""

    epsilon: float
    err_r1: float
    err_r2: float
    err_m: float
    d: int
    proj_err: np.ndarray          # (d,) eigenprojection errors of m
    gap: np.ndarray               # (d,) population eigenvalue gaps delta_j
    bound_ok: np.ndarray          # (d,) proj_err_j <= 4 err_m / delta_j
    bound_applicable: np.ndarray  # (d,) False where delta_j == 0
    eta_span_err: float           # variant-2 predictor-span projection error


def build_model(j_dim, y_dim, alpha, beta, seed=0, s_kind="identity", alpha_u=2.0):
    """Construct the population model.

    s_kind 'identity' places an identity block in S (rank min(j_dim, y_dim));
    'random' draws a seeded Gaussian matrix rescaled to operator norm 1.
    """
    if j_dim < 1 or y_dim < 1:
        raise ValueError(f"dimensions must be positive, got j_dim={j_dim}, y_dim={y_dim}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not alpha_u > 1:
        raise ValueError(f"alpha_u must exceed 1, got {alpha_u}")
    if s_kind not in S_KINDS:
        raise ValueError(f"unknown s_kind {s_kind!r}; expected one of {S_KINDS}")
    lambdas = power_spectrum(alpha, j_dim)
    if s_kind == "identity":
        s = np.zeros((j_dim, y_dim))
        r = min(j_dim, y_dim)
        s[:r, :r] = np.eye(r)
    else:
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((j_dim, y_dim))
        s = s / operator_norm(s)
    r_op = (lambdas ** beta)[:, None] * s
    # Chained so that Rprime == sqrt(Lambda) R holds bitwise, not just in
    # exact arithmetic.
    rprime_op = np.sqrt(lambdas)[:, None] * r_op
    k = np.arange(1, y_dim + 1, dtype=float)
    return SpectralModel(j_dim=j_dim, y_dim=y_dim, alpha=float(alpha),
                         beta=float(beta), alpha_u=float(alpha_u), s_kind=s_kind,
                         lambdas=lambdas, S=s, R=r_op, Rprime=rprime_op,
                         noise_scales=k ** -alpha_u)


def simulate_sample(model, n, seed, residual_kind="independent"):
    """Draw n rows: Zx from the spectrum, Zy = Zx R + Zu exactly.

    Draw order is fixed (coordinate noise first, residual noise second) so a
    seed determines the sample bit-for-bit.  Coordinates are sqrt(lambda_j)
    times uniform [-sqrt(3), sqrt(3)] scores: unit-variance, bounded.
    The 'heteroscedastic' residual multiplies each row's noise by
    (1 + e_1)/2, keeping the X-residual covariance exactly zero while making
    the residual variance depend on the first coordinate's score e_1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if residual_kind not in RESIDUAL_KINDS:
        raise ValueError(f"unknown residual_kind {residual_kind!r}; "
                         f"expected one of {RESIDUAL_KINDS}")
    rng = np.random.default_rng(seed)
    zx = rng.uniform(-_SQRT3, _SQRT3, size=(n, model.j_dim))
    zu = rng.uniform(-_SQRT3, _SQRT3, size=(n, model.y_dim)) * model.noise_scales
    if residual_kind == "heteroscedastic":
        zu = zu * (1.0 + zx[:, :1]) / 2.0
    zx *= np.sqrt(model.lambdas)     # the scores become coordinates in place
    zy = zx @ model.R + zu
    return SpectralSample(n=n, Zx=zx, Zu=zu, Zy=zy, residual_kind=residual_kind)


def empirical_operators(sample):
    """Column-centered covariance estimates Sxx, Sxy, Sxu from one sample.
    Zx stays uncentered: Zx^T [1, Zy - mean, Zu - mean] / n holds its means
    and both cross moments, and Sxx = Zx^T Zx / n - mean mean^T."""
    if sample.n < 2:
        raise ValueError(f"need n >= 2 to center columns, got {sample.n}")
    zx, n, k = sample.Zx, sample.n, sample.Zy.shape[1]
    cols = zx.T @ np.hstack([np.ones((n, 1)), sample.Zy - sample.Zy.mean(axis=0),
                             sample.Zu - sample.Zu.mean(axis=0)]) / n
    sxx = zx.T @ zx / n - np.outer(cols[:, 0], cols[:, 0])
    return EmpiricalOps(n=n, sxx=(sxx + sxx.T) / 2.0, sxy=cols[:, 1:k + 1],
                        sxu=cols[:, k + 1:])


def estimate_regression_ops(sample, epsilon):
    """Regularized regression-operator estimates at one epsilon."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    ops = empirical_operators(sample)
    # Both spectral functions share one eigendecomposition of sxx and act on
    # sxy directly, J^2 y_dim flops each.
    w, v = symmetric_eigh(ops.sxx)
    return RegressionOps(epsilon=float(epsilon), sxx=ops.sxx, sxy=ops.sxy,
                         r1=_apply(w, v, inv_shift(epsilon), ops.sxy),
                         r2=_apply(w, v, inv_sqrt_shift(epsilon), ops.sxy),
                         w=w, v=v)


def _apply(w, v, fn, a):
    """v fn(w) v^T a, without forming the J x J operator."""
    return v @ (fn(w)[:, None] * (v.T @ a))


def _orth_columns(a, d):
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size < d or not s[d - 1] > DEFAULT_CLAMP * s[0]:
        raise NumericalError(f"matrix has numerical rank below {d}")
    return u[:, :d]


def _largest_sine(ua, ub):
    """Sine of the largest principal angle between two orthonormal bases' spans."""
    smin = min(1.0, float(np.linalg.svd(ua.T @ ub, compute_uv=False)[-1]))
    return float(np.sqrt(max(0.0, 1.0 - smin * smin)))


def span_projection_error(a, b, d):
    """Operator-norm distance between the rank-d column-span projectors: the
    sine of the largest principal angle between the spans."""
    return _largest_sine(_orth_columns(np.asarray(a, float), d),
                         _orth_columns(np.asarray(b, float), d))


def error_report(model, ops):
    """Compare one estimate to the population operators.

    Eigenprojection errors are reported for j up to d = rank(R); gaps use
    the population spectrum of M = R R^T padded with its zero eigenvalue.
    bound_ok checks the perturbation inequality
    ||Phat_j - P_j|| <= 4 ||Mhat - M|| / delta_j, skipped where delta_j = 0.
    """
    err_r1 = operator_norm(ops.r1 - model.R)
    err_r2 = operator_norm(ops.r2 - model.Rprime)
    # ||m - M|| = ||D S^T + S D^T|| / 2, D = r1 - R (formed first: no
    # cancellation), S = r1 + R: a 2k x 2k eigenproblem from the QR of [D S].
    rds = np.linalg.qr(np.hstack([ops.r1 - model.R, ops.r1 + model.R]), mode="r")
    mid = rds[:, :model.y_dim] @ rds[:, model.y_dim:].T
    err_m = float(np.max(np.abs(np.linalg.eigvalsh(mid + mid.T)))) / 2.0

    # The top eigenvectors of m and m_prime are the left singular vectors
    # of r1 and r2; the rank-one projector difference is sin(angle).
    d, mu, vecs = model.m_spectrum
    vecs_hat = np.linalg.svd(ops.r1, full_matrices=False)[0][:, :d]
    c = np.minimum(1.0, np.abs(np.sum(vecs_hat * vecs, axis=0)))
    proj_err = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    gap = np.minimum(-np.diff(mu[:d + 1]),
                     np.concatenate([[np.inf], -np.diff(mu[:d])]))
    applicable = gap > 0.0
    bound_ok = applicable & (proj_err <= np.divide(
        4.0 * err_m, gap, out=np.full(d, np.inf), where=applicable))

    # Variant-2 sample predictor span: the half-inverted weighting applied to
    # the leading eigenvectors of m_prime, compared to the columns of R.
    eta_err = 0.0
    if d > 0:
        top = np.linalg.svd(ops.r2, full_matrices=False)[0][:, :d]
        eta_hat = _apply(ops.w, ops.v, inv_sqrt_shift(ops.epsilon), top)
        eta_err = _largest_sine(_orth_columns(eta_hat, d), vecs)   # vecs: R's basis

    return ErrorRecord(epsilon=ops.epsilon, err_r1=err_r1, err_r2=err_r2,
                       err_m=err_m, d=d, proj_err=proj_err, gap=gap,
                       bound_ok=bound_ok, bound_applicable=applicable,
                       eta_span_err=eta_err)


def power_spectrum(alpha, j_dim):
    """The truncated spectrum lambda_j = j^-alpha, j = 1..j_dim."""
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1 for a summable spectrum, got {alpha}")
    if j_dim < 1:
        raise ValueError(f"j_dim must be positive, got {j_dim}")
    return np.arange(1, j_dim + 1, dtype=float) ** -alpha


def lemma_alpha_sum(lambdas, epsilon):
    """sum_j lambda_j / (lambda_j + epsilon), the effective dimension.

    For lambda_j = j^-alpha this grows like epsilon^(-1/alpha) as epsilon
    decreases.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("lambdas must be a nonempty 1-d sequence")
    if np.any(lam < 0):
        raise ValueError("lambdas must be nonnegative")
    return float(np.sum(lam / (lam + epsilon)))


# Bernoulli numbers B_2, B_4, ..., B_14 of the Euler-Maclaurin corrections.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def hurwitz_zeta(s, a):
    """sum_{k >= 0} (a + k)^-s for s > 1, a > 0, by Euler-Maclaurin: 10 direct
    terms, then the integral, the half term and 7 Bernoulli corrections from
    a + 10 on.  Within a few ulp of `scipy.special.zeta(s, a)`."""
    m = a + 10
    tail = m ** (1 - s) / (s - 1) + m ** -s / 2
    t = s * m ** (-s - 1) / 2      # s (s+1) ... (s+2j-2) m^(1-s-2j) / (2j)!
    for j, b in enumerate(_BERNOULLI, start=1):
        tail += b * t
        t = t * (s + 2 * j - 1) / ((2 * j + 1) * m) * (s + 2 * j) / ((2 * j + 2) * m)
    return sum((a + k) ** -s for k in range(10)) + tail


def truncation_tail_fraction(alpha, j_dim):
    """Fraction of total spectrum mass sum j^-alpha lost beyond j_dim."""
    if not alpha > 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    return float(hurwitz_zeta(alpha, j_dim + 1) / hurwitz_zeta(alpha, 1))
