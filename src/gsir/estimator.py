"""Kernel inverse-regression estimators for nonlinear dimension reduction.

Both variants look for unit-norm directions phi in the (centered) RKHS of X
that maximize the squared image under a regularized regression operator:

  variant 1:  (Sxx + eps I)^(-1)   Sxy  applied twice  (inverse weighting)
  variant 2:  (Sxx + eps I)^(-1/2) Sxy  applied twice  (half weighting);
              the reported predictors are the eigenfunctions pushed through
              (Sxx + eps I)^(-1/2) once more.

With n training points and T = Gx/n + eps I on centered Gram matrices, no
n x n matrix is decomposed.  Pivoted Cholesky (LAPACK dpstrf, stopping at
n * ulp * max diagonal) factors Gx ~ Fx Fx^T (n x r) and Gy ~ F F^T (n x r_y).
The solve lives on the range of Fx, the numerical range of Gx, so every
eigenvalue mu beyond r is exactly 0.  With Fx = Qx Rx (Householder QR),
G = Qx^T F, E = Rx^T G / n and S = Rx^T Rx / n + eps I = L L^T, the mu are
the eigenvalues of the r_y x r_y matrix B^T B, B = S^-1 E (variant 1) or
L^-1 E (variant 2).  An eigenvector q gives p = B q / sqrt(mu), h = S^-1 E q
/ sqrt(mu) and c = Qx Rx^-T h, which is T^-1 P F q / (n sqrt(mu)) with P the
projection onto the range of Fx.  Dividing by |p| gives c' Gx c = 1 (variant
1) or c' Gx T c = 1 (variant 2).  The triangular solve keeps its accuracy for
any eps; the Woodbury form (G q / sqrt(mu) - Rx h) / (eps n) of the same c
cancels digits as eps / |Gx / n| approaches rounding.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg.blas import dsyrk, dtrmm, dtrsm
from scipy.linalg.lapack import (dgeqrf, dgeqrf_lwork, dormqr, dpotrf, dpstrf,
                                 dsyevd)

from .kernels import KernelSpec, centered_gram, gram_matrix, _as_points
from .linalg import DEFAULT_CLAMP, NumericalError

VARIANTS = ("gsir1", "gsir2")

# Eigenvalue gap below which the d-th predictor is not well separated from
# the next direction and the fit carries an ambiguity warning.
GAP_TOL = 1e-10

# Rows per cross-Gram block in evaluate_predictors (memory _BLOCK x n).
_BLOCK = 1024


@dataclass(frozen=True)
class GsirFit:
    """A fitted set of d kernel predictors.

    coefficients holds one column per predictor; predictor j evaluated at a
    new point x is sum_i C[i, j] * (k(x, X_i) - mean_l k(x, X_l)).
    """

    variant: str
    train_points: np.ndarray
    kernel_x: KernelSpec
    kernel_y: KernelSpec
    epsilon: float
    d: int
    coefficients: np.ndarray
    eigenvalues: np.ndarray
    warnings: tuple = field(default_factory=tuple)


def _check_inputs(x, y, epsilon, d):
    x = _as_points(x, "x")
    y = _as_points(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"x and y have different sample sizes: "
                         f"{x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"d must satisfy 1 <= d <= n - 1 = {n - 1}, got {d}")
    return x, y


def _factor(g):
    """(c, piv) with g[piv][:, piv] ~ c c^T, c n x r lower trapezoidal; the
    symmetric g is factored in its own memory (g.T is Fortran ordered).  A
    centered Gram can keep all r = n columns, singular as centering is: every
    laplace one, and gaussian Gx in 25 of the README recovery config's 60
    (n, rep) cells.  Capping r at n - 1 would change recovery.csv."""
    if not np.all(np.isfinite(g)):
        raise NumericalError("centered Gram matrix contains non-finite entries")
    c, piv, r, _ = dpstrf(g.T, lower=1, tol=-1, overwrite_a=1)
    for j in range(1, r):
        c[:j, j] = 0.0
    return c[:, :r], piv - 1


def _apply_q(qr, tau, c, trans):
    """Qx c (trans "N") or Qx^T c ("T") in c's memory, blocked workspace."""
    lwork = int(dormqr("L", trans, qr, tau, c, -1)[1][0])
    return dormqr("L", trans, qr, tau, c, lwork, overwrite_c=1)[0]


def _solve(x, y, kernel_x, kernel_y, epsilon, variant, d=None):
    """The eigenproblem on the range of Fx, of rank r.  With d None: the n
    eigenvalues mu, descending, 0 beyond r.  Else (coefficients, mu[:d],
    warnings) of the top d predictors; a d above r is refused before the QR.
    Gy is factored first, so only its factor is alive beside Gx; Rx is freed
    before the 2 r_y^2 eigensolve workspace."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    f, piv_y = _factor(centered_gram(kernel_y, y))
    f = f.copy(order="F")      # frees Gy's n x n
    fx, piv = _factor(centered_gram(kernel_x, x))
    n, r = fx.shape
    if d is not None and d > r:
        raise NumericalError(f"d={d} exceeds the numerical rank {r} of the "
                             f"centered Gram matrix; the achievable d is {r}")
    if r == 0:     # Gx = 0: nothing to fit, every mu is 0
        return np.zeros(n)
    qr, tau, _, _ = dgeqrf(fx, lwork=int(dgeqrf_lwork(n, r)[0]), overwrite_a=1)
    # F with rows in x's pivot order (one zero column if Gy = 0), then G
    f = f.T[:, np.argsort(piv_y)[piv]].T if f.shape[1] else np.zeros((n, 1))
    g = np.asfortranarray(_apply_q(qr, tau, f, "T")[:r])
    del f
    rx = np.tril(qr[:r].T).T    # Rx, Fortran ordered: a copy even when qr[:r] is qr
    s = dsyrk(1.0 / n, rx, trans=1, lower=1)
    s[np.diag_indices(r)] += epsilon
    l, info = dpotrf(s, lower=1, overwrite_a=1)
    if info:
        raise NumericalError(f"Cholesky factorization of S failed (info={info})")
    b = dtrsm(1.0, l, dtrmm(1.0 / n, rx, g, trans_a=1), lower=1, overwrite_b=1)
    del rx
    if variant == "gsir1":     # S^-1 E = L^-T L^-1 E
        b = dtrsm(1.0, l, b, lower=1, trans_a=1, overwrite_b=1)
    bb = dsyrk(1.0, b, trans=1, lower=1)
    del b
    mu, q, info = dsyevd(bb, lower=1, overwrite_a=1)
    if info:
        raise NumericalError(f"eigendecomposition of B^T B failed (info={info})")
    mu = np.maximum(mu[::-1][:r], 0.0)   # B (r x r_y) has rank at most r
    mu, q = np.concatenate([mu, np.zeros(n - len(mu))]), q[:, ::-1]
    if d is None:
        return mu
    warnings = []
    if mu[d - 1] - mu[d] < GAP_TOL:
        warnings.append(f"eigenvalue gap mu_{d} - mu_{d + 1} = "
                        f"{mu[d - 1] - mu[d]:.3e} is below {GAP_TOL:.0e}; "
                        f"the d-th predictor is not uniquely determined")
    k = min(d, int(np.count_nonzero(mu > DEFAULT_CLAMP * mu[0])))
    rx = np.asfortranarray(qr[:r])      # BLAS reads Rx from the upper triangle
    # h = S^-1 E q / sqrt(mu); p = B q / sqrt(mu) is h (variant 1) or L^T h
    e = dtrmm(1.0 / n, rx, g @ (q[:, :k] / np.sqrt(mu[:k])), trans_a=1)
    h = dtrsm(1.0, l, dtrsm(1.0, l, e, lower=1), lower=1, trans_a=1)
    p = h if variant == "gsir1" else dtrmm(1.0, l, h, lower=1, trans_a=1)
    if k < d:
        # mu = 0 here: complete p orthonormally with the images of a = e_j,
        # the leading columns of Qx, and map the new columns back to h
        img = np.triu(rx[:d]).T
        img = img if variant == "gsir1" else dtrmm(1.0, l, img, lower=1, trans_a=1)
        fill = np.linalg.qr(np.column_stack([p, img]))[0][:, k:d]
        hf = fill if variant == "gsir1" else dtrsm(1.0, l, fill, lower=1, trans_a=1)
        h, p = np.column_stack([h, hf]), np.column_stack([p, fill])
    norm = np.linalg.norm(p, axis=0)
    out = np.zeros((n, 2 * d), order="F")      # Qx [Rx^-T h, Rx h] = [c, Gx c]
    out[:r, :d] = dtrsm(1.0, rx, h, trans_a=1) / norm
    out[:r, d:] = dtrmm(1.0, rx, h) / norm
    out = _apply_q(qr, tau, out, "N")[np.argsort(piv)]
    if not np.all(np.isfinite(out)):
        raise NumericalError("fitted coefficients are not finite")
    # Sign: each predictor's largest-magnitude value Gx c at the training points is > 0
    top = out[np.argmax(np.abs(out[:, d:]), axis=0), d + np.arange(d)]
    return out[:, :d] * np.where(top < 0.0, -1.0, 1.0), mu[:d].copy(), tuple(warnings)


def _fit(x, y, kernel_x, kernel_y, epsilon, d, variant):
    x, y = _check_inputs(x, y, epsilon, d)
    return GsirFit(variant, x.copy(), kernel_x, kernel_y, float(epsilon), d,
                   *_solve(x, y, kernel_x, kernel_y, epsilon, variant, d))


def fit_gsir1(x, y, kernel_x, kernel_y, epsilon, d):
    """Fit d predictors with the fully inverted regression operator.

    Parameters
    ----------
    x, y : array-like, shapes (n, p) and (n, q)
        Training predictors and responses (1-d inputs are treated as columns).
    kernel_x, kernel_y : KernelSpec
    epsilon : float
        Ridge shift added to the covariance operator before inversion.
    d : int
        Number of predictors to extract, at most the rank of the centered
        Gram matrix of x.
    """
    return _fit(x, y, kernel_x, kernel_y, epsilon, d, "gsir1")


def fit_gsir2(x, y, kernel_x, kernel_y, epsilon, d):
    """Fit d predictors with the half-inverted regression operator.

    Same contract as `fit_gsir1`; the stored coefficients already include the
    extra (Sxx + eps I)^(-1/2) factor, so evaluation works identically.
    """
    return _fit(x, y, kernel_x, kernel_y, epsilon, d, "gsir2")


def gsir_spectrum(x, y, kernel_x, kernel_y, epsilon, variant="gsir1"):
    """Full eigenvalue sequence of the objective operator, descending.

    Has length n; every value beyond the rank of the pivoted-Cholesky factor
    of Gx (or of Gy) is exactly 0, because the solve works on its range.  A
    factor of rank n (see `_factor`) can leave one rounding-level value.
    """
    x, y = _check_inputs(x, y, epsilon, d=1)
    return _solve(x, y, kernel_x, kernel_y, epsilon, variant)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_predictors(fit, x_new):
    """Evaluate the fitted predictors at new points; returns shape (m, d)."""
    x_new = _as_points(x_new, "x_new")
    if x_new.shape[1] != fit.train_points.shape[1]:
        raise ValueError(f"new points have dimension {x_new.shape[1]}, "
                         f"training points have {fit.train_points.shape[1]}")
    out = np.empty((x_new.shape[0], fit.coefficients.shape[1]))
    for s in range(0, x_new.shape[0], _BLOCK):
        k_new = gram_matrix(fit.kernel_x, x_new[s:s + _BLOCK], fit.train_points)
        k_new -= k_new.mean(axis=1, keepdims=True)
        pred = np.matmul(k_new, fit.coefficients, out=out[s:s + _BLOCK])
        if not np.isfinite(pred).all():
            raise NumericalError("predictions are not finite: the cross-Gram overflows")
    return out

