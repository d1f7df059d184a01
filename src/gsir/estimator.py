"""Kernel inverse-regression estimators for nonlinear dimension reduction.

Both variants look for unit-norm directions phi in the (centered) RKHS of X
that maximize the squared image under a regularized regression operator:

  variant 1:  (Sxx + eps I)^(-1)   Sxy  applied twice  (inverse weighting)
  variant 2:  (Sxx + eps I)^(-1/2) Sxy  applied twice  (half weighting);
              the reported predictors are the eigenfunctions pushed through
              (Sxx + eps I)^(-1/2) once more.

With n training points and T = Gx/n + eps I on centered Gram matrices, no
n x n matrix is decomposed.  The solve runs in the coordinates of the
Householder reflector H with H 1 = -sqrt(n) e_1, where the GSIR objective is
the same (H is orthogonal): H Gx H and H Gy H are H K H with their first row
and column zeroed (`kernels.reflected_gram`), so the constant vector that
centering removes is an exact zero, and the coefficients and Gx c map back
by one H, O(n d).  Pivoted Cholesky (LAPACK dpstrf, stopping at n * ulp *
max diagonal) factors H Gx H ~ Fx Fx^T (n x r) and H Gy H ~ F F^T
(n x r_y), with r, r_y <= n - 1.  The solve lives on the range of Fx, the
numerical range of Gx, so every eigenvalue mu beyond r is exactly 0.  Fx is
lower trapezoidal: an r x r triangle above n - r >= 1 dense rows.  Reversing
the order of the triangle's rows and of the columns turns it upper, and a
triangular-pentagonal QR (LAPACK dtpqrt, O((n - r) r^2)) eliminates only
the n - r rows below it; reversing back gives Fx = Qx Lx with Lx lower
triangular, packed into Gx's own buffer.  With G = Qx^T F, E = Lx^T G / n
and S = Lx^T Lx / n + eps I = L L^T (dlauum), the mu are the eigenvalues of
the r_y x r_y matrix B^T B, B = S^-1 E (variant 1) or L^-1 E (variant 2).
An eigenvector q gives p = B q / sqrt(mu), h = S^-1 E q / sqrt(mu) and
c = Qx Lx^-T h, which is T^-1 P F q / (n sqrt(mu)) with P the projection
onto the range of Fx.  Dividing by |p| gives c' Gx c = 1 (variant 1) or
c' Gx T c = 1 (variant 2).  The triangular solve keeps its accuracy for any
eps; the Woodbury form (G q / sqrt(mu) - Lx h) / (eps n) of the same c
cancels digits as eps / |Gx / n| approaches rounding.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg.blas import dswap, dsyrk, dtrmm, dtrsm
from scipy.linalg.lapack import (dlauum, dpotrf, dpstrf, dsyevd, dtpmqrt,
                                 dtpqrt)

from .kernels import (KernelSpec, centering_reflector, gram_matrix,
                      reflected_gram, _as_points)
from .linalg import DEFAULT_CLAMP, NumericalError

VARIANTS = ("gsir1", "gsir2")

# Eigenvalue gap below which the d-th predictor is not well separated from
# the next direction and the fit carries an ambiguity warning.
GAP_TOL = 1e-10

# Rows per cross-Gram block in evaluate_predictors (memory _BLOCK x n).
_BLOCK = 1024

# Block size of the triangular-pentagonal QR of Fx (dtpqrt's nb).
_QR_BLOCK = 32

# LAPACK's unit roundoff, dlamch('E'), which dpstrf's stop is scaled by.
_ULP = np.finfo(float).eps / 2


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


def _factor(g, top):
    """(c, piv) with g[piv][:, piv] ~ c c^T, c n x r lower trapezoidal; g is
    factored from the lower triangle of g.T, in its own memory (g.T is
    Fortran ordered), so c is Fortran ordered too.  dpstrf stops at n * ulp
    times its first pivot, but LAPACK applies that stop only from the second
    pivot on; a first pivot at or below n * ulp * top, with top the largest
    diagonal entry of the uncentered K, is rounding and gives r = 0.  A
    reflected Gram has a zero first row and column, so r <= n - 1."""
    if not np.all(np.isfinite(g)):
        raise NumericalError("centered Gram matrix contains non-finite entries")
    n = g.shape[0]
    c, piv, r, _ = dpstrf(g.T, lower=1, tol=-1, overwrite_a=1)
    if r and c[0, 0] ** 2 <= n * _ULP * top:
        r = 0
    for j in range(1, r):
        c[:j, j] = 0.0
    return c[:, :r], piv - 1


def _rotate(a):
    """Reverse the order of a's rows and of its columns, in place: for a
    contiguous square a that reverses its memory, one dswap of its two
    halves, the second read backwards."""
    flat = a.reshape(-1, order="F")
    h = flat.size // 2
    if h:
        dswap(flat[:h], flat[flat.size - h:], incy=-1)


def _solve(x, y, kernel_x, kernel_y, epsilon, variant, d=None):
    """The eigenproblem on the range of Fx, of rank r.  With d None: the n
    eigenvalues mu, descending, 0 beyond r.  Else (coefficients, mu[:d],
    warnings) of the top d predictors; a d above r is refused before the QR.
    Gy is factored first, so only its factor is alive beside Gx, and Lx is
    packed into Gx's buffer."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    f, piv_y = _factor(*reflected_gram(kernel_y, y))
    f = f.copy(order="F")      # frees Gy's n x n
    fx, piv = _factor(*reflected_gram(kernel_x, x))
    n, r = fx.shape
    if d is not None and d > r:
        raise NumericalError(f"d={d} exceeds the numerical rank {r} of the "
                             f"centered Gram matrix; the achievable d is {r}")
    if r == 0:     # Gx = 0: nothing to fit, every mu is 0
        return np.zeros(n)
    # Rows r-1..0, then r..n-1 of x's pivot order, with the columns reversed:
    # the triangle on top is upper, and Q eliminates the n - r >= 1 rows below
    rows = np.concatenate([piv[r - 1::-1], piv[r:]])
    below = fx[r:, ::-1].copy(order="F")
    flat = fx.reshape(-1, order="F")     # Fx's columns, contiguous in Gx's buffer
    for j in range(1, r):                # pack the triangle to leading dimension r
        flat[j * r:(j + 1) * r] = flat[j * n:j * n + r]
    lx = flat[:r * r].reshape((r, r), order="F")
    del fx, flat
    _rotate(lx)
    lx, v, t, _ = dtpqrt(0, min(r, _QR_BLOCK), lx, below, overwrite_a=1, overwrite_b=1)
    _rotate(lx)                          # Lx, 0 above the diagonal
    # Lx stays in Gx's buffer: an r x r copy beside it raised the kernel-
    # recovery benchmark's peak RSS by 7 MB at r near n.  At r <= 0.9 n the
    # buffer is 1.23 times Lx or more, and a copy frees it.
    if 10 * r <= 9 * n:
        lx = lx.copy(order="F")
    # F with rows in that order (one zero column if Gy = 0), then G = Qx^T F
    f = f.T[:, np.argsort(piv_y)[rows]].T if f.shape[1] else np.zeros((n, 1))
    g = dtpmqrt(0, v, t, f[:r], f[r:], trans="T")[0][::-1]
    del f
    s, _ = dlauum(lx, lower=1)
    s *= 1.0 / n
    s[np.diag_indices(r)] += epsilon
    l, info = dpotrf(s, lower=1, overwrite_a=1)
    if info:
        raise NumericalError(f"Cholesky factorization of S failed (info={info})")
    b = dtrsm(1.0, l, dtrmm(1.0 / n, lx, g, lower=1, trans_a=1), lower=1, overwrite_b=1)
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
    # h = S^-1 E q / sqrt(mu); p = B q / sqrt(mu) is h (variant 1) or L^T h
    e = dtrmm(1.0 / n, lx, g @ (q[:, :k] / np.sqrt(mu[:k])), lower=1, trans_a=1)
    h = dtrsm(1.0, l, dtrsm(1.0, l, e, lower=1), lower=1, trans_a=1)
    p = h if variant == "gsir1" else dtrmm(1.0, l, h, lower=1, trans_a=1)
    if k < d:
        # mu = 0 here: complete p orthonormally with the images of c in the
        # span of Fx's leading (pivot) columns, Lx^T Lx e_j, mapped back to h
        img = dtrmm(1.0, lx, lx[:, :d], lower=1, trans_a=1)
        img = img if variant == "gsir1" else dtrmm(1.0, l, img, lower=1, trans_a=1)
        fill = np.linalg.qr(np.column_stack([p, img]))[0][:, k:d]
        hf = fill if variant == "gsir1" else dtrsm(1.0, l, fill, lower=1, trans_a=1)
        h, p = np.column_stack([h, hf]), np.column_stack([p, fill])
    norm = np.tile(np.linalg.norm(p, axis=0), 2)
    # [c, Gx c] = Qx [Lx^-T h, Lx h], its first r rows in the QR's order
    out = np.column_stack([dtrsm(1.0, lx, h, lower=1, trans_a=1),
                           dtrmm(1.0, lx, h, lower=1)])[::-1] / norm
    out = np.vstack(dtpmqrt(0, v, t, out, np.zeros((n - r, 2 * d)))[:2])
    out = out[np.argsort(rows)]
    # back from the reflected coordinates: [c, Gx c] = H [c', Gx' c']
    u = centering_reflector(n)
    out -= np.outer(u, 2.0 * (u @ out))
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
    of Gx (or of Gy) is exactly 0, because the solve works on its range.
    That rank is at most n - 1 (see `_factor`), so at least the last value
    is 0: centering leaves no rounding-level remainder.
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
    # sum_i c_i (k(x, X_i) - mean_l k(x, X_l)) = sum_i (c_i - mean c) k(x, X_i)
    coef = fit.coefficients - fit.coefficients.mean(axis=0)
    out = np.empty((x_new.shape[0], coef.shape[1]))
    for s in range(0, x_new.shape[0], _BLOCK):
        k_new = gram_matrix(fit.kernel_x, x_new[s:s + _BLOCK], fit.train_points)
        pred = np.matmul(k_new, coef, out=out[s:s + _BLOCK])
        if not np.isfinite(pred).all():
            raise NumericalError("predictions are not finite: the cross-Gram overflows")
    return out

