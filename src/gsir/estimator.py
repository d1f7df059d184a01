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
by one H, O(n d).  Pivoted Cholesky (LAPACK dpstrf) factors H Gx H ~ Fx Fx^T
(n x r) and H Gy H ~ F F^T (n x r_y), with r, r_y <= n - 1.  The factor of
Gx stops once every residual diagonal entry is at most _STOP_TAU * eps (or
rounding, if that is larger): only the eigenvalues of Gx/n above about eps
shape T^-1, and T moves by at most _STOP_TAU * eps (see `_factor`).  No
ridge sits on Gy, so its factor stops at rounding.  The solve lives on
the range of Fx, so every eigenvalue mu beyond r is exactly 0.  Fx is lower
trapezoidal: an r x r triangle above n - r >= 1 dense rows.  It is the first
r n doubles of Gx's buffer, which shrinks to them in place (a realloc)
before they are copied.  A copy of the triangle with the order of its rows
and of its columns reversed is upper,
and a triangular-pentagonal QR (LAPACK dtpqrt, O((n - r) r^2)) eliminates
only the n - r rows below it; reversing back gives Fx = Qx Lx with Lx lower
triangular.  With G = Qx^T F, E = Lx^T G / n and S = Lx^T Lx / n + eps I =
L L^T (dlauum), the mu are the nonzero eigenvalues of B B^T (r x r) or of
B^T B (r_y x r_y), whichever is smaller, with B = S^-1 E (variant 1) or
L^-1 E (variant 2).  A unit eigenvector p of B B^T (for one q of B^T B,
p = B q / sqrt(mu)) gives h = p (variant 1) or L^-T p (variant 2), which is
S^-1 E q / sqrt(mu), and c = Qx Lx^-T h, which is T^-1 P F q / (n sqrt(mu))
with P the projection onto the range of Fx.  Dividing by |p| gives
c' Gx c = 1 (variant 1) or c' Gx T c = 1 (variant 2).  The triangular solve
keeps its accuracy for any eps; the Woodbury form (G q / sqrt(mu) - Lx h) /
(eps n) of the same c cancels digits as eps / |Gx / n| approaches rounding.

The solve splits where the variants diverge.  Everything up to B2 = L^-1 E
(both Grams and factors, the QR, G, L) is variant-free and is built once per
sample by `factorize`, with a copy of x, the kernels and eps.  The variant
step, `solve`, applies the extra L^-T for variant 1, runs the eigenproblem
and the coefficient extraction, and returns the fit: `fit_gsir1` and
`fit_gsir2` are `solve(factorize(...), variant, d)`.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg.blas import dsyrk, dtrmm, dtrsm
from scipy.linalg.lapack import (dlauum, dpotrf, dpstrf, dsyevd, dtpmqrt,
                                 dtpqrt)

from .kernels import (KernelSpec, centering_reflector, gram_matrix,
                      reflected_gram, _as_points)
from .linalg import DEFAULT_CLAMP, NumericalError
from .rates import VARIANTS

# Eigenvalue gap, relative to mu_1, at or below which the d-th predictor is not
# well separated from the next and the fit warns (always when every mu is 0).
GAP_TOL = 1e-10

# Rows per reused cross-Gram block; a multiple of 8, as OpenBLAS groups rows.
_BLOCK = 64

# Block size of the triangular-pentagonal QR of Fx (dtpqrt's nb).
_QR_BLOCK = 32

# LAPACK's unit roundoff, dlamch('E'), which dpstrf's stop is scaled by.
_ULP = np.finfo(float).eps / 2

# The pivoted Cholesky of Gx stops once the residual diagonal is at most this
# fraction of eps (see `_factor`): T = Gx / n + eps I then moves by at most
# _STOP_TAU * eps, and only the eigenvalues of Gx / n above about eps shape
# T^-1.
_STOP_TAU = 1e-4


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
    _check_d(d, n, n)
    return x, y


def _check_d(d, n, r):
    """ValueError unless 1 <= d <= n - 1; NumericalError if d exceeds the rank r."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"d must satisfy 1 <= d <= n - 1 = {n - 1}, got {d}")
    if d > r:
        raise NumericalError(f"d={d} exceeds the numerical rank {r} of the "
                             f"centered Gram matrix; the achievable d is {r}")


def _factor(g, top, epsilon=0.0):
    """(c, piv) with g[piv][:, piv] ~ c c^T, c n x r lower trapezoidal; g is
    factored from the lower triangle of g.T, in its own memory (g.T is
    Fortran ordered), so c is Fortran ordered too.  dpstrf stops once the
    largest residual diagonal entry is at most tol = max(_STOP_TAU * eps,
    n * ulp * top), with top the largest diagonal entry of the uncentered K
    and eps the ridge that g sits under: Gx's, or 0 for Gy, whose stop then
    scales with the data.  The residual g - c c^T is a Schur complement,
    positive semidefinite, so its norm over n is at most tol: T = Gx / n +
    eps I moves by at most tol, and T^-1 by at most tol / eps relative,
    _STOP_TAU unless rounding is larger.  LAPACK applies tol only from the
    second pivot on; a first pivot at or below tol gives r = 0.  A reflected
    Gram has a zero first row and column, so r <= n - 1."""
    if not (np.isfinite(g.max()) and np.isfinite(g.min())):    # NaN propagates
        raise NumericalError("centered Gram matrix contains non-finite entries")
    n = g.shape[0]
    tol = max(_STOP_TAU * epsilon, n * _ULP * top)
    c, piv, r, _ = dpstrf(g.T, lower=1, tol=tol, overwrite_a=1)
    if r and c[0, 0] ** 2 <= tol:
        r = 0
    for j in range(1, r):
        c[:j, j] = 0.0
    return c[:, :r], piv - 1


@dataclass(frozen=True, eq=False)
class _Factorization:
    """The variant-free part of one sample's solve (`factorize`): a copy of x,
    the kernels, eps, Lx, L, the QR's V and T, B2 = L^-1 E and its row order."""

    x: np.ndarray
    kernel_x: KernelSpec
    kernel_y: KernelSpec
    epsilon: float
    lx: np.ndarray
    l: np.ndarray
    v: np.ndarray
    t: np.ndarray
    b2: np.ndarray
    rows: np.ndarray


def solve(fz, variant, d):
    """The GsirFit of the top d predictors of variant "gsir1" or "gsir2" on
    fz's points, kernels and eps, from the eigenproblem on the range of Fx,
    of rank r (a d above r is refused, as by `factorize`)."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n, r = len(fz.x), len(fz.lx)
    _check_d(d, n, r)
    lx, l, v, t, rows, b = fz.lx, fz.l, fz.v, fz.t, fz.rows, fz.b2
    if variant == "gsir1":     # S^-1 E = L^-T L^-1 E
        b = dtrsm(1.0, l, b, lower=1, trans_a=1)
    # The nonzero mu are the eigenvalues of the smaller of B B^T and B^T B
    wide = b.shape[1] > r
    mu, q, info = dsyevd(dsyrk(1.0, b, trans=int(not wide), lower=1), lower=1,
                         overwrite_a=1)
    if info:
        raise NumericalError(f"eigendecomposition of the objective failed (info={info})")
    mu = np.maximum(mu[::-1], 0.0)       # B has rank at most min(r, r_y)
    mu, q = np.concatenate([mu, np.zeros(n - len(mu))]), q[:, ::-1]
    warnings = []
    if mu[d - 1] - mu[d] <= GAP_TOL * mu[0]:
        warnings.append(f"eigenvalue gap mu_{d} - mu_{d + 1} = "
                        f"{mu[d - 1] - mu[d]:.3e} is at most {GAP_TOL:.0e} of mu_1; "
                        f"the d-th predictor is not uniquely determined")
    k = min(d, int(np.count_nonzero(mu > DEFAULT_CLAMP * mu[0])))
    # p: unit eigenvectors of B B^T, which are B q / sqrt(mu) for those of
    # B^T B; h = S^-1 E q / sqrt(mu) is p (variant 1) or L^-T p
    p = q[:, :k] if wide else b @ (q[:, :k] / np.sqrt(mu[:k]))
    del b
    if k < d:
        # mu = 0 here: complete p orthonormally with the images of c in the
        # span of Fx's leading (pivot) columns, Lx^T Lx e_j
        img = dtrmm(1.0, lx, lx[:, :d], lower=1, trans_a=1)
        img = img if variant == "gsir1" else dtrmm(1.0, l, img, lower=1, trans_a=1)
        fill = np.linalg.qr(np.column_stack([p, img]))[0][:, k:d]
        p = np.column_stack([p, fill])
    h = p if variant == "gsir1" else dtrsm(1.0, l, p, lower=1, trans_a=1)
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
    return GsirFit(variant, fz.x, fz.kernel_x, fz.kernel_y, fz.epsilon, d,
                   out[:, :d] * np.where(top < 0.0, -1.0, 1.0), mu[:d].copy(),
                   tuple(warnings))


def factorize(x, y, kernel_x, kernel_y, epsilon, d=1):
    """The variant-free step of a fit (module docstring), with a copy of x
    (callers may edit theirs later), the kernels and eps: `solve` it once
    per variant.  d is the largest number of predictors that will be asked
    for; a d above the rank of the centered Gram matrix of x is refused
    here, before the QR.
    """
    x, y = _check_inputs(x, y, epsilon, d)
    # Gy first, so only its factor is alive beside Gx
    f, piv_y = _factor(*reflected_gram(kernel_y, y))
    f = f.copy(order="F")      # frees Gy's n x n
    gx, top = reflected_gram(kernel_x, x)
    fx, piv = _factor(gx, top, epsilon)
    n, r = fx.shape
    _check_d(d, n, r)
    # Fx is the first r n doubles of Gx's buffer: realloc frees the rest in
    # place.  fx was the last view of gx, so no view outlives the resize
    # (refcheck=False: a tracer's copy of the frame's locals is a reference)
    del fx
    gx.resize((r, n), refcheck=False)
    # Rows r-1..0, then r..n-1 of x's pivot order, with the columns reversed:
    # the triangle on top is upper, and Q eliminates the n - r >= 1 rows below
    rows = np.concatenate([piv[r - 1::-1], piv[r:]])
    below = gx.T[r:, ::-1].copy(order="F")
    lx = gx.T[r - 1::-1, ::-1].copy(order="F")
    del gx                               # frees the n x r factor
    lx, v, t, _ = dtpqrt(0, min(r, _QR_BLOCK), lx, below, overwrite_a=1, overwrite_b=1)
    lx = lx[::-1, ::-1].copy(order="F")  # Lx, 0 above the diagonal
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
    b2 = dtrsm(1.0, l, dtrmm(1.0 / n, lx, g, lower=1, trans_a=1), lower=1, overwrite_b=1)
    return _Factorization(x.copy(), kernel_x, kernel_y, float(epsilon), lx, l, v, t, b2, rows)


def fit_gsir1(x, y, kernel_x, kernel_y, epsilon, d):
    """Fit d predictors with the fully inverted regression operator.

    x (n, p) and y (n, q) are the training predictors and responses (1-d
    inputs are columns), kernel_x and kernel_y their KernelSpecs; epsilon is
    the ridge shift added to the covariance operator before inversion; d is
    at most the rank of the centered Gram matrix of x.
    """
    return solve(factorize(x, y, kernel_x, kernel_y, epsilon, d), "gsir1", d)


def fit_gsir2(x, y, kernel_x, kernel_y, epsilon, d):
    """Fit d predictors with the half-inverted regression operator.

    Same contract as `fit_gsir1`; the stored coefficients already include the
    extra (Sxx + eps I)^(-1/2) factor, so evaluation works identically.
    """
    return solve(factorize(x, y, kernel_x, kernel_y, epsilon, d), "gsir2", d)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_predictors(fit, x_new):
    """Evaluate the fitted predictors at new points; returns shape (m, d)."""
    x_new = _as_points(x_new, "x_new")
    if x_new.shape[1] != fit.train_points.shape[1]:
        raise ValueError(f"new points have dimension {x_new.shape[1]}, "
                         f"training points have {fit.train_points.shape[1]}")
    # sum_i c_i (k(x, X_i) - mean_l k(x, X_l)) = sum_i (c_i - mean c) k(x, X_i)
    coef = fit.coefficients - fit.coefficients.mean(axis=0)
    out = np.empty((len(x_new), coef.shape[1]))
    buf = np.empty((_BLOCK, len(coef)))
    for s in range(0, len(x_new), _BLOCK):
        block = x_new[s:s + _BLOCK]
        k_new = gram_matrix(fit.kernel_x, block, fit.train_points, out=buf[:len(block)])
        pred = np.matmul(k_new, coef, out=out[s:s + _BLOCK])
        if not np.isfinite(pred).all():
            raise NumericalError("predictions are not finite: the cross-Gram overflows")
    return out

