"""Kernel inverse-regression estimators for nonlinear dimension reduction.

Both variants look for unit-norm directions phi in the (centered) RKHS of X
that maximize the squared image under a regularized regression operator:

  variant 1:  (Sxx + eps I)^(-1)   Sxy  applied twice  (inverse weighting)
  variant 2:  (Sxx + eps I)^(-1/2) Sxy  applied twice  (half weighting);
              the reported predictors are the eigenfunctions pushed through
              (Sxx + eps I)^(-1/2) once more.

With n training points everything reduces to a symmetric eigenproblem on
centered Gram matrices.  Writing T = (1/n) Gx + eps I and W = Gx^(1/2),
the variant-1 objective matrix is S = (1/n^2) T^(-1) W Gy W T^(-1) and the
variant-2 one is S' = (1/n^2) T^(-1/2) W Gy W T^(-1/2), both acting on
u = W c where c is the coefficient vector of phi in the centered features.
T, W, and their inverses are all spectral functions of Gx, so one
eigendecomposition of Gx serves the whole solve; Gy enters through a thin
pivoted-Cholesky factor, so that eigendecomposition is the only O(n^3) step.
The operators live on the range of Sxx, so the solve keeps only the
numerical range of Gx (eigenvalues above DEFAULT_CLAMP times the largest);
every eigenvalue mu beyond the rank of Gx is exactly 0.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy.linalg.lapack import dpstrf

from .kernels import KernelSpec, centered_gram, gram_matrix, _as_points
from .linalg import DEFAULT_CLAMP, symmetric_eigh

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


def _thin_factor(g):
    """F (n x r) with g ~ F F^T; LAPACK's own tolerance sets r (see _solve)."""
    c, piv, r, _ = dpstrf(g, lower=1, tol=-1)
    return np.tril(c[:, :r])[np.argsort(piv)]


def _solve(x, y, kernel_x, kernel_y, epsilon, variant):
    """Shared eigenproblem on the numerical range of Gx: (v, s, b, mu, q).

    With Gx = V diag(w) V^T, only the r eigenpairs with w > DEFAULT_CLAMP *
    max(w) are kept (v is n x r).  On that range the objective matrix is
    similar to A = diag(l) V^T Gy V diag(l) / n^2 where l = sqrt(w)/t for
    variant 1 and sqrt(w)/sqrt(t) for variant 2, t = w/n + eps.  A is never
    formed.  Pivoted Cholesky (dpstrf, stopping at n * ulp * max diagonal)
    gives Gy ~ F F^T with F n x r_y, r_y the numerical rank of Gy, so A =
    B B^T for B = diag(l) V^T F / n (r x r_y).  With B^T B = Q diag(mu) Q^T
    the nonzero eigenpairs of A are mu and B Q / sqrt(mu); the top min(r,
    r_y) values of mu are padded with zeros to length n, so mu is exactly 0
    beyond the rank of Gx.  A unit eigenvector p of A gives the coefficients
    V (s * p), with s = 1/sqrt(w) for variant 1 and 1/sqrt(w t) for variant 2.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n = x.shape[0]
    w, v = symmetric_eigh(centered_gram(kernel_x, x))
    r = int(np.count_nonzero(w > DEFAULT_CLAMP * w[-1]))
    w, v = w[n - r:], v[:, n - r:]
    t = w / n + epsilon
    lft = np.sqrt(w) / (t if variant == "gsir1" else np.sqrt(t))
    s = 1.0 / np.sqrt(w if variant == "gsir1" else w * t)
    b = v.T @ _thin_factor(centered_gram(kernel_y, y))
    b *= (lft / n)[:, None]
    mu, q = np.linalg.eigh(b.T @ b)
    mu = np.maximum(mu[::-1][:r], 0.0)   # b (r x r_y) has rank at most r
    return v, s, b, np.concatenate([mu, np.zeros(n - len(mu))]), q[:, ::-1]


def _extract(sol, d):
    """Top-d coefficients, eigenvalues, and warnings from a solved problem."""
    v, s, b, mu, q = sol
    rank = v.shape[1]
    if d > rank:
        raise ValueError(f"d={d} exceeds the numerical rank {rank} of the "
                         f"centered Gram matrix; the achievable d is {rank}")
    warnings = []
    if mu[d - 1] - mu[d] < GAP_TOL:
        warnings.append(f"eigenvalue gap mu_{d} - mu_{d + 1} = "
                        f"{mu[d - 1] - mu[d]:.3e} is below {GAP_TOL:.0e}; "
                        f"the d-th predictor is not uniquely determined")
    k = min(d, int(np.count_nonzero(mu > DEFAULT_CLAMP * mu[0])))
    p = b @ q[:, :k] / np.sqrt(mu[:k])
    if k < d:
        # mu = 0 here: complete p with the top Gx directions, orthogonalized.
        fill = np.linalg.qr(np.column_stack([p, np.eye(rank, d)[::-1]]))[0]
        p = np.column_stack([p, fill[:, k:d]])
    coefficients = v @ (s[:, None] * p / np.linalg.norm(p, axis=0))
    # Sign convention: each predictor's largest-magnitude coefficient is > 0.
    top = coefficients[np.argmax(np.abs(coefficients), axis=0), np.arange(d)]
    coefficients *= np.where(top < 0.0, -1.0, 1.0)
    return coefficients, mu[:d].copy(), tuple(warnings)


def _fit(x, y, kernel_x, kernel_y, epsilon, d, variant):
    x, y = _check_inputs(x, y, epsilon, d)
    sol = _solve(x, y, kernel_x, kernel_y, epsilon, variant)
    return GsirFit(variant, x.copy(), kernel_x, kernel_y, float(epsilon), d,
                   *_extract(sol, d))


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

    Has length n; every value beyond the numerical rank of Gx (and of Gy)
    is exactly 0, because the solve works on the range of Gx only.
    """
    x, y = _check_inputs(x, y, epsilon, d=1)
    return _solve(x, y, kernel_x, kernel_y, epsilon, variant)[3]


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
        np.matmul(k_new, fit.coefficients, out=out[s:s + _BLOCK])
    return out


def align_sign(estimated, reference):
    """Sign s in {-1, +1} that best aligns two evaluation vectors.

    Returns +1 when the inner product is exactly zero; raises if either
    vector is identically zero (no direction to align).
    """
    a = np.asarray(estimated, dtype=float).ravel()
    b = np.asarray(reference, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vectors have different lengths: {a.size} vs {b.size}")
    if not np.any(a) or not np.any(b):
        raise ValueError("cannot align a zero vector")
    return -1.0 if float(a @ b) < 0.0 else 1.0
