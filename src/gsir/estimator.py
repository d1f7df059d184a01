"""Kernel inverse-regression estimators for nonlinear dimension reduction.

Both variants look for unit-norm directions phi in the (centered) RKHS of X
that maximize the squared image under a regularized regression operator:

  variant 1:  (Sxx + eps I)^(-1)   Sxy  applied twice  (inverse weighting)
  variant 2:  (Sxx + eps I)^(-1/2) Sxy  applied twice  (half weighting);
              the reported predictors are the eigenfunctions pushed through
              (Sxx + eps I)^(-1/2) once more.

With n training points everything reduces to an n x n symmetric eigenproblem
on centered Gram matrices.  Writing T = (1/n) Gx + eps I and W = Gx^(1/2),
the variant-1 objective matrix is S = (1/n^2) T^(-1) W Gy W T^(-1) and the
variant-2 one is S' = (1/n^2) T^(-1/2) W Gy W T^(-1/2), both acting on
u = W c where c is the coefficient vector of phi in the centered features.
T, W, and their inverses are all spectral functions of Gx, so one
eigendecomposition of Gx serves the whole solve.
"""

import numpy as np
from dataclasses import dataclass, field

from .kernels import KernelSpec, centered_gram, gram_matrix, _as_points
from .linalg import DEFAULT_CLAMP, symmetric_eigh

VARIANTS = ("gsir1", "gsir2")

# Eigenvalue gap below which the d-th predictor is not well separated from
# the next direction and the fit carries an ambiguity warning.
GAP_TOL = 1e-10

# Quadratic form below which a coefficient vector cannot be normalized
# against Gx (the direction lies in the Gram null space).
_NORM_GUARD = 1e-12


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


def _solve(x, y, kernel_x, kernel_y, epsilon, variant):
    """Shared eigenproblem: returns everything both fit paths need.

    All quantities live in the eigenbasis of Gx: with Gx = V diag(w) V^T the
    objective matrix is similar to A = diag(l) V^T Gy V diag(l) / n^2 where
    l = sqrt(w)/t for variant 1 and sqrt(w)/sqrt(t) for variant 2, t = w/n
    + eps.  Eigenvectors of the original problem are V times those of A.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n = x.shape[0]
    gx = centered_gram(kernel_x, x)
    gy = centered_gram(kernel_y, y)
    w, v = symmetric_eigh(gx)
    wmax = float(w[-1])
    active = w > DEFAULT_CLAMP * wmax if wmax > 0 else np.zeros_like(w, bool)
    t = w / n + epsilon
    sw = np.sqrt(w)
    lft = sw / t if variant == "gsir1" else sw / np.sqrt(t)
    a = (lft[:, None] * (v.T @ gy @ v)) * lft[None, :] / (n * n)
    mu, p = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(mu)[::-1]
    mu = np.maximum(mu[order], 0.0)
    p = p[:, order]
    # Pseudo-inverse square-root weights of Gx in its own eigenbasis.
    ps = np.zeros_like(w)
    ps[active] = sw[active] ** -1.0
    return {"v": v, "t": t, "mu": mu, "p": p, "ps": ps, "active": active,
            "rank": int(np.count_nonzero(active))}


def _extract(sol, d, variant):
    """Top-d coefficients, eigenvalues, and warnings from a solved problem."""
    if d > sol["rank"]:
        raise ValueError(f"d={d} exceeds the numerical rank {sol['rank']} of the "
                         f"centered Gram matrix; the achievable d is {sol['rank']}")
    warnings = []
    mu, p, v, ps, active = sol["mu"], sol["p"], sol["v"], sol["ps"], sol["active"]
    if mu[d - 1] - mu[d] < GAP_TOL:
        warnings.append(f"eigenvalue gap mu_{d} - mu_{d + 1} = "
                        f"{mu[d - 1] - mu[d]:.3e} is below {GAP_TOL:.0e}; "
                        f"the d-th predictor is not uniquely determined")
    cols = []
    for j in range(d):
        pj = p[:, j]
        # Gx-norm of W^+ u_j equals the mass of u_j on the active eigenspace.
        qf = float(np.sum(pj[active] ** 2))
        coef_basis = ps * pj
        if qf > _NORM_GUARD:
            coef_basis = coef_basis / np.sqrt(qf)
        else:
            warnings.append(f"predictor {j + 1} lies in the Gram null space and "
                            f"cannot be normalized; coefficients left unscaled")
        if variant == "gsir2":
            coef_basis = coef_basis / np.sqrt(sol["t"])
        cols.append(v @ coef_basis)
    coefficients = np.column_stack(cols)
    return coefficients, mu[:d].copy(), tuple(warnings)


def _fit(x, y, kernel_x, kernel_y, epsilon, d, variant):
    x, y = _check_inputs(x, y, epsilon, d)
    sol = _solve(x, y, kernel_x, kernel_y, epsilon, variant)
    return GsirFit(variant, x.copy(), kernel_x, kernel_y, float(epsilon), d,
                   *_extract(sol, d, variant))


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

    Useful for inspecting directions beyond the numerical rank of the Gram
    matrix, where a fit would refuse to normalize coefficients.
    """
    x, y = _check_inputs(x, y, epsilon, d=1)
    sol = _solve(x, y, kernel_x, kernel_y, epsilon, variant)
    return sol["mu"].copy()


def evaluate_predictors(fit, x_new):
    """Evaluate the fitted predictors at new points; returns shape (m, d)."""
    x_new = _as_points(x_new, "x_new")
    if x_new.shape[1] != fit.train_points.shape[1]:
        raise ValueError(f"new points have dimension {x_new.shape[1]}, "
                         f"training points have {fit.train_points.shape[1]}")
    k_new = gram_matrix(fit.kernel_x, x_new, fit.train_points)
    k_new = k_new - k_new.mean(axis=1, keepdims=True)
    return k_new @ fit.coefficients


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
