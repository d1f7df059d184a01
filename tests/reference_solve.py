"""Reference implementations for the tests.

`reference_fit` is the dense GSIR solve, kept as the reference for
`gsir.estimator`.  It forms every n x n matrix explicitly: Q K Q centering
with the dense centering matrix Q, the projection V^T Gy V onto the Gx
eigenbasis, and a full n x n eigendecomposition of the objective matrix.
It weights only the numerical range of Gx, and keeps the eigenvalue cutoff
for it: l is zero on the eigenvalues at or below DEFAULT_CLAMP times the
largest.  The estimator takes the range of the pivoted-Cholesky factor of
Gx instead.  At the tested sizes both keep the same number of directions,
except that the factor of a laplace Gram keeps one more, the rounding-level
remainder along the constant vector that centering removes; a coefficient
component along that vector does not change any prediction.

`whole_array_centered_gram` is the O(n^2) centering as whole-array
expressions, which `gsir.kernels.centered_gram` computes in place and must
match bit for bit.  `eval_kernel` evaluates one kernel value from its
formula, and `align_sign` aligns the arbitrary eigenvector signs of the
reference with the estimator.
"""

import numpy as np
from scipy.spatial.distance import cdist

from gsir.kernels import gram_matrix
from gsir.linalg import DEFAULT_CLAMP, symmetric_eigh


def whole_array_centered_gram(spec, x):
    """K less its row means, less its column means, plus its grand mean,
    symmetrized: each step on a new n x n array."""
    if spec.family == "linear":
        k = x @ x.T
    else:
        metric = "sqeuclidean" if spec.family == "gaussian" else "cityblock"
        k = np.exp(-spec.gamma * cdist(x, x, metric))
    g = k - k.mean(axis=1, keepdims=True) - k.mean(axis=0) + k.mean()
    return (g + g.T) / 2.0


def dense_centered_gram(spec, x):
    n = x.shape[0]
    q = np.eye(n) - np.full((n, n), 1.0 / n)
    g = q @ gram_matrix(spec, x) @ q
    return (g + g.T) / 2.0


def reference_fit(x, y, kernel_x, kernel_y, epsilon, d, variant):
    """Full descending spectrum and top-d coefficients of the dense solve."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    n = x.shape[0]
    gx = dense_centered_gram(kernel_x, x)
    gy = dense_centered_gram(kernel_y, y)
    w, v = symmetric_eigh(gx)
    active = w > DEFAULT_CLAMP * w[-1]
    t = w / n + epsilon
    sw = np.sqrt(w)
    lft = sw / t if variant == "gsir1" else sw / np.sqrt(t)
    lft[~active] = 0.0
    a = (lft[:, None] * (v.T @ gy @ v)) * lft[None, :] / (n * n)
    mu, p = np.linalg.eigh((a + a.T) / 2.0)
    mu, p = np.maximum(mu[::-1], 0.0), p[:, ::-1][:, :d]
    ps = np.zeros_like(w)
    ps[active] = sw[active] ** -1.0
    coef = ps[:, None] * p / np.sqrt(np.sum(p[active] ** 2, axis=0))
    if variant == "gsir2":
        coef = coef / np.sqrt(t)[:, None]
    return mu, v @ coef


def align_sign(estimated, reference):
    """Sign s in {-1, +1} that best aligns two evaluation vectors.

    The reference solve's eigenvectors carry arbitrary signs.  Returns +1
    when the inner product is exactly zero; raises if either vector is
    identically zero (no direction to align).
    """
    a = np.asarray(estimated, dtype=float).ravel()
    b = np.asarray(reference, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vectors have different lengths: {a.size} vs {b.size}")
    if not np.any(a) or not np.any(b):
        raise ValueError("cannot align a zero vector")
    return -1.0 if float(a @ b) < 0.0 else 1.0


def eval_kernel(spec, x, y):
    """Evaluate k(x, y) for two single points of equal dimension."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {y.shape}")
    if spec.family == "gaussian":
        return float(np.exp(-spec.gamma * np.sum((x - y) ** 2)))
    if spec.family == "laplace":
        return float(np.exp(-spec.gamma * np.sum(np.abs(x - y))))
    return float(x @ y)
