"""The dense GSIR solve, kept as the reference for `gsir.estimator`.

It forms every n x n matrix explicitly: Q K Q centering with the dense
centering matrix Q, the projection V^T Gy V onto the Gx eigenbasis, and a
full n x n eigendecomposition of the objective matrix.  Like the estimator
it weights only the numerical range of Gx: l is zero on the eigenvalues at
or below DEFAULT_CLAMP times the largest.
"""

import numpy as np

from gsir.kernels import gram_matrix
from gsir.linalg import DEFAULT_CLAMP, symmetric_eigh


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
