"""Reference implementations for the tests.

`reference_fit` is the dense GSIR solve, kept as the reference for
`gsir.estimator`.  It forms every n x n matrix explicitly: Q K Q centering
with the dense centering matrix Q, the projection V^T Gy V onto the Gx
eigenbasis, and a full n x n eigendecomposition of the objective matrix.
It weights only the numerical range of Gx, and keeps the eigenvalue cutoff
for it: l is zero on the eigenvalues at or below DEFAULT_CLAMP times the
largest.  The estimator takes the range of the pivoted-Cholesky factor of
the reflected Gram H Gx H instead, whose first row and column, the constant
vector that centering removes, are exactly zero.  At the tested sizes both
keep the same number of directions of Gx.

`reference_qr_solve` is the thin-factor solve with a blocked Householder QR
of the whole n x r pivoted-Cholesky factor of Gx (LAPACK dgeqrf, reflectors
applied by dormqr) and S = Rx^T Rx / n + eps I formed by dsyrk, kept as the
numerics reference for the structured QR of `gsir.estimator`.  It factors
the same reflected Grams H Gx H and H Gy H (`gsir.kernels.reflected_gram`)
and maps its coefficients back with H, so it checks the QR stage alone.

`whole_array_centered_gram` is the O(n^2) centering as whole-array
expressions, which `gsir.kernels.centered_gram` computes in place and must
match bit for bit.  `eval_kernel` evaluates one kernel value from its
formula, and `align_sign` aligns the arbitrary eigenvector signs of the
reference with the estimator.
"""

import numpy as np
from scipy.linalg.blas import dsyrk, dtrmm, dtrsm
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dpotrf, dsyevd
from scipy.spatial.distance import cdist

from gsir.estimator import GAP_TOL, _factor
from gsir.kernels import centering_reflector, gram_matrix, reflected_gram
from gsir.linalg import DEFAULT_CLAMP, NumericalError, symmetric_eigh


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


def _apply_q(qr, tau, c, trans):
    """Qx c (trans "N") or Qx^T c ("T") in c's memory, blocked workspace."""
    lwork = int(dormqr("L", trans, qr, tau, c, -1)[1][0])
    return dormqr("L", trans, qr, tau, c, lwork, overwrite_c=1)[0]


def reference_qr_solve(x, y, kernel_x, kernel_y, epsilon, variant, d=None):
    """The thin solve with a Householder QR of the whole factor Fx: the mu
    (d None) or (coefficients, mu[:d], warnings), as `gsir.estimator._solve`
    returns them."""
    f, piv_y = _factor(*reflected_gram(kernel_y, y))
    f = f.copy(order="F")      # frees Gy's n x n
    fx, piv = _factor(*reflected_gram(kernel_x, x))
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
    u = centering_reflector(n)      # [c, Gx c] = H [c', Gx' c']
    out -= np.outer(u, 2.0 * (u @ out))
    if not np.all(np.isfinite(out)):
        raise NumericalError("fitted coefficients are not finite")
    # Sign: each predictor's largest-magnitude value Gx c at the training points is > 0
    top = out[np.argmax(np.abs(out[:, d:]), axis=0), d + np.arange(d)]
    return out[:, :d] * np.where(top < 0.0, -1.0, 1.0), mu[:d].copy(), tuple(warnings)


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
