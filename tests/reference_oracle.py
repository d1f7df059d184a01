"""Reference implementation of the sequence-space oracle, for the tests.

`reference_empirical_operators` centers Zx before forming Sxx.
`reference_regression_ops` and `reference_error_report` form every J x J
operator explicitly, as `gsir.seqsim` once did: the regularized inverse b and
the inverse square root q through `spectral_apply`, the dense m = r1 r1^T and
m' = r2 r2^T, and the eigendecompositions of m, m' and M = R R^T.
`gsir.seqsim` works at the rank of R instead and is held to these.
"""

from types import SimpleNamespace

import numpy as np

from gsir.linalg import (DEFAULT_CLAMP, inv_shift, inv_sqrt_shift,
                         operator_norm, spectral_apply)
from gsir.seqsim import EmpiricalOps, ErrorRecord, span_projection_error


def descending_eig(m):
    d, v = np.linalg.eigh((m + m.T) / 2.0)
    return d[::-1], v[:, ::-1]


def top_eigenvectors(m, d):
    """Top-d eigenvectors of a symmetric matrix, descending eigenvalue order."""
    return descending_eig(m)[1][:, :d]


def _sym(m):
    return (m + m.T) / 2.0


def reference_empirical_operators(sample):
    """Sxx, Sxy and Sxu from a centered copy of every coordinate block."""
    zx = sample.Zx - sample.Zx.mean(axis=0)
    zy = sample.Zy - sample.Zy.mean(axis=0)
    zu = sample.Zu - sample.Zu.mean(axis=0)
    n = sample.n
    return EmpiricalOps(n=n, sxx=_sym(zx.T @ zx / n), sxy=zx.T @ zy / n,
                        sxu=zx.T @ zu / n)


def reference_regression_ops(sample, epsilon):
    """The estimates with b, q, m and m' as dense J x J arrays."""
    ops = reference_empirical_operators(sample)
    b = spectral_apply(ops.sxx, inv_shift(epsilon))
    q = spectral_apply(ops.sxx, inv_sqrt_shift(epsilon))
    r1 = b @ ops.sxy
    r2 = q @ ops.sxy
    return SimpleNamespace(epsilon=float(epsilon), sxx=ops.sxx, sxy=ops.sxy,
                           r1=r1, r2=r2, b=b, q=q, m=_sym(r1 @ r1.T),
                           m_prime=_sym(r2 @ r2.T))


def reference_error_report(model, ops):
    """error_report from J x J eigendecompositions of m, m' and M = R R^T."""
    m_pop = model.R @ model.R.T
    err_r1 = operator_norm(ops.r1 - model.R)
    err_r2 = operator_norm(ops.r2 - model.Rprime)
    err_m = operator_norm(ops.m - m_pop)
    svals = np.linalg.svd(model.R, compute_uv=False)
    d = int(np.count_nonzero(svals > DEFAULT_CLAMP * svals[0]))
    mu, vecs = descending_eig(m_pop)
    mu_ext = np.concatenate([np.maximum(mu, 0.0), [0.0]])
    vecs_hat = top_eigenvectors(ops.m, d)
    proj_err, gap = np.zeros(d), np.zeros(d)
    bound_ok, applicable = np.zeros(d, dtype=bool), np.zeros(d, dtype=bool)
    for j in range(d):
        lower = mu_ext[j] - mu_ext[j + 1]
        gap[j] = lower if j == 0 else min(mu_ext[j - 1] - mu_ext[j], lower)
        c = min(1.0, abs(float(vecs_hat[:, j] @ vecs[:, j])))
        proj_err[j] = np.sqrt(max(0.0, 1.0 - c * c))
        if gap[j] > 0.0:
            applicable[j] = True
            bound_ok[j] = proj_err[j] <= 4.0 * err_m / gap[j]
    eta_err = 0.0
    if d > 0:
        eta_hat = ops.q @ top_eigenvectors(ops.m_prime, d)
        eta_err = span_projection_error(eta_hat, model.R, d)
    return ErrorRecord(epsilon=ops.epsilon, err_r1=err_r1, err_r2=err_r2,
                       err_m=err_m, d=d, proj_err=proj_err, gap=gap,
                       bound_ok=bound_ok, bound_applicable=applicable,
                       eta_span_err=eta_err)
