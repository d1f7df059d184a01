"""Subspace-recovery scores for predictor evaluations at common points.

Both metrics compare column spans of two evaluation matrices over the same
m points.  Columns are centered first, because kernel predictors are only
identified modulo additive constants.
"""

import numpy as np

# Relative singular-value threshold for declaring a block rank-deficient.
_RANK_TOL = 1e-10


def _orth_block(a, which):
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"{which} block must be 2-d, got ndim={a.ndim}")
    m, d = a.shape
    if m <= max(d, 1):
        raise ValueError(f"{which} block needs more rows than columns, "
                         f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{which} block contains non-finite entries")
    a = a - a.mean(axis=0)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or not s[-1] > _RANK_TOL * s[0] or s[0] == 0.0:
        raise ValueError(f"{which} block is rank deficient after centering; "
                         "columns must be linearly independent")
    return u


def subspace_distance(a, b):
    """Frobenius norm of the difference of the two span projectors.

    Ranges from 0 (equal spans) to sqrt(d_a + d_b) (orthogonal spans).
    """
    ua = _orth_block(a, "first")
    ub = _orth_block(b, "second")
    if ua.shape[0] != ub.shape[0]:
        raise ValueError(f"blocks evaluate different point counts: "
                         f"{ua.shape[0]} vs {ub.shape[0]}")
    # ||Pa - Pb||_F^2 = da + db - 2 ||Ua^T Ub||_F^2, no m x m matrices needed.
    cross = ua.T @ ub
    val = ua.shape[1] + ub.shape[1] - 2.0 * float(np.sum(cross * cross))
    return float(np.sqrt(max(0.0, val)))


def max_canonical_correlation(a, b):
    """Largest canonical correlation between the two column spans, in [0, 1]."""
    ua = _orth_block(a, "first")
    ub = _orth_block(b, "second")
    if ua.shape[0] != ub.shape[0]:
        raise ValueError(f"blocks evaluate different point counts: "
                         f"{ua.shape[0]} vs {ub.shape[0]}")
    svals = np.linalg.svd(ua.T @ ub, compute_uv=False)
    return float(min(1.0, svals[0])) if svals.size else 0.0
