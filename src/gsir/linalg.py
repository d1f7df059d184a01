"""Checked linear algebra for symmetric positive semidefinite matrices.

`NumericalError` (exit 3 on the command line), the checked symmetric
eigensolve `symmetric_eigh` (one symmetry check, one clamping rule for tiny
negative eigenvalues) and `operator_norm`.  `spectral_apply` forms a J x J
matrix function: the tests' dense reference for the oracle.
"""

import numpy as np

# Relative threshold below which an eigenvalue counts as zero for
# pseudo-inverses and rank decisions.
DEFAULT_CLAMP = 1e-12

# Allowed asymmetry and allowed negative-eigenvalue mass, both relative.
SYMMETRY_TOL = 1e-8
EIGENVALUE_TOL = 1e-8


class NumericalError(ValueError):
    """A failure caused by the numbers (a ValueError, as LinAlgError is)."""


def symmetric_eigh(m):
    """Eigendecomposition of a nominally symmetric PSD matrix.

    Validates symmetry (relative to the largest entry) and that no eigenvalue
    is more negative than rounding allows, then clamps the remaining small
    negatives to zero.  Returns eigenvalues in ascending order.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix contains non-finite entries")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SYMMETRY_TOL * scale:
        raise NumericalError(f"matrix is not symmetric: max|M - M^T| = {asym:.3e} "
                             f"exceeds {SYMMETRY_TOL:.0e} * max|M| = "
                             f"{SYMMETRY_TOL * scale:.3e}")
    try:
        d, v = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigendecomposition failed: {exc}") from exc
    top = float(d[-1]) if d.size else 0.0
    floor = -EIGENVALUE_TOL * max(top, 0.0)
    if d.size and float(d[0]) < floor:
        raise NumericalError(f"matrix has a negative eigenvalue {d[0]:.3e} below "
                             f"the tolerance {floor:.3e}; not positive semidefinite")
    return np.maximum(d, 0.0), v


def spectral_apply(m, fn):
    """Apply a scalar function of the eigenvalues to a symmetric PSD matrix."""
    d, v = symmetric_eigh(m)
    out = (v * fn(d)) @ v.T
    return (out + out.T) / 2.0


def operator_norm(a):
    """Largest singular value of a (not necessarily square) matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    if a.ndim == 1:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a, 2))
