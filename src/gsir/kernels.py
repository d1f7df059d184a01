"""Kernel Gram matrices, centered Gram matrices, and the median bandwidth rule.

The centered Gram G = Q K Q (Q = I - 11^T/n) represents the covariance
geometry of the feature maps after removing the constant function; every
estimator downstream consumes G, never the raw K.  The fits consume it in
the coordinates of the Householder reflector H with H 1 = -sqrt(n) e_1
(`reflected_gram`): H G H is H K H with its first row and column zeroed,
so the constant vector that centering removes is e_1, an exact zero.
"""

import numpy as np
from dataclasses import dataclass
from scipy.linalg.blas import dsymv, dsyr2
from scipy.spatial.distance import cdist, pdist

FAMILIES = ("gaussian", "laplace", "linear")

# Rows per block of centring: one block x n temporary.
ROW_BLOCK = 32


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its scale parameter (ignored for linear).

    gaussian : k(x, y) = exp(-gamma * ||x - y||^2)
    laplace  : k(x, y) = exp(-gamma * ||x - y||_1)
    linear   : k(x, y) = <x, y>
    """

    family: str
    gamma: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; "
                             f"expected one of {FAMILIES}")
        if self.family != "linear" and not self.gamma > 0:
            raise ValueError(f"{self.family} kernel requires gamma > 0, got {self.gamma}")


def _as_points(x, name="points"):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array of shape (n, p), got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def gram_matrix(spec, x, z=None):
    """Gram matrix k(x_i, z_j); z defaults to x."""
    x = _as_points(x)
    z = x if z is None else _as_points(z, "second point set")
    if x.shape[1] != z.shape[1]:
        raise ValueError(f"point dimensions differ: {x.shape[1]} vs {z.shape[1]}")
    if spec.family == "linear":
        return x @ z.T
    k = cdist(x, z, "sqeuclidean" if spec.family == "gaussian" else "cityblock")
    k *= -spec.gamma
    return np.exp(k, out=k)


@np.errstate(over="ignore", invalid="ignore")
def centered_gram(spec, x):
    """Q K Q in O(n^2) and in K's memory: (g + g^T) / 2, g = K less its row
    means r and column means c plus its grand mean m.  K is bitwise symmetric,
    so a block of rows alone gives ((k_ij - r_i - c_j + m) + (k_ij - r_j - c_i
    + m)) / 2, exactly symmetric.  An overflow leaves non-finite entries, for
    the factorization to reject."""
    x = _as_points(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"centering needs at least 2 points, got {n}")
    k = gram_matrix(spec, x)
    r, c, m = k.mean(axis=1), k.mean(axis=0), k.mean()
    t = np.empty((ROW_BLOCK, n))
    for s in range(0, n, ROW_BLOCK):
        rows = k[s:s + ROW_BLOCK]
        g = np.subtract(rows, r[s:s + ROW_BLOCK, None], out=t[:len(rows)])  # g_ij
        g -= c
        g += m
        rows -= r                               # g_ji
        rows -= c[s:s + ROW_BLOCK, None]
        rows += m
        np.add(g, rows, out=rows)
        rows /= 2.0
    return k


def centering_reflector(n):
    """The unit u of H = I - 2 u u^T, the Householder reflector with
    H 1 = -sqrt(n) e_1 (Golub & Van Loan, Matrix Computations, 5.1).  Then
    H Q H = I - e_1 e_1^T, so H (Q K Q) H is H K H with its first row and
    column zeroed."""
    u = np.ones(n)
    u[0] += np.sqrt(n)
    return u / np.sqrt(2.0 * (n + np.sqrt(n)))


@np.errstate(over="ignore", invalid="ignore")
def reflected_gram(spec, x):
    """(g, top): g = H (Q K Q) H (see `centering_reflector`) in K's memory and
    O(n^2), and top, K's largest diagonal entry.  H K H = K - 2 (u w^T +
    w u^T) with w = K u - (u^T K u) u: one dsymv and one dsyr2.  Only the
    triangle LAPACK reads is written, the lower triangle of the Fortran view
    g.T (g's upper triangle); the other keeps K's entries.  An overflow
    leaves non-finite entries, for the factorization to reject."""
    x = _as_points(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"centering needs at least 2 points, got {n}")
    k = gram_matrix(spec, x)
    top = float(np.max(np.diagonal(k)))
    u = centering_reflector(n)
    p = dsymv(1.0, k.T, u, lower=1)
    dsyr2(-2.0, u, p - (u @ p) * u, a=k.T, lower=1, overwrite_a=1)
    k[0] = 0.0
    k[:, 0] = 0.0
    return k, top


def median_bandwidth(x):
    """gamma = 1 / (2 m^2) where m is the median pairwise Euclidean distance.

    m is selected in place in `pdist`'s output, in O(N) for N pairs, and is
    np.median's value bit for bit: the middle distance, or for even N the
    mean (a + b) / 2 of the two middle ones."""
    x = _as_points(x)
    if x.shape[0] < 2:
        raise ValueError(f"median bandwidth needs at least 2 points, got {x.shape[0]}")
    dists = pdist(x)
    h = len(dists) // 2
    dists.partition(h)
    m = float(dists[h] if len(dists) % 2 else (np.max(dists[:h]) + dists[h]) / 2.0)
    if m == 0.0:
        raise ValueError("median pairwise distance is zero (degenerate point set); "
                         "cannot form a bandwidth")
    return 1.0 / (2.0 * m * m)
