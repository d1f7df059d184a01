"""Kernel Gram matrices, centered Gram matrices, and the median bandwidth rule.

The centered Gram G = Q K Q (Q = I - 11^T/n) represents the covariance
geometry of the feature maps after removing the constant function; every
estimator downstream consumes G, never the raw K.
"""

import numpy as np
from dataclasses import dataclass
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


def median_bandwidth(x):
    """gamma = 1 / (2 m^2) where m is the median pairwise Euclidean distance."""
    x = _as_points(x)
    if x.shape[0] < 2:
        raise ValueError(f"median bandwidth needs at least 2 points, got {x.shape[0]}")
    dists = pdist(x)
    m = float(np.median(dists))
    if m == 0.0:
        raise ValueError("median pairwise distance is zero (degenerate point set); "
                         "cannot form a bandwidth")
    return 1.0 / (2.0 * m * m)
