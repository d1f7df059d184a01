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


def gram_matrix(spec, x, z=None, out=None):
    """Gram matrix k(x_i, z_j); z defaults to x.  Written into out if given."""
    x = _as_points(x)
    z = x if z is None else _as_points(z, "second point set")
    if x.shape[1] != z.shape[1]:
        raise ValueError(f"point dimensions differ: {x.shape[1]} vs {z.shape[1]}")
    if spec.family == "linear":
        return np.matmul(x, z.T, out=out)
    k = cdist(x, z, "sqeuclidean" if spec.family == "gaussian" else "cityblock", out=out)
    k *= -spec.gamma
    return np.exp(k, out=k)


@np.errstate(over="ignore", invalid="ignore")
def centered_gram(spec, x):
    """Q K Q in K's memory, the reference centring (fits use `reflected_gram`):
    (g + g^T) / 2, g = K less its row and column means plus its grand mean,
    symmetrized one row and column at a time.  An overflow leaves non-finite
    entries, for the factorization to reject."""
    x = _as_points(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"centering needs at least 2 points, got {n}")
    k = gram_matrix(spec, x)
    r, c, m = k.mean(axis=1), k.mean(axis=0), k.mean()
    k -= r[:, None]
    k -= c
    k += m
    for i in range(n):
        k[i, i:] = k[i:, i] = (k[i, i:] + k[i:, i]) / 2.0
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


_PAIR_BLOCK, _SAMPLE = 2 ** 19, 8192   # squared distances per block; sampled pairs


def _bracket(x):
    """(lo, hi): the squared distances 4 sigma of rank around the median of those
    of _SAMPLE pairs i != j of x's rows, drawn by a fixed generator."""
    i, j = np.random.default_rng(0).integers(0, [len(x), len(x) - 1], size=(_SAMPLE, 2)).T
    d = x[i] - x[(i + 1 + j) % len(x)]
    t, w = np.sort(np.einsum("ij,ij->i", d, d)), 2 * int(np.sqrt(_SAMPLE))
    return t[_SAMPLE // 2 - w], t[_SAMPLE // 2 + w]


def median_bandwidth(x):
    """gamma = 1 / (2 m^2), m the median pairwise Euclidean distance, bitwise
    np.median(pdist(x)): the middle one or the mean (a + b) / 2 of the two,
    selected among squared distances, whose roots are scipy's distances
    exactly.  N <= _PAIR_BLOCK pairs (n <= 1024) are partitioned in one block.
    Above, one pass over blocks of rows (their pairs with later rows) counts
    those below a fixed sample's bracket (`_bracket`, missed with odds about
    3e-5 a side) and keeps those inside, 4 / sqrt(_SAMPLE) = 4.4% of N, to
    select from; a missed side opens to infinity for another pass, so m is
    exact.  Scratch: a block (4 MiB) and what is kept: 4.6 MiB at n = 2000."""
    x = _as_points(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"median bandwidth needs at least 2 points, got {n}")
    npairs = n * (n - 1) // 2
    r0, r1 = (npairs - 1) // 2, npairs // 2
    if npairs <= _PAIR_BLOCK:
        below, kept = 0, pdist(x, "sqeuclidean")
    else:
        (lo, hi), rows = _bracket(x), max(1, _PAIR_BLOCK // n)
        while True:
            below, kept = 0, []
            for a in range(0, n - 1, rows):
                for s in (pdist(x[a:a + rows], "sqeuclidean"),
                          cdist(x[a:a + rows], x[a + rows:], "sqeuclidean").ravel()):
                    inside = s >= lo
                    below += s.size - np.count_nonzero(inside)
                    inside &= s <= hi
                    kept.append(s[inside])
                    del s, inside        # before the next block is made
            kept = np.concatenate(kept)
            if below <= r0 and r1 < below + len(kept):
                break
            lo = -np.inf if below > r0 else lo      # open the side that missed
            hi = np.inf if below + len(kept) <= r1 else hi
    k = r1 - below
    kept.partition(k)
    m = float((np.sqrt(kept[:k].max() if r0 < r1 else kept[k]) + np.sqrt(kept[k])) / 2.0)
    if m == 0.0:
        raise ValueError("median pairwise distance is zero (degenerate point set); "
                         "cannot form a bandwidth")
    return 1.0 / (2.0 * m * m)
