import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import pdist

import gsir.kernels
from gsir.datasets import SyntheticModel, generate
from gsir.kernels import (FAMILIES, KernelSpec, centered_gram,
                          centering_reflector, gram_matrix, median_bandwidth,
                          reflected_gram)
from reference_solve import eval_kernel, whole_array_centered_gram

ATOL = 1e-12
VAR_SLACK = 1e-9


def test_eval_kernel_identity_case():
    spec = KernelSpec("gaussian", 1.0)
    assert eval_kernel(spec, [1.0, 2.0], [1.0, 2.0]) == 1.0


def test_eval_kernel_gaussian_analytic():
    # ||x - y||^2 = ln 2 -> exp(-ln 2) = 0.5
    spec = KernelSpec("gaussian", 1.0)
    x = np.array([0.0])
    y = np.array([np.sqrt(np.log(2.0))])
    assert abs(eval_kernel(spec, x, y) - 0.5) < ATOL


def test_eval_kernel_laplace_analytic():
    # ||x - y||_1 = ln 4 -> exp(-ln 4) = 0.25
    spec = KernelSpec("laplace", 1.0)
    assert abs(eval_kernel(spec, [0.0], [np.log(4.0)]) - 0.25) < ATOL


def test_eval_kernel_linear_is_dot_product():
    spec = KernelSpec("linear")
    assert eval_kernel(spec, [1.0, 2.0], [3.0, -1.0]) == 1.0


def test_eval_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions differ"):
        eval_kernel(KernelSpec("gaussian", 1.0), [1.0], [1.0, 2.0])


@pytest.mark.parametrize("family,gamma", [("gaussian", 0.0), ("gaussian", -1.0),
                                          ("laplace", 0.0)])
def test_kernel_spec_rejects_bad_gamma(family, gamma):
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec(family, gamma)


def test_kernel_spec_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        KernelSpec("cauchy", 1.0)


def test_centered_gram_identical_points_is_zero():
    x = np.ones((5, 3))
    g = centered_gram(KernelSpec("gaussian", 2.0), x)
    assert np.max(np.abs(g)) < ATOL


def test_centered_gram_two_point_closed_form():
    # K = [[1, a], [a, 1]] -> G = ((1 - a)/2) [[1, -1], [-1, 1]]
    x = np.array([[0.0], [1.0]])
    spec = KernelSpec("gaussian", 0.7)
    a = eval_kernel(spec, x[0], x[1])
    g = centered_gram(spec, x)
    expect = ((1.0 - a) / 2.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.max(np.abs(g - expect)) < ATOL


@pytest.mark.parametrize("family", ["gaussian", "laplace", "linear"])
def test_centered_gram_matches_triple_loop(family):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 2))
    spec = KernelSpec(family, 0.9)
    g = centered_gram(spec, x)
    n = 5
    k = np.array([[eval_kernel(spec, x[i], x[j]) for j in range(n)]
                  for i in range(n)])
    q = np.eye(n) - np.full((n, n), 1.0 / n)
    brute = q @ k @ q
    assert np.max(np.abs(g - brute)) < 1e-10


def test_centered_gram_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        centered_gram(KernelSpec("gaussian", 1.0), np.zeros((1, 2)))


def test_centered_gram_returns_square_array():
    g = centered_gram(KernelSpec("linear"), np.array([[1.0], [2.0], [4.0]]))
    assert g.shape == (3, 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", ["gaussian", "laplace"])
def test_centered_gram_row_sums_vanish_and_psd(family, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, 3))
    g = centered_gram(KernelSpec(family, 0.5), x)
    assert np.max(np.abs(g.sum(axis=0))) < 1e-9
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() > -1e-9 * max(eigs.max(), 1.0)


def test_centered_gram_permutation_equivariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 2))
    perm = rng.permutation(12)
    spec = KernelSpec("gaussian", 1.3)
    g = centered_gram(spec, x)
    g_perm = centered_gram(spec, x[perm])
    assert np.max(np.abs(g_perm - g[np.ix_(perm, perm)])) < ATOL


@pytest.mark.parametrize("family,seed", [("gaussian", 5), ("laplace", 6),
                                         ("linear", 7)])
def test_variance_embedding_bound(family, seed):
    # Empirical variance of f evaluations <= max k(x,x) * RKHS norm^2, the
    # deterministic form of the variance-domination constant.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 2))
    coef = rng.standard_normal(30)
    spec = KernelSpec(family, 0.8)
    k = gram_matrix(spec, x)
    vals = k @ coef
    var_emp = float(np.mean((vals - vals.mean()) ** 2))
    norm_sq = float(coef @ k @ coef)
    bound = float(np.max(np.diag(k))) * norm_sq * (1.0 + VAR_SLACK)
    assert var_emp <= bound


def test_median_bandwidth_three_points():
    # distances {1, 1, 2}, median 1 -> gamma = 0.5
    assert median_bandwidth(np.array([[0.0], [1.0], [2.0]])) == 0.5


def test_median_bandwidth_two_points():
    # single distance 2 -> gamma = 1/8
    assert median_bandwidth(np.array([[0.0], [2.0]])) == 0.125


def test_median_bandwidth_matches_brute_force():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((20, 3))
    dists = sorted(float(np.linalg.norm(x[i] - x[j]))
                   for i in range(20) for j in range(i + 1, 20))
    m = float(np.median(dists))
    assert abs(median_bandwidth(x) - 1.0 / (2.0 * m * m)) < ATOL


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 25), p=st.integers(1, 3))
def test_median_bandwidth_is_np_median_bitwise(data, n, p):
    # n (n - 1) / 2 pairs: odd for n = 2, 3, 6, 7, ..., even for n = 4, 5, ...;
    # coordinates drawn from a few values give tied distances
    values = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                       st.floats(-100.0, 100.0, allow_nan=False))
    x = data.draw(hnp.arrays(float, (n, p), elements=values))
    m = float(np.median(pdist(x)))
    if m == 0.0:
        with pytest.raises(ValueError, match="degenerate"):
            median_bandwidth(x)
    else:
        assert median_bandwidth(x) == 1.0 / (2.0 * m * m)


def hard_points(kind, n):
    """n points whose pairwise distances tie a lot or span many magnitudes."""
    rng = np.random.default_rng(n)
    lattice = np.array([[i, j] for i in range(7) for j in range(5)], float)
    return {"lattice": lambda: lattice[np.arange(n) % len(lattice)],
            "repeated": lambda: np.tile(rng.standard_normal((30, 3)), (n // 30 + 1, 1))[:n],
            "clusters": lambda: (1e-6 * rng.standard_normal((n, 2))
                                 + 5.0 * (np.arange(n) % 2)[:, None]),
            "rounded": lambda: np.round(generate(SyntheticModel("m3_symmetric", 5, 0.2),
                                                 n, 0)[1], 1),
            "cauchy": lambda: rng.standard_cauchy((n, 2))}[kind]()


@pytest.mark.parametrize("n", [1025, 1500])
@pytest.mark.parametrize("kind", ["lattice", "repeated", "clusters", "rounded", "cauchy"])
def test_blocked_median_bandwidth_is_np_median_bitwise(kind, n):
    # more pairs than one block holds, so the median is selected in a pass
    # over row blocks, inside the sampled bracket
    assert n * (n - 1) // 2 > gsir.kernels._PAIR_BLOCK
    x = hard_points(kind, n)
    m = float(np.median(pdist(x)))
    assert median_bandwidth(x) == 1.0 / (2.0 * m * m)


@pytest.mark.parametrize("bracket", [(0.0, 0.0), (np.inf, np.inf)])
def test_median_bandwidth_opens_a_missed_bracket(monkeypatch, bracket):
    # a bracket below every distance misses the middle ones on the high side,
    # one above every distance on the low side: a second pass opens that side
    x = hard_points("cauchy", 1100)
    m = float(np.median(pdist(x)))
    blocks = []

    def spy(*args, **kwargs):
        blocks.append(args[0].shape[0])
        return cdist(*args, **kwargs)

    cdist = gsir.kernels.cdist
    monkeypatch.setattr(gsir.kernels, "cdist", spy)
    assert median_bandwidth(x) == 1.0 / (2.0 * m * m)
    one_pass = len(blocks)
    monkeypatch.setattr(gsir.kernels, "_bracket", lambda x: bracket)
    assert median_bandwidth(x) == 1.0 / (2.0 * m * m)
    assert len(blocks) == 3 * one_pass        # the unpatched pass, then two


def test_median_bandwidth_scratch_is_not_every_pair():
    # pdist's n (n - 1) / 2 doubles would be 9.0 MB at n = 1500; one block of
    # at most 2^19 squared distances and what the bracket keeps are 0.5 of it
    n = 1500
    x = generate(SyntheticModel("m3_symmetric", 5, 0.2), n, 0)[0]
    tracemalloc.start()
    try:
        median_bandwidth(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 8 * n * (n - 1) / 2


def test_median_bandwidth_degenerate_points():
    with pytest.raises(ValueError, match="degenerate"):
        median_bandwidth(np.zeros((4, 2)))


def test_median_bandwidth_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        median_bandwidth(np.zeros((1, 2)))


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_matrix_fills_the_given_buffer(family):
    rng = np.random.default_rng(3)
    x, z = rng.standard_normal((9, 3)), rng.standard_normal((5, 3))
    spec = KernelSpec(family, 0.7)
    buf = np.full((12, 5), np.nan)
    k = gram_matrix(spec, x, z, out=buf[:9])
    assert np.shares_memory(k, buf) and k.shape == (9, 5)
    assert np.array_equal(k, gram_matrix(spec, x, z))
    assert np.isnan(buf[9:]).all()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [27, 32, 103])
def test_centered_gram_is_bitwise_the_whole_array_expression(family, layout, n):
    # in-place row blocks reproduce (g + g.T) / 2 exactly, and stay symmetric
    base = np.random.default_rng(n).standard_normal((2 * n, 6))
    x = {"C": base[:n, :3], "F": np.asfortranarray(base[:n, :3]),
         "strided": base[::2, ::2]}[layout]
    spec = KernelSpec(family, 0.3)
    g = centered_gram(spec, x)
    assert g.tobytes() == whole_array_centered_gram(spec, x).tobytes()
    assert g.tobytes() == g.T.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 40])
def test_reflected_gram_is_the_centered_gram_in_reflected_coordinates(family, n):
    x = np.random.default_rng(n).standard_normal((n, 3))
    spec = KernelSpec(family, 0.3)
    u = centering_reflector(n)
    h = np.eye(n) - 2.0 * np.outer(u, u)
    assert np.max(np.abs(h @ np.ones(n) + np.sqrt(n) * np.eye(n)[0])) < 1e-14 * n
    g, top = reflected_gram(spec, x)
    assert top == np.max(np.diagonal(gram_matrix(spec, x)))
    # only g's upper triangle (the lower one of the Fortran view g.T) is written
    g = np.triu(g) + np.triu(g, 1).T
    expect = h @ centered_gram(spec, x) @ h
    assert np.all(g[0] == 0.0) and np.all(g[:, 0] == 0.0)
    assert np.max(np.abs(g - expect)) <= 1e-14 * n * np.max(np.abs(expect))
