import numpy as np
import pytest

from gsir.linalg import (NumericalError, inv_shift, inv_sqrt_shift,
                         operator_norm, spectral_apply, sqrt, symmetric_eigh)

ATOL = 1e-12


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    a = rng.standard_normal((n, rank))
    return a @ a.T


def test_symmetric_eigh_diagonal():
    w, v = symmetric_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(sorted(w), [1.0, 2.0, 3.0])
    assert np.allclose(v @ np.diag(w) @ v.T, np.diag([3.0, 1.0, 2.0]))


def test_symmetric_eigh_clamps_tiny_negative():
    m = np.diag([1.0, -1e-14])
    w, _ = symmetric_eigh(m)
    assert w.min() == 0.0


def test_symmetric_eigh_rejects_indefinite():
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        symmetric_eigh(np.diag([1.0, -0.5]))


def test_symmetric_eigh_rejects_asymmetric():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NumericalError, match="symmetric"):
        symmetric_eigh(m)


def test_symmetric_eigh_rejects_nonfinite():
    m = np.array([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(NumericalError, match="finite"):
        symmetric_eigh(m)


def test_symmetric_eigh_rejects_nonsquare():
    with pytest.raises(NumericalError, match="square"):
        symmetric_eigh(np.zeros((2, 3)))


@pytest.mark.parametrize("kind,eps", [("inv_shift", 0.0), ("inv_shift", -1.0),
                                      ("inv_sqrt_shift", 0.0)])
def test_spectral_fn_shift_needs_positive_eps(kind, eps):
    fn = {"inv_shift": inv_shift, "inv_sqrt_shift": inv_sqrt_shift}[kind]
    with pytest.raises(ValueError, match="eps"):
        fn(eps)


def test_inv_shift_closed_form():
    # (M + 0.5 I)^{-1} for M = diag(1, 0): diag(2/3, 2)
    m = np.diag([1.0, 0.0])
    out = spectral_apply(m, inv_shift(0.5))
    assert np.max(np.abs(out - np.diag([2.0 / 3.0, 2.0]))) < ATOL


def test_inv_sqrt_shift_closed_form():
    m = np.diag([1.0, 0.0])
    out = spectral_apply(m, inv_sqrt_shift(0.5))
    expect = np.diag([1.0 / np.sqrt(1.5), 1.0 / np.sqrt(0.5)])
    assert np.max(np.abs(out - expect)) < ATOL


def test_sqrt_closed_form():
    out = spectral_apply(np.diag([4.0, 0.0]), sqrt())
    assert np.max(np.abs(out - np.diag([2.0, 0.0]))) < ATOL


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_inv_shift_matches_solve(seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, 6)
    eps = 0.3
    out = spectral_apply(m, inv_shift(eps))
    direct = np.linalg.inv(m + eps * np.eye(6))
    assert np.max(np.abs(out - direct)) < 1e-9


@pytest.mark.parametrize("seed", [4, 5])
def test_inv_sqrt_shift_squares_to_inv_shift(seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, 5)
    eps = 0.2
    half = spectral_apply(m, inv_sqrt_shift(eps))
    assert np.max(np.abs(half @ half - spectral_apply(m, inv_shift(eps)))) < 1e-9


@pytest.mark.parametrize("seed", [6, 7])
def test_sqrt_squares_back(seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, 5)
    root = spectral_apply(m, sqrt())
    assert np.max(np.abs(root @ root - m)) < 1e-9


def test_spectral_apply_output_is_symmetric():
    rng = np.random.default_rng(8)
    m = random_psd(rng, 7, rank=3)
    out = spectral_apply(m, sqrt())
    assert np.max(np.abs(out - out.T)) == 0.0


def test_spectral_apply_commutes_with_argument():
    rng = np.random.default_rng(9)
    m = random_psd(rng, 6)
    out = spectral_apply(m, inv_shift(0.1))
    assert np.max(np.abs(out @ m - m @ out)) < 1e-9


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((5, 3))
    assert abs(operator_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < ATOL


def test_operator_norm_diag():
    assert operator_norm(np.diag([1.0, -3.0, 2.0])) == 3.0


def test_operator_norm_empty():
    assert operator_norm(np.zeros((0, 4))) == 0.0


def test_operator_norm_vector():
    assert abs(operator_norm(np.array([3.0, 4.0])) - 5.0) < ATOL
