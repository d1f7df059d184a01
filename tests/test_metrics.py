import numpy as np
import pytest

from gsir.metrics import max_canonical_correlation, subspace_distance

SLACK = 1e-9


def rand_block(rng, m, d):
    return rng.standard_normal((m, d))


def test_distance_of_equal_blocks_is_zero():
    rng = np.random.default_rng(0)
    a = rand_block(rng, 30, 2)
    assert subspace_distance(a, a) < 1e-12


# Zero-mean columns, which centering leaves as they are: a and b are
# orthogonal, and c is at 45 degrees to a.
ZM_A = np.array([[1.0], [-1.0], [0.0], [0.0]])
ZM_B = np.array([[0.0], [0.0], [1.0], [-1.0]])
ZM_C = ZM_A + ZM_B


def test_distance_orthogonal_lines():
    assert abs(subspace_distance(ZM_A, ZM_B) - np.sqrt(2.0)) < 1e-12


def test_distance_45_degree_pair():
    assert abs(subspace_distance(ZM_A, ZM_C) - 1.0) < 1e-12


def test_max_cancor_equal_single_column():
    rng = np.random.default_rng(1)
    a = rand_block(rng, 25, 1)
    assert abs(max_canonical_correlation(a, a) - 1.0) < 1e-12


def test_max_cancor_orthogonal_columns():
    assert max_canonical_correlation(ZM_A, ZM_B) < 1e-12


def test_max_cancor_45_degrees():
    assert abs(max_canonical_correlation(ZM_A, ZM_C) - np.sqrt(0.5)) < 1e-12


def test_centering_removes_constant_offsets():
    rng = np.random.default_rng(2)
    a = rand_block(rng, 40, 2)
    shifted = a + np.array([5.0, -3.0])
    # angle noise scales like sqrt(machine eps), so 1e-6 is the honest bar
    assert subspace_distance(a, shifted) < 1e-6
    assert max_canonical_correlation(a, shifted) > 1.0 - 1e-6


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_invariance_under_column_recombination(seed):
    rng = np.random.default_rng(seed)
    a = rand_block(rng, 50, 3)
    b = rand_block(rng, 50, 2)
    ta = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    tb = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
    d0 = subspace_distance(a, b)
    d1 = subspace_distance(a @ ta, b @ tb)
    assert abs(d0 - d1) < SLACK
    c0 = max_canonical_correlation(a, b)
    c1 = max_canonical_correlation(a @ ta, b @ tb)
    assert abs(c0 - c1) < SLACK


@pytest.mark.parametrize("seed", [6, 7])
def test_distance_symmetry_and_triangle(seed):
    rng = np.random.default_rng(seed)
    blocks = [rand_block(rng, 30, 2) for _ in range(3)]
    a, b, c = blocks
    assert abs(subspace_distance(a, b) - subspace_distance(b, a)) < SLACK
    assert (subspace_distance(a, c)
            <= subspace_distance(a, b) + subspace_distance(b, c) + SLACK)


def test_distance_range():
    rng = np.random.default_rng(8)
    a = rand_block(rng, 40, 2)
    b = rand_block(rng, 40, 3)
    val = subspace_distance(a, b)
    assert 0.0 <= val <= np.sqrt(5.0)
    cc = max_canonical_correlation(a, b)
    assert 0.0 <= cc <= 1.0


def test_rank_deficient_first_block():
    a = np.ones((10, 2))
    b = np.random.default_rng(9).standard_normal((10, 2))
    with pytest.raises(ValueError, match="first"):
        subspace_distance(a, b)


def test_rank_deficient_second_block():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((10, 2))
    b = np.column_stack([a[:, 0], 2.0 * a[:, 0]])
    with pytest.raises(ValueError, match="second"):
        max_canonical_correlation(a, b)


def test_constant_column_is_rank_deficient_after_centering():
    rng = np.random.default_rng(11)
    a = np.column_stack([rng.standard_normal(10), np.full(10, 2.5)])
    b = rng.standard_normal((10, 1))
    with pytest.raises(ValueError, match="centering"):
        subspace_distance(a, b)


def test_too_few_rows():
    with pytest.raises(ValueError, match="rows"):
        subspace_distance(np.eye(2), np.eye(2))


def test_mismatched_row_counts():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="point counts"):
        subspace_distance(rng.standard_normal((10, 1)),
                          rng.standard_normal((12, 1)))
