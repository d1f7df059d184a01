import csv

import numpy as np
import pytest

from gsir.datasets import MODEL_DIMS, SyntheticModel, generate, true_predictors
from gsir.modelio import read_points_csv, write_dataset_csv


def test_model_catalogue():
    assert MODEL_DIMS == {"m1_ratio": 1, "m2_additive": 2, "m3_symmetric": 1}


def test_model_name_is_case_insensitive():
    model = SyntheticModel("M3_Symmetric", p=4, sigma_noise=0.1)
    assert model.name == "m3_symmetric"
    assert model.d_true == 1


def test_model_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown model"):
        SyntheticModel("m9_cubic", p=3, sigma_noise=0.0)


def test_model_rejects_small_p():
    with pytest.raises(ValueError, match="p >= 2"):
        SyntheticModel("m2_additive", p=1, sigma_noise=0.0)


def test_model_rejects_negative_noise():
    with pytest.raises(ValueError, match="sigma_noise"):
        SyntheticModel("m1_ratio", p=2, sigma_noise=-0.5)


def test_m3_root_of_generating_function():
    model = SyntheticModel("m3_symmetric", p=3, sigma_noise=0.0)
    f = true_predictors(model, np.array([[1.0, 5.0, -2.0]]))
    assert f.shape == (1, 1)
    assert f[0, 0] == 0.0


def test_true_predictor_functions():
    x = np.array([[0.5, -1.2, 3.0]])
    m1 = true_predictors(SyntheticModel("m1_ratio", 3, 0.0), x)
    assert abs(m1[0, 0] - np.sin(0.5)) < 1e-15
    m2 = true_predictors(SyntheticModel("m2_additive", 3, 0.0), x)
    assert abs(m2[0, 0] - np.exp(0.5)) < 1e-15
    assert abs(m2[0, 1] - (-1.44)) < 1e-12
    m3 = true_predictors(SyntheticModel("m3_symmetric", 3, 0.0), x)
    assert abs(m3[0, 0] - (-0.75)) < 1e-15


def test_generate_deterministic():
    model = SyntheticModel("m2_additive", p=4, sigma_noise=0.3)
    xa, ya, fa = generate(model, 50, seed=7)
    xb, yb, fb = generate(model, 50, seed=7)
    assert np.array_equal(xa, xb)
    assert np.array_equal(ya, yb)
    assert np.array_equal(fa, fb)


def test_generate_shapes_and_support():
    model = SyntheticModel("m1_ratio", p=6, sigma_noise=0.1)
    x, y, f = generate(model, 200, seed=1)
    assert x.shape == (200, 6)
    assert y.shape == (200, 1)
    assert f.shape == (200, 1)
    assert np.all(np.abs(x) <= 3.0)


def test_generate_rejects_empty():
    model = SyntheticModel("m1_ratio", p=2, sigma_noise=0.0)
    with pytest.raises(ValueError, match="n >= 1"):
        generate(model, 0, seed=0)


@pytest.mark.parametrize("name", sorted(MODEL_DIMS))
def test_noise_free_response_is_sum_of_predictors(name):
    model = SyntheticModel(name, p=4, sigma_noise=0.0)
    x, y, f = generate(model, 100, seed=3)
    assert np.max(np.abs(y[:, 0] - f.sum(axis=1))) == 0.0


@pytest.mark.parametrize("name", sorted(MODEL_DIMS))
def test_only_generating_coordinates_matter(name):
    model = SyntheticModel(name, p=5, sigma_noise=0.0)
    x, y, _ = generate(model, 80, seed=4)
    x_shuffled = x.copy()
    rng = np.random.default_rng(5)
    for col in range(model.d_true, 5):
        x_shuffled[:, col] = rng.permutation(x_shuffled[:, col])
    f2 = true_predictors(model, x_shuffled)
    assert np.array_equal(f2.sum(axis=1), y[:, 0])


def test_write_dataset_csv_ends_rows_in_newline(tmp_path):
    x, y, f = generate(SyntheticModel("m1_ratio", p=2, sigma_noise=0.1), 5, seed=2)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, x, y, f)
    lines = path.read_bytes().split(b"\n")
    assert len(lines) == 7 and lines[-1] == b""
    assert not any(line.endswith(b"\r") for line in lines)


def test_write_dataset_csv_roundtrip(tmp_path):
    model = SyntheticModel("m2_additive", p=3, sigma_noise=0.2)
    x, y, f = generate(model, 20, seed=9)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, x, y, f)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x_1", "x_2", "x_3", "y", "f_1", "f_2"]
    assert len(rows) == 21
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back[:, :3], x)
    assert np.array_equal(back[:, 3], y[:, 0])
    assert np.array_equal(back[:, 4:], f)


@pytest.mark.parametrize("q,names", [(1, ["y"]), (2, ["y_1", "y_2"])])
def test_write_dataset_csv_keeps_every_response_column(tmp_path, q, names):
    x, y, f = generate(SyntheticModel("m1_ratio", p=2, sigma_noise=0.1), 6, seed=4)
    y = np.column_stack([y] + [-y] * (q - 1))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, x, y, f)
    with open(path, newline="") as fh:
        assert next(csv.reader(fh)) == ["x_1", "x_2"] + names + ["f_1"]
    x_back, y_back = read_points_csv(path, need_response=True)
    assert np.array_equal(x_back, x) and np.array_equal(y_back, y)
