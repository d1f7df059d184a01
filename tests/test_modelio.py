import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import gsir.modelio
from gsir.estimator import evaluate_predictors, fit_gsir1, fit_gsir2
from gsir.kernels import KernelSpec
from gsir.linalg import NumericalError
from gsir.modelio import fit_from_json, load_fit, save_fit, write_csv
from reference_modelio import reference_csv_text, reference_fit_to_json

GAUSS = KernelSpec("gaussian", 0.7)


def make_fit(seed=0, variant=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, 2))
    y = np.cos(x[:, :1]) + 0.05 * rng.standard_normal((20, 1))
    fit_fn = fit_gsir1 if variant == 1 else fit_gsir2
    return fit_fn(x, y, GAUSS, KernelSpec("gaussian", 1.3), 0.05, 2)


def model_text(fit, path):
    """The text save_fit writes to path, without its final newline."""
    save_fit(fit, path)
    return path.read_bytes().decode()[:-1]


@pytest.mark.parametrize("variant", [1, 2])
def test_roundtrip_preserves_fields(tmp_path, variant):
    fit = make_fit(variant=variant)
    back = fit_from_json(model_text(fit, tmp_path / "model.json"))
    assert back.variant == fit.variant
    assert back.kernel_x == fit.kernel_x
    assert back.kernel_y == fit.kernel_y
    assert back.epsilon == fit.epsilon
    assert back.d == fit.d
    assert np.array_equal(back.train_points, fit.train_points)
    assert np.array_equal(back.coefficients, fit.coefficients)
    assert np.array_equal(back.eigenvalues, fit.eigenvalues)


def test_roundtrip_preserves_predictions(tmp_path):
    fit = make_fit(seed=3)
    path = tmp_path / "model.json"
    save_fit(fit, path)
    back = load_fit(path)
    rng = np.random.default_rng(4)
    x_new = rng.standard_normal((15, 2))
    assert np.array_equal(evaluate_predictors(back, x_new),
                          evaluate_predictors(fit, x_new))


def test_document_is_json_with_expected_fields(tmp_path):
    fit = make_fit(seed=5)
    path = tmp_path / "model.json"
    save_fit(fit, path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert set(doc) == {"version", "variant", "kernel_x", "kernel_y", "epsilon",
                        "d", "train_points", "coefficients", "eigenvalues"}
    assert doc["version"] == 1
    assert doc["variant"] == "gsir1"
    assert doc["kernel_x"] == {"family": "gaussian", "gamma": 0.7}


def test_floats_are_written_in_full_precision(tmp_path):
    fit = make_fit(seed=6)
    text = model_text(fit, tmp_path / "model.json")
    value = fit.coefficients[0, 0]
    assert format(value, ".17g") in text


def test_version_mismatch_rejected(tmp_path):
    fit = make_fit(seed=7)
    doc = json.loads(model_text(fit, tmp_path / "model.json"))
    doc["version"] = 99
    with pytest.raises(ValueError, match="version"):
        fit_from_json(json.dumps(doc))


def test_missing_field_rejected(tmp_path):
    doc = json.loads(model_text(make_fit(seed=8), tmp_path / "model.json"))
    del doc["eigenvalues"]
    with pytest.raises(ValueError, match="missing"):
        fit_from_json(json.dumps(doc))


def test_unknown_field_rejected(tmp_path):
    doc = json.loads(model_text(make_fit(seed=9), tmp_path / "model.json"))
    doc["comment"] = "hello"
    with pytest.raises(ValueError, match="unknown"):
        fit_from_json(json.dumps(doc))


def test_inconsistent_shapes_rejected(tmp_path):
    doc = json.loads(model_text(make_fit(seed=10), tmp_path / "model.json"))
    doc["eigenvalues"] = [1.0, 0.5, 0.1]
    with pytest.raises(ValueError, match="shapes"):
        fit_from_json(json.dumps(doc))


def test_unknown_variant_rejected(tmp_path):
    doc = json.loads(model_text(make_fit(seed=11), tmp_path / "model.json"))
    doc["variant"] = "gsir9"
    with pytest.raises(ValueError, match="variant"):
        fit_from_json(json.dumps(doc))


@pytest.mark.parametrize("field,value,fragment", [
    ("version", True, "version"),
    ("version", 1.0, "version"),
    ("kernel_x", {"family": "gaussian", "gamma": 0.7, "scale": 2.0}, "unknown"),
    ("epsilon", 0, "positive"),
    ("epsilon", -0.05, "positive"),
])
def test_config_value_rules_apply_to_models(tmp_path, field, value, fragment):
    doc = json.loads(model_text(make_fit(seed=12), tmp_path / "model.json"))
    doc[field] = value
    with pytest.raises(ValueError, match=fragment):
        fit_from_json(json.dumps(doc))


@pytest.mark.parametrize("field", ["train_points", "coefficients", "eigenvalues"])
def test_bool_inside_model_array_rejected(tmp_path, field):
    # a mixed list of numbers and true reads as a float array with 1.0
    doc = json.loads(model_text(make_fit(seed=13), tmp_path / "model.json"))
    if field == "eigenvalues":
        doc[field][-1] = True
    else:
        doc[field][-1][-1] = True
    with pytest.raises(ValueError, match=field):
        fit_from_json(json.dumps(doc))


def test_non_object_document_rejected():
    with pytest.raises(ValueError, match="object"):
        fit_from_json("[1, 2, 3]")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 24),
       p=st.integers(1, 3), d=st.integers(1, 2),
       epsilon=st.sampled_from([1e-3, 1e-2, 0.3]),
       variant=st.sampled_from(["gsir1", "gsir2"]))
def test_save_load_predict_is_bitwise_identical(tmp_path, seed, n, p, d, epsilon,
                                                variant):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = np.sin(x[:, :1]) + 0.1 * rng.standard_normal((n, 1))
    fit_fn = fit_gsir1 if variant == "gsir1" else fit_gsir2
    fit = fit_fn(x, y, GAUSS, KernelSpec("laplace", 0.9), epsilon, d)
    path = tmp_path / "model.json"
    save_fit(fit, path)
    x_new = rng.standard_normal((7, p))
    assert np.array_equal(evaluate_predictors(load_fit(path), x_new),
                          evaluate_predictors(fit, x_new))


# +-0, the smallest subnormal, a subnormal with 16 digits, the largest
# exponents and values whose 17-digit form is long
SPECIAL = [0.0, -0.0, 5e-324, -1.2345678901234567e-310, 1e308, -1.7976931348623157e308,
           1 / 3, -2.5, 1e-300, 123456789.0]


def special_array(shape, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shape) < 0.5, rng.choice(SPECIAL, shape),
                    rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape))


def written_csv(path, header, rows):
    write_csv(path, header, rows)
    return path.read_bytes().decode()


def with_arrays(fit, a):
    return dataclasses.replace(fit, train_points=a, coefficients=a[:, ::-1],
                               eigenvalues=a[:, 0])


FINITE_ARRAYS = arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=6),
                       elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FINITE_ARRAYS)
def test_write_csv_and_fit_to_json_match_the_reference_writers(tmp_path, a):
    # any finite float through the CSV writer and the model writers
    header = [f"c_{j + 1}" for j in range(a.shape[1])]
    assert written_csv(tmp_path / "a.csv", header, a) == reference_csv_text(header, a)
    fit = with_arrays(make_fit(seed=5), a)
    save_fit(fit, tmp_path / "model.json")
    want = reference_fit_to_json(fit) + "\n"
    assert (tmp_path / "model.json").read_bytes().decode() == want


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FINITE_ARRAYS, st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 35))
def test_model_writers_refuse_any_non_finite_draw(tmp_path, a, bad, at):
    a.flat[at % a.size] = bad
    fit = with_arrays(make_fit(seed=5), a)
    with pytest.raises(NumericalError, match=f"^a cell to write is {bad};"):
        save_fit(fit, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_write_csv_matches_the_csv_writer_on_mixed_rows(tmp_path):
    # the cells the experiment writers emit: ints, numpy scalars, variant and
    # bound_ok strings, floats; given as a list and as a generator
    rows = [[2000, 3, "gsir1", np.float64(-0.0), 5e-324, "na"],
            [np.int64(7), 0, "gsir2", 1e308, np.float64(1 / 3), "1"],
            [1, 2, "optimal", -2.5, 0.1, "0"]]
    header = ["n", "rep", "variant", "subspace_dist", "max_cancor", "bound_ok_1"]
    path = tmp_path / "report.csv"
    assert written_csv(path, header, rows) == reference_csv_text(header, rows)
    assert written_csv(path, header, iter(rows)) == reference_csv_text(header, rows)
    a = special_array((40, 3), 0)
    header = ["x_1", "x_2", "y"]
    assert written_csv(path, header, a) == reference_csv_text(header, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("as_array", [True, False])
def test_write_csv_refuses_a_non_finite_cell_and_leaves_no_file(tmp_path, bad, as_array):
    # also where the path held a file before
    rows = [[10, "gsir1", 0.5, "na"], [20, "gsir2", bad, "1"]]
    if as_array:
        rows = special_array((4, 3), 0)
        rows[2, 1] = bad
    path = tmp_path / "report.csv"
    for _ in range(2):
        with pytest.raises(NumericalError, match=f"^a cell to write is {bad}; only "
                           "finite values are written$"):
            write_csv(path, ["a", "b", "c", "d"][:len(rows[0])], rows)
        assert not path.exists()
        path.write_text("old\n")


@pytest.mark.parametrize("field,bad", [
    *((f, b) for f in ("train_points", "coefficients", "eigenvalues")
      for b in (np.nan, np.inf, -np.inf)),
    ("kernel_y", KernelSpec("linear", np.nan))])
def test_save_fit_refuses_a_non_finite_value_and_leaves_no_file(tmp_path, field, bad):
    # also where the path held a file before
    fit = make_fit(seed=14)
    if field != "kernel_y":
        arr = getattr(fit, field).copy()
        arr.flat[-1] = bad
        bad = arr
    fit = dataclasses.replace(fit, **{field: bad})
    path = tmp_path / "model.json"
    for _ in range(2):
        with pytest.raises(NumericalError, match="only finite values are written$"):
            save_fit(fit, path)
        assert not path.exists()
        path.write_text("old\n")


def test_a_model_file_with_a_bom_loads_as_without(tmp_path):
    fit = make_fit(seed=15)
    save_fit(fit, tmp_path / "model.json")
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "model.json").read_bytes())
    assert model_text(load_fit(bom), tmp_path / "back.json") == \
        model_text(fit, tmp_path / "model.json")


def test_fit_to_json_matches_the_recursive_writer(tmp_path):
    fit = dataclasses.replace(make_fit(seed=6), train_points=special_array((20, 2), 1),
                              coefficients=special_array((20, 2), 2),
                              eigenvalues=special_array(2, 3))
    save_fit(fit, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == \
        (reference_fit_to_json(fit) + "\n").encode()


def test_save_fit_holds_one_row_of_text(tmp_path):
    # two 400 x 300 arrays: 4.1 MB of text, 5 KB a row
    fit = with_arrays(make_fit(seed=7), special_array((400, 300), 4))
    tracemalloc.start()
    try:
        save_fit(fit, tmp_path / "model.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "model.json").stat().st_size / 20
