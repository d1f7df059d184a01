import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dpotrf, dsyevd

import gsir
import gsir.estimator
from gsir.cli import main
from gsir.datasets import SyntheticModel, generate
from gsir.modelio import load_fit, write_dataset_csv


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def theory_config(tmp_path, out_name="theory.csv", **overrides):
    doc = {"schema_version": 1, "mode": "theory_table",
           "grid": [[3.0, 1.0], [2.0, 0.2]],
           "output_path": str(tmp_path / out_name)}
    doc.update(overrides)
    return write_json(tmp_path / "theory.json", doc)


def test_theory_subcommand_writes_csv(tmp_path):
    config = theory_config(tmp_path)
    assert main(["theory", "--config", config]) == 0
    lines = (tmp_path / "theory.csv").read_text().splitlines()
    assert lines[0] == "alpha,beta,branch,delta_opt,exponent_opt,rn_sum,rnprime_sum"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "smooth"
    assert lines[2].split(",")[2] == "rough"


def test_mode_subcommand_mismatch_is_config_error(tmp_path):
    config = theory_config(tmp_path)
    assert main(["sim-rate", "--config", config]) == 2


def test_missing_config_is_config_error(tmp_path):
    assert main(["theory", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["theory", "--config", str(path)]) == 2


def test_seed_rejected_for_theory(tmp_path):
    config = theory_config(tmp_path)
    assert main(["theory", "--config", config, "--seed", "3"]) == 2


def test_theory_bound_term_overflow_is_config_error(tmp_path, capsys):
    # epsilon = 7.2e-302, whose n^-1 eps^-7/4 term is beyond float range
    config = theory_config(tmp_path, grid=[[2, 1]], epsilon_constant=1e-300)
    err = assert_config_error(capsys, ["theory", "--config", config])
    assert "epsilon_constant 1e-300 with n_ref 10000" in err and "overflows" in err
    assert not (tmp_path / "theory.csv").exists()


def test_sim_rate_subcommand_deterministic(tmp_path):
    doc = {"schema_version": 1, "mode": "sim_rate", "base_seed": 3,
           "n_grid": [30, 60], "replications": 2, "alpha": 2.0, "beta": 1.0,
           "delta": "optimal", "model": {"j_dim": 10, "y_dim": 2}}
    config = write_json(tmp_path / "sim.json", doc)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sim-rate", "--config", config, "--out", str(a)]) == 0
    assert main(["sim-rate", "--config", config, "--out", str(b),
                 "--threads", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("n,rep,epsilon,err_r1,err_r2,err_m,proj_err_1")


def test_seed_override_changes_sim_output(tmp_path):
    doc = {"schema_version": 1, "mode": "sim_rate", "base_seed": 3,
           "n_grid": [30], "replications": 1, "alpha": 2.0, "beta": 1.0,
           "model": {"j_dim": 8, "y_dim": 1}}
    config = write_json(tmp_path / "sim.json", doc)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sim-rate", "--config", config, "--out", str(a)]) == 0
    assert main(["sim-rate", "--config", config, "--out", str(b),
                 "--seed", "99"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_kernel_recovery_subcommand(tmp_path):
    doc = {"schema_version": 1, "mode": "kernel_recovery", "base_seed": 2,
           "n_grid": [40], "replications": 2,
           "dataset": {"model": "m3_symmetric", "p": 2, "sigma_noise": 0.1},
           "epsilon": 1e-3, "d": 1, "n_test": 100,
           "output_path": str(tmp_path / "rec.csv")}
    config = write_json(tmp_path / "rec.json", doc)
    assert main(["kernel-recovery", "--config", config]) == 0
    rows = list(csv.reader((tmp_path / "rec.csv").open()))
    assert rows[0] == ["n", "rep", "variant", "subspace_dist", "max_cancor", "eig_1"]
    assert len(rows) == 5
    assert {r[2] for r in rows[1:]} == {"gsir1", "gsir2"}


def fit_config_doc(tmp_path, **overrides):
    doc = {"schema_version": 1, "variant": "gsir1",
           "dataset": {"model": "m1_ratio", "p": 2, "sigma_noise": 0.1, "n": 40},
           "kernel_x": {"family": "gaussian"}, "kernel_y": {"family": "gaussian"},
           "epsilon": 1e-2, "d": 1, "base_seed": 7,
           "output_path": str(tmp_path / "model.json")}
    doc.update(overrides)
    return doc


def test_fit_and_predict_flow(tmp_path):
    config = write_json(tmp_path / "fit.json", fit_config_doc(tmp_path))
    assert main(["fit", "--config", config]) == 0
    fit = load_fit(tmp_path / "model.json")
    assert fit.variant == "gsir1"
    assert fit.coefficients.shape == (40, 1)

    x_new, _, _ = generate(SyntheticModel("m1_ratio", 2, 0.1), 25, seed=50)
    pred_in = tmp_path / "new.csv"
    with open(pred_in, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_1", "x_2"])
        for row in x_new:
            writer.writerow([format(v, ".17g") for v in row])
    predict_doc = {"schema_version": 1, "model_path": str(tmp_path / "model.json"),
                   "data_csv": str(pred_in),
                   "output_path": str(tmp_path / "pred.csv")}
    config2 = write_json(tmp_path / "predict.json", predict_doc)
    assert main(["predict", "--config", config2]) == 0
    rows = list(csv.reader((tmp_path / "pred.csv").open()))
    assert rows[0] == ["pred_1"]
    assert len(rows) == 26
    from gsir.estimator import evaluate_predictors
    expect = evaluate_predictors(fit, x_new)
    got = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.array_equal(got, expect)


def test_fit_from_csv_data(tmp_path):
    model = SyntheticModel("m3_symmetric", p=2, sigma_noise=0.1)
    x, y, f = generate(model, 50, seed=3)
    data = tmp_path / "train.csv"
    write_dataset_csv(data, x, y, f)
    doc = fit_config_doc(tmp_path, variant="gsir2")
    del doc["dataset"]
    doc["data_csv"] = str(data)
    config = write_json(tmp_path / "fit.json", doc)
    assert main(["fit", "--config", config]) == 0
    fit = load_fit(tmp_path / "model.json")
    assert fit.variant == "gsir2"
    assert np.array_equal(fit.train_points, x)


BOM = b"\xef\xbb\xbf"   # the UTF-8 BOM, which Excel's "CSV UTF-8" writes first


def test_a_data_file_with_a_bom_fits_and_predicts_as_without(tmp_path):
    x, y, f = generate(SyntheticModel("m3_symmetric", p=2, sigma_noise=0.1), 50, seed=3)
    write_dataset_csv(tmp_path / "plain.csv", x, y, f)
    (tmp_path / "bom.csv").write_bytes(BOM + (tmp_path / "plain.csv").read_bytes())
    out = {}
    for name in ("plain", "bom"):
        doc = fit_config_doc(tmp_path, output_path=str(tmp_path / "model.json"))
        del doc["dataset"]
        doc["data_csv"] = str(tmp_path / f"{name}.csv")
        assert main(["fit", "--config", write_json(tmp_path / "fit.json", doc)]) == 0
        config = predict_config(tmp_path, str(tmp_path / f"{name}.csv"))
        assert main(["predict", "--config", config]) == 0
        out[name] = [(tmp_path / f).read_bytes() for f in ("model.json", "pred.csv")]
    assert out["bom"] == out["plain"]


@pytest.mark.parametrize("command,doc", [
    ("theory", {"schema_version": 1, "mode": "theory_table", "grid": [[2, 1]],
                "output_path": "out.csv"}),
    ("fit", {"schema_version": 1, "variant": "gsir1", "epsilon": 0.1, "d": 1,
             "dataset": {"model": "m1_ratio", "p": 2, "sigma_noise": 0.1, "n": 20},
             "output_path": "out.csv"})])
def test_a_config_with_a_bom_parses(tmp_path, command, doc):
    from gsir.experiments import load_config, parse_config
    path = tmp_path / "config.json"
    path.write_bytes(BOM + json.dumps(doc).encode())
    assert load_config(path, command) == parse_config(doc, command)


def test_fit_requires_exactly_one_source(tmp_path):
    doc = fit_config_doc(tmp_path)
    doc["data_csv"] = "somewhere.csv"
    config = write_json(tmp_path / "fit.json", doc)
    assert main(["fit", "--config", config]) == 2


def test_fit_rank_failure_maps_to_exit_3(tmp_path):
    x = np.linspace(-1.5, 1.5, 8)[:, None]
    data = tmp_path / "line.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_1", "y"])
        for v in x[:, 0]:
            writer.writerow([format(v, ".17g"), format(2 * v, ".17g")])
    doc = fit_config_doc(tmp_path, kernel_x={"family": "linear"},
                         kernel_y={"family": "linear"}, d=2)
    del doc["dataset"]
    doc["data_csv"] = str(data)
    config = write_json(tmp_path / "fit.json", doc)
    assert main(["fit", "--config", config]) == 3


@pytest.mark.parametrize("gram", ["Gy", "Gx"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_reflected_gram_entry_maps_to_exit_3(tmp_path, capsys, monkeypatch,
                                                        gram, value):
    # one bad entry in the triangle of a reflected Gram that LAPACK reads
    # reaches the factorization's check through the Gram's max or min
    built = []

    def corrupt(kernel, points):
        g, top = reflected_gram(kernel, points)
        if len(built) == ("Gy", "Gx").index(gram):     # Gy is built first
            g[3, 7] = value
        built.append(gram)
        return g, top

    reflected_gram = gsir.estimator.reflected_gram
    monkeypatch.setattr(gsir.estimator, "reflected_gram", corrupt)
    config = write_json(tmp_path / "fit.json", fit_config_doc(tmp_path))
    assert main(["fit", "--config", config]) == 3
    assert capsys.readouterr().err == ("numerical failure: centered Gram matrix "
                                       "contains non-finite entries\n")
    assert not (tmp_path / "model.json").exists()


def test_fit_unknown_field_rejected(tmp_path):
    doc = fit_config_doc(tmp_path, shortcut=True)
    config = write_json(tmp_path / "fit.json", doc)
    assert main(["fit", "--config", config]) == 2


def test_predict_rejects_missing_model(tmp_path):
    doc = {"schema_version": 1, "model_path": str(tmp_path / "no.json"),
           "data_csv": str(tmp_path / "no.csv"),
           "output_path": str(tmp_path / "out.csv")}
    config = write_json(tmp_path / "predict.json", doc)
    assert main(["predict", "--config", config]) == 2


def fit_model_file(tmp_path):
    config = write_json(tmp_path / "fit.json", fit_config_doc(tmp_path))
    assert main(["fit", "--config", config]) == 0
    return json.loads((tmp_path / "model.json").read_text())


def write_points(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def predict_config(tmp_path, data_csv):
    doc = {"schema_version": 1, "model_path": str(tmp_path / "model.json"),
           "data_csv": data_csv, "output_path": str(tmp_path / "pred.csv")}
    return write_json(tmp_path / "predict.json", doc)


def assert_config_error(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("field,value", [
    ("kernel_x", "gaussian"),
    ("kernel_x", {"family": "gaussian"}),
    ("kernel_y", {"family": 3, "gamma": 1.0}),
    ("kernel_x", {"family": "gaussian", "gamma": "1"}),
    ("kernel_x", {"family": "gaussian", "gamma": 10 ** 400}),
    ("d", "1"),
    ("d", 1.0),
    ("epsilon", None),
    ("train_points", [[0.5, 0.1]] * 39 + [[0.5]]),
    ("train_points", "abc"),
    ("coefficients", [[0.5], [1.0]] * 20 + [[1.0, 2.0]]),
    ("version", True),
    ("version", 1.0),
    ("kernel_x", {"family": "gaussian", "gamma": 0.5, "scale": 2.0}),
    ("epsilon", 0.0),
    ("epsilon", -1e-3),
])
def test_predict_malformed_model_is_config_error(tmp_path, capsys, field, value):
    doc = fit_model_file(tmp_path)
    doc[field] = value
    (tmp_path / "model.json").write_text(json.dumps(doc))
    data = write_points(tmp_path / "new.csv", ["x_1", "x_2"], [[0.1, 0.2]])
    assert_config_error(capsys, ["predict", "--config",
                                 predict_config(tmp_path, data)])


@pytest.mark.parametrize("field", ["train_points", "coefficients", "eigenvalues"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True])
def test_predict_rejects_non_finite_model(tmp_path, capsys, field, bad):
    # numpy reads true among numbers as 1.0
    doc = fit_model_file(tmp_path)
    if field == "eigenvalues":
        doc[field][0] = bad
    else:
        doc[field][0][0] = bad
    (tmp_path / "model.json").write_text(json.dumps(doc))
    data = write_points(tmp_path / "new.csv", ["x_1", "x_2"], [[0.1, 0.2]])
    assert_config_error(capsys, ["predict", "--config",
                                 predict_config(tmp_path, data)])
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_data_csv_is_config_error(tmp_path, capsys, bad):
    fit_model_file(tmp_path)
    data = write_points(tmp_path / "new.csv", ["x_1", "x_2"],
                        [[0.1, 0.2], [bad, 0.3]])
    assert_config_error(capsys, ["predict", "--config",
                                 predict_config(tmp_path, data)])

    train = write_points(tmp_path / "train.csv", ["x_1", "y"],
                         [[0.1 * i, 1.0] for i in range(9)] + [[0.5, bad]])
    doc = fit_config_doc(tmp_path)
    del doc["dataset"]
    doc["data_csv"] = train
    config = write_json(tmp_path / "fit.json", doc)
    assert_config_error(capsys, ["fit", "--config", config])


def test_fit_rejects_negative_seed_override(tmp_path, capsys):
    config = write_json(tmp_path / "fit.json", fit_config_doc(tmp_path))
    assert_config_error(capsys, ["fit", "--config", config, "--seed", "-1"])


def test_seed_rejected_for_predict(tmp_path, capsys):
    fit_model_file(tmp_path)
    data = write_points(tmp_path / "new.csv", ["x_1", "x_2"], [[0.1, 0.2]])
    assert_config_error(capsys, ["predict", "--config",
                                 predict_config(tmp_path, data), "--seed", "5"])
    assert not (tmp_path / "pred.csv").exists()


def test_predict_column_mismatch_is_config_error(tmp_path, capsys):
    fit_model_file(tmp_path)
    data = write_points(tmp_path / "new.csv", ["x_1", "x_2", "x_3"],
                        [[0.1, 0.2, 0.3]])
    assert_config_error(capsys, ["predict", "--config",
                                 predict_config(tmp_path, data)])
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("command,doc", [
    ("sim-rate", {"schema_version": 1, "mode": "sim_rate", "base_seed": 3,
                  "n_grid": [30], "replications": 1, "alpha": 2.0, "beta": 1.0,
                  "model": {"j_dim": 8, "y_dim": 1}}),
    ("kernel-recovery", {"schema_version": 1, "mode": "kernel_recovery",
                         "base_seed": 2, "n_grid": [40], "replications": 1,
                         "dataset": {"model": "m3_symmetric", "p": 2,
                                     "sigma_noise": 0.1},
                         "epsilon": 1e-3, "d": 1, "n_test": 100}),
])
def test_experiment_rejects_negative_seed_override(tmp_path, capsys, command, doc):
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "out.csv"
    assert_config_error(capsys, [command, "--config", config, "--seed", "-1",
                                 "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command,doc", [
    ("theory", {"schema_version": 1, "mode": "theory_table",
                "grid": [[float("inf"), 1.0]], "output_path": "out.csv"}),
    ("theory", {"schema_version": 1, "mode": "theory_table",
                "grid": [[10 ** 400, 1.0]], "output_path": "out.csv"}),
    ("theory", {"schema_version": 1, "mode": "theory_table", "n_ref": 10 ** 400,
                "grid": [[2.0, 1.0]], "output_path": "out.csv"}),
    ("theory", {"schema_version": True, "mode": "theory_table",
                "grid": [[2.0, 1.0]], "output_path": "out.csv"}),
    ("sim-rate", {"schema_version": 1, "mode": "sim_rate", "base_seed": 3,
                  "n_grid": [30], "replications": 1, "alpha": 10 ** 400,
                  "beta": 1.0, "model": {"j_dim": 8, "y_dim": 1},
                  "output_path": "out.csv"}),
    ("kernel-recovery", {"schema_version": 1, "mode": "kernel_recovery",
                         "base_seed": 2, "n_grid": [40], "replications": 1,
                         "dataset": {"model": "m3_symmetric", "p": 2,
                                     "sigma_noise": float("nan")},
                         "epsilon": 1e-3, "d": 1, "n_test": 100,
                         "output_path": "out.csv"}),
])
def test_non_finite_or_mistyped_config_is_config_error(tmp_path, capsys,
                                                       monkeypatch, command, doc):
    # json reads NaN, Infinity and integers beyond float range
    monkeypatch.chdir(tmp_path)
    config = write_json(tmp_path / "exp.json", doc)
    assert_config_error(capsys, [command, "--config", config])
    assert not (tmp_path / "out.csv").exists()


def test_fit_null_output_path_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_json(tmp_path / "fit.json",
                        fit_config_doc(tmp_path, output_path=None))
    assert_config_error(capsys, ["fit", "--config", config])
    assert not (tmp_path / "None").exists()


# too deep for the decoder, or an integer longer than Python converts
UNREADABLE_JSON = pytest.mark.parametrize(
    "text", ["[" * 100000 + "]" * 100000, '{"schema_version": ' + "9" * 5000 + "}"],
    ids=["deep", "long_int"])


@UNREADABLE_JSON
def test_unreadable_json_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "exp.json"
    path.write_text(text)
    assert_config_error(capsys, ["theory", "--config", str(path)])


@UNREADABLE_JSON
def test_unreadable_model_json_is_config_error(tmp_path, capsys, text):
    (tmp_path / "model.json").write_text(text)
    data = write_points(tmp_path / "new.csv", ["x_1", "x_2"], [[0.1, 0.2]])
    assert_config_error(capsys, ["predict", "--config",
                                 predict_config(tmp_path, data)])


def overflowing_fit_config(tmp_path):
    # a linear kernel on values near 1e200 overflows Gx
    x = np.random.default_rng(4).standard_normal((30, 2)) * 1e200
    rows = [[format(v, ".17g") for v in (*row, row[0] / 1e200)] for row in x]
    data = write_points(tmp_path / "huge.csv", ["x_1", "x_2", "y"], rows)
    doc = fit_config_doc(tmp_path, kernel_x={"family": "linear"})
    del doc["dataset"]
    doc["data_csv"] = data
    return write_json(tmp_path / "fit.json", doc)


def test_overflowing_gram_is_numerical_failure(tmp_path, capsys):
    # nothing is written
    config = overflowing_fit_config(tmp_path)
    capsys.readouterr()
    assert main(["fit", "--config", config]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not (tmp_path / "model.json").exists()


def test_overflowing_gram_stderr_is_one_line(tmp_path):
    # In a fresh interpreter, where pytest does not capture numpy's
    # RuntimeWarnings, stderr holds the one numerical-failure line only.
    config = overflowing_fit_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(gsir.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gsir.cli", "fit", "--config",
                           config], env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure:")
    assert proc.stderr.count("\n") == 1


def test_overflowing_cross_gram_is_numerical_failure(tmp_path, capsys):
    # A linear-kernel model on rows near the float maximum: the cross-Gram
    # overflows, and predict writes no NaN rows, exits 3, and prints one
    # line, through main() and in a fresh interpreter, where numpy's
    # RuntimeWarnings would show.
    config = write_json(tmp_path / "fit.json",
                        fit_config_doc(tmp_path, kernel_x={"family": "linear"}))
    assert main(["fit", "--config", config]) == 0
    data = write_points(tmp_path / "huge.csv", ["x_1", "x_2"],
                        [["1.7e308", "1.7e308"], ["0.5", "0.25"]])
    capsys.readouterr()
    assert main(["predict", "--config", predict_config(tmp_path, data)]) == 3
    assert capsys.readouterr().err == ("numerical failure: predictions are not finite: "
                                       "the cross-Gram overflows\n")
    assert not (tmp_path / "pred.csv").exists()
    env = dict(os.environ, PYTHONPATH=str(Path(gsir.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gsir.cli", "predict", "--config",
                           predict_config(tmp_path, data)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure:")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "pred.csv").exists()


def assert_numerical_failure(capsys, argv, output):
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "Traceback" not in err and not output.exists()
    return err


@pytest.mark.parametrize("name,fault,message", [
    ("dsyevd", lambda *a, **k: (*dsyevd(*a, **k)[:2], 1),
     "eigendecomposition of the objective failed (info=1)"),
    ("centering_reflector", lambda n: np.full(n, np.nan),
     "fitted coefficients are not finite"),
    ("dpotrf", lambda *a, **k: (dpotrf(*a, **k)[0], 1),
     "Cholesky factorization of S failed (info=1)"),
], ids=["dsyevd_info", "nan_coefficients", "dpotrf_info"])
def test_fit_numerical_failure_exits_3_and_writes_no_model(tmp_path, capsys, monkeypatch,
                                                         name, fault, message):
    # a LAPACK call of the solve reports info > 0, or a NaN reaches the
    # coefficients (through the reflector that maps them back)
    import gsir.estimator
    monkeypatch.setattr(gsir.estimator, name, fault)
    config = write_json(tmp_path / "fit.json", fit_config_doc(tmp_path))
    err = assert_numerical_failure(capsys, ["fit", "--config", config],
                                   tmp_path / "model.json")
    assert err == f"numerical failure: {message}\n"


def test_sim_rate_eigh_failure_exits_3_and_writes_no_csv(tmp_path, capsys, monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    doc = {"schema_version": 1, "mode": "sim_rate", "base_seed": 3, "n_grid": [30, 60],
           "replications": 1, "alpha": 2.0, "beta": 1.0, "delta": "optimal",
           "model": {"j_dim": 10, "y_dim": 2}, "output_path": str(tmp_path / "sim.csv")}
    err = assert_numerical_failure(
        capsys, ["sim-rate", "--config", write_json(tmp_path / "sim.json", doc)],
        tmp_path / "sim.csv")
    assert err == ("numerical failure: symmetric eigendecomposition failed: "
                   "Eigenvalues did not converge\n")


def tiny_epsilon_sim(tmp_path, epsilon_constant, alpha=2.0, j_dim=30, n_grid=(10, 12, 14)):
    # n <= J: sxx is singular, and r1 grows like 1 / epsilon along its null space
    return write_json(tmp_path / "sim.json", {
        "schema_version": 1, "mode": "sim_rate", "base_seed": 1, "n_grid": list(n_grid),
        "replications": 2, "alpha": alpha, "beta": 1.0, "delta": "optimal",
        "epsilon_constant": epsilon_constant, "model": {"j_dim": j_dim, "y_dim": 2},
        "output_path": str(tmp_path / "sim.csv")})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sim_rate_overflowing_err_m_exits_3_with_one_line(tmp_path, capsys):
    # through main() and in a fresh interpreter, where numpy's RuntimeWarnings
    # would show
    config = tiny_epsilon_sim(tmp_path, 1e-200)
    err = assert_numerical_failure(capsys, ["sim-rate", "--config", config],
                                   tmp_path / "sim.csv")
    assert err == "numerical failure: err_m = ||m - M|| is not finite at epsilon 5.179e-201\n"
    env = dict(os.environ, PYTHONPATH=str(Path(gsir.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gsir.cli", "sim-rate", "--config", config],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stderr == err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("j_dim", [12, 30])
def test_sim_rate_tiny_epsilon_warns_nowhere(tmp_path, capsys, j_dim):
    # below a constant of about 1e-170 err_m overflows (exit 3); no run warns
    for constant in np.logspace(-200, -150, 26):
        code = main(["sim-rate", "--config", tiny_epsilon_sim(tmp_path, constant,
                                                               j_dim=j_dim)])
        err = capsys.readouterr().err
        assert (code, err) == (0, "") or (code == 3 and err.count("\n") == 1), constant


def test_sim_rate_rank_deficient_predictor_span_exits_3(tmp_path, capsys):
    # at n <= J and epsilon ~ 1e-60, eta_hat's weights span about 30 orders of
    # magnitude and its columns lose rank
    config = tiny_epsilon_sim(tmp_path, 1e-60, alpha=1.1, j_dim=12, n_grid=(10, 15, 20))
    err = assert_numerical_failure(capsys, ["sim-rate", "--config", config],
                                   tmp_path / "sim.csv")
    assert err == "numerical failure: matrix has numerical rank below 2\n"


def test_non_finite_report_cell_exits_3_and_writes_no_csv(tmp_path, capsys, monkeypatch):
    # the CSV writer refuses the NaN that a runner let through
    monkeypatch.setattr("gsir.experiments.rate_bound_terms",
                        lambda *args: ((), float("nan")))
    err = assert_numerical_failure(capsys, ["theory", "--config", theory_config(tmp_path)],
                                   tmp_path / "theory.csv")
    assert err == "numerical failure: a cell to write is nan; only finite values are written\n"


@pytest.mark.parametrize("command,doc", [
    ("fit", None),
    ("kernel-recovery", {"schema_version": 1, "mode": "kernel_recovery",
                         "base_seed": 2, "n_grid": [40], "replications": 1,
                         "dataset": {"model": "m3_symmetric", "p": 2,
                                     "sigma_noise": 0.1},
                         "epsilon": 1e-3, "d": 1, "n_test": 100}),
    # an n whose bytes, in GiB, are beyond float range
    ("kernel-recovery", {"schema_version": 1, "mode": "kernel_recovery",
                         "base_seed": 2, "n_grid": [10 ** 200], "replications": 1,
                         "dataset": {"model": "m3_symmetric", "p": 2,
                                     "sigma_noise": 0.1},
                         "epsilon": 1e-3, "d": 1, "n_test": 100}),
])
def test_dense_path_beyond_physical_memory_is_config_error(tmp_path, capsys,
                                                          monkeypatch, command,
                                                          doc):
    # fit's synthetic dataset is sized from its config's n, before the draw
    import gsir.estimator    # imported here, it would keep the patched gram_matrix
    import gsir.experiments
    import gsir.kernels

    def too_early(*args):
        raise AssertionError("a sample or an n x n array before the memory check")

    monkeypatch.setattr(gsir.experiments, "_physical_memory", lambda: 10 ** 4)
    monkeypatch.setattr(gsir.kernels, "gram_matrix", too_early)
    monkeypatch.setattr(gsir.kernels, "median_bandwidth", too_early)
    monkeypatch.setattr("gsir.cli.resolve_kernel", too_early)
    monkeypatch.setattr("gsir.cli.generate", too_early)
    monkeypatch.setattr("gsir.experiments.generate", too_early)
    doc = doc or fit_config_doc(tmp_path)
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "out.csv"
    assert_config_error(capsys, [command, "--config", config, "--out", str(out)])
    assert not out.exists()


def test_memory_check_counts_concurrent_fits(tmp_path, capsys, monkeypatch):
    # three replications at n=40 on three threads fit three at once
    import gsir.experiments
    from gsir.experiments import DENSE_FIT_ARRAYS

    one_fit = DENSE_FIT_ARRAYS * 8 * 40 ** 2
    monkeypatch.setattr(gsir.experiments, "_physical_memory", lambda: 1.5 * one_fit)
    monkeypatch.setattr(gsir.experiments.os, "cpu_count", lambda: 3)
    config = write_json(tmp_path / "rec.json", with_fields(RECOVERY_DOC, replications=3))
    err = assert_config_error(capsys, ["kernel-recovery", "--config", config,
                                       "--threads", "3"])
    assert "n=40, n_test=100, 3 dense fit(s): 0.000334 GiB needed" in err
    assert main(["kernel-recovery", "--config", config, "--threads", "1"]) == 0


class Drawn(Exception):
    """Raised where a run builds its model or draws: it got past its checks."""


def test_kernel_recovery_counts_its_held_out_design(tmp_path, capsys, monkeypatch):
    # n=40's dense fit fits in 64 MiB, a 10^8-row held-out design at p=5 does not
    import gsir.experiments

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(gsir.experiments, "_physical_memory", lambda: 2 ** 26)
    monkeypatch.setattr(gsir.experiments, "generate", drawn)
    doc = with_fields(RECOVERY_DOC, n_test=10 ** 8, dataset__p=5)
    err = assert_config_error(capsys, ["kernel-recovery", "--config",
                                       write_json(tmp_path / "big.json", doc)])
    assert "n=40, n_test=100000000, 1 dense fit(s): 21.4 GiB needed" in err
    doc["n_test"] = 10 ** 5
    with pytest.raises(Drawn):
        main(["kernel-recovery", "--config", write_json(tmp_path / "small.json", doc)])


@pytest.mark.parametrize("command", ["kernel-recovery", "fit"])
def test_memory_check_counts_the_training_design(tmp_path, capsys, monkeypatch, command):
    # kernel-recovery's 10 x 10^6 training draw alone peaks above 64 MiB, and
    # fit counts 7 n p doubles for its 3 x 10^7 design, 2.1 GB; at p = 10^5
    # both pass the check and reach the draw
    import gsir.experiments

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(gsir.experiments, "_physical_memory", lambda: 2 ** 26)
    monkeypatch.setattr("gsir.cli.generate", drawn)
    monkeypatch.setattr("gsir.experiments.generate", drawn)
    if command == "fit":
        doc = fit_config_doc(tmp_path, dataset={"model": "m1_ratio", "p": 10 ** 7,
                                                "sigma_noise": 0.1, "n": 3})
    else:
        doc = with_fields(RECOVERY_DOC, n_grid=[10], n_test=2, dataset__p=10 ** 6)
    err = assert_config_error(capsys, [command, "--config",
                                       write_json(tmp_path / "big.json", doc)])
    assert f"p={doc['dataset']['p']}, " in err
    doc["dataset"]["p"] = 10 ** 5
    with pytest.raises(Drawn):
        main([command, "--config", write_json(tmp_path / "small.json", doc)])


@pytest.mark.parametrize("fields,threads", [
    ({"n_grid": [20, 10 ** 7]}, 1),                   # one draw at the largest n
    ({"model__j_dim": 10 ** 5}, 1),                   # its J x J operators
    ({"n_grid": [20], "replications": 2 * 10 ** 4,
      "delta": [0.1, 0.2, 0.3, 0.4]}, 1),             # the report's rows
    ({"n_grid": [20, 2 * 10 ** 5]}, 4),               # four workers' draws
], ids=["n", "j_dim", "rows", "workers"])
def test_sim_rate_beyond_physical_memory_is_config_error(tmp_path, capsys, monkeypatch,
                                                        fields, threads):
    # refused before the model is built or any sample drawn; the workers case
    # fits in memory with one thread
    import gsir.experiments

    def drawn(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(gsir.experiments, "_physical_memory", lambda: 2 ** 26)
    monkeypatch.setattr(gsir.experiments.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(gsir.experiments, "build_model", drawn)
    monkeypatch.setattr(gsir.experiments, "simulate_sample", drawn)
    config = write_json(tmp_path / "sim.json", with_fields(SIM_DOC, **fields))
    argv = ["sim-rate", "--config", config, "--threads", str(threads)]
    err = assert_config_error(capsys, argv)
    assert "GiB needed, more than the 0.0625 GiB of physical memory" in err
    if threads > 1:
        with pytest.raises(Drawn):
            main(argv[:-1] + ["1"])


@pytest.mark.parametrize("source", ["dataset", "data_csv"])
def test_fit_sample_too_small_is_config_error(tmp_path, capsys, source):
    # n=5 admits at most d=4 predictors; 2 rows are below the 3 a fit needs
    if source == "dataset":
        doc = fit_config_doc(tmp_path, d=10, dataset={
            "model": "m1_ratio", "p": 2, "sigma_noise": 0.1, "n": 5})
        fragment = "1 <= d <= n - 1 = 4, got 10"
    else:
        doc = fit_config_doc(tmp_path)
        del doc["dataset"]
        doc["data_csv"] = write_points(tmp_path / "two.csv", ["x_1", "y"],
                                       [[0.1, 1.0], [0.2, 2.0]])
        fragment = "at least 3 samples, got 2"
    config = write_json(tmp_path / "fit.json", doc)
    assert fragment in assert_config_error(capsys, ["fit", "--config", config])
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("constant", ["x", "y"])
def test_median_rule_on_degenerate_data_is_config_error(tmp_path, capsys,
                                                        constant):
    # every pairwise distance is zero, so the median rule has no bandwidth
    rows = [[1.0, 0.1 * i] if constant == "x" else [0.1 * i, 1.0]
            for i in range(10)]
    doc = fit_config_doc(tmp_path)
    del doc["dataset"]
    doc["data_csv"] = write_points(tmp_path / "flat.csv", ["x_1", "y"], rows)
    config = write_json(tmp_path / "fit.json", doc)
    err = assert_config_error(capsys, ["fit", "--config", config])
    assert f"'kernel_{constant}'" in err
    assert not (tmp_path / "model.json").exists()


def test_constant_response_with_explicit_gamma_fits(tmp_path):
    doc = fit_config_doc(tmp_path, kernel_y={"family": "gaussian", "gamma": 1.0})
    del doc["dataset"]
    doc["data_csv"] = write_points(tmp_path / "flat.csv", ["x_1", "y"],
                                   [[0.1 * i, 1.0] for i in range(10)])
    config = write_json(tmp_path / "fit.json", doc)
    assert main(["fit", "--config", config]) == 0
    assert (tmp_path / "model.json").exists()


# Arrays of more than 2**57 bytes exceed the largest virtual address space of
# 64-bit CPUs, so numpy's allocation fails at once, before any memory is touched.
@pytest.mark.parametrize("command,doc", [
    ("kernel-recovery", {"schema_version": 1, "mode": "kernel_recovery",
                         "base_seed": 2, "n_grid": [40], "replications": 1,
                         "dataset": {"model": "m3_symmetric", "p": 2,
                                     "sigma_noise": 0.1},
                         "epsilon": 1e-3, "d": 1, "n_test": 10 ** 17}),
    ("fit", {"schema_version": 1, "variant": "gsir1", "epsilon": 1e-2, "d": 1,
             "dataset": {"model": "m1_ratio", "p": 10 ** 17,
                         "sigma_noise": 0.1, "n": 3}}),
])
def test_oversized_allocation_is_config_error(tmp_path, capsys, command, doc):
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "out.csv"
    assert_config_error(capsys, [command, "--config", config, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["theory", "sim-rate", "kernel-recovery",
                                     "fit", "predict"])
def test_every_subcommand_accepts_threads_1(tmp_path, command):
    # the benchmark harness passes --threads 1 to every subcommand
    if command == "theory":
        config = theory_config(tmp_path)
    elif command == "sim-rate":
        config = write_json(tmp_path / "sim.json", {
            "schema_version": 1, "mode": "sim_rate", "base_seed": 3,
            "n_grid": [30], "replications": 1, "alpha": 2.0, "beta": 1.0,
            "model": {"j_dim": 8, "y_dim": 1}})
    elif command == "kernel-recovery":
        config = write_json(tmp_path / "rec.json", {
            "schema_version": 1, "mode": "kernel_recovery", "base_seed": 2,
            "n_grid": [40], "replications": 1,
            "dataset": {"model": "m3_symmetric", "p": 2, "sigma_noise": 0.1},
            "epsilon": 1e-3, "d": 1, "n_test": 100})
    elif command == "fit":
        config = write_json(tmp_path / "fit.json", fit_config_doc(tmp_path))
    else:
        fit_model_file(tmp_path)
        config = predict_config(tmp_path, write_points(
            tmp_path / "new.csv", ["x_1", "x_2"], [[0.1, 0.2]]))
    assert main([command, "--config", config, "--threads", "1"]) == 0


SIM_DOC = {"schema_version": 1, "mode": "sim_rate", "base_seed": 3,
           "n_grid": [20, 40, 80], "replications": 2, "alpha": 2.0, "beta": 1.0,
           "model": {"j_dim": 10, "y_dim": 2}}
RECOVERY_DOC = {"schema_version": 1, "mode": "kernel_recovery", "base_seed": 2,
                "n_grid": [40], "replications": 1,
                "dataset": {"model": "m3_symmetric", "p": 2, "sigma_noise": 0.1},
                "epsilon": 1e-3, "d": 1, "n_test": 100}


def with_fields(doc, **fields):
    """A deep copy of doc; a key "a__b" sets doc["a"]["b"]."""
    doc = json.loads(json.dumps(doc))
    for key, value in fields.items():
        *path, last = key.split("__")
        target = doc
        for part in path:
            target = target[part]
        target[last] = value
    return doc


@pytest.mark.parametrize("command,doc", [
    ("sim-rate", with_fields(SIM_DOC, replications=10 ** 30)),
    ("kernel-recovery", with_fields(RECOVERY_DOC, replications=10 ** 30)),
])
def test_run_size_beyond_task_cap_is_config_error(tmp_path, capsys, monkeypatch,
                                                 command, doc):
    # refused before any sample is drawn or any task list is built
    def no_task(*args, **kwargs):
        raise AssertionError("a task ran")

    monkeypatch.setattr("gsir.experiments.simulate_sample", no_task)
    monkeypatch.setattr("gsir.experiments.generate", no_task)
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "out.csv"
    err = assert_config_error(capsys, [command, "--config", config, "--out", str(out)])
    assert "exceed 1000000 (n, rep) tasks" in err
    assert not out.exists()


@pytest.mark.parametrize("n_grid", [[20, 40, 80], [20, 40]])
@pytest.mark.parametrize("j_dim,y_dim", [(1, 1), (2, 2), (2, 3)])
def test_sim_rate_j_dim_not_above_y_dim_is_config_error(tmp_path, capsys, n_grid,
                                                        j_dim, y_dim):
    # R would span the whole feature space, so every eta_span_err is 0 and
    # the slope fit over three grid points has no positive errors to fit
    doc = with_fields(SIM_DOC, n_grid=n_grid, model={"j_dim": j_dim, "y_dim": y_dim})
    config = write_json(tmp_path / "sim.json", doc)
    out = tmp_path / "sim.csv"
    err = assert_config_error(capsys, ["sim-rate", "--config", config, "--out", str(out)])
    assert "'model.j_dim' must exceed model.y_dim" in err
    assert not out.exists()


# Each input is refused by numpy (a size beyond its index range) or by the
# metrics (two test points for two true predictors) before anything large is
# allocated; a plain ValueError, so a config error, not a numerical failure.
@pytest.mark.parametrize("command,doc", [
    ("sim-rate", with_fields(SIM_DOC, model__j_dim=10 ** 30)),
    ("sim-rate", with_fields(SIM_DOC, n_grid=[20, 10 ** 30])),
    ("kernel-recovery", with_fields(RECOVERY_DOC, n_test=10 ** 19)),
    ("kernel-recovery", with_fields(RECOVERY_DOC, dataset__p=10 ** 30)),
    ("kernel-recovery", with_fields(RECOVERY_DOC, dataset__model="m2_additive",
                                    n_test=2)),
], ids=["j_dim", "n_grid", "n_test", "p", "m2_n_test_2"])
def test_input_errors_found_by_numpy_or_metrics_are_config_errors(
        tmp_path, capsys, command, doc):
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "out.csv"
    assert_config_error(capsys, [command, "--config", config, "--out", str(out)])
    assert not out.exists()


# Each run would fail, or write a CSV short of proj_err columns, only after
# its draws: j^-alpha (or its beta-th power) underflows to 0 beyond j = 1, or
# the metrics get no more test points than the columns they compare.
@pytest.mark.parametrize("command,doc,field", [
    ("sim-rate", with_fields(SIM_DOC, alpha=1e308), "alpha"),
    ("sim-rate", with_fields(SIM_DOC, alpha=1e308, n_grid=[20, 40]), "alpha"),
    ("sim-rate", with_fields(SIM_DOC, beta=1e308), "beta"),
    ("kernel-recovery", with_fields(RECOVERY_DOC, dataset__model="m2_additive",
                                    n_test=2), "n_test"),
    ("kernel-recovery", with_fields(RECOVERY_DOC, d=3, n_test=3), "n_test"),
], ids=["alpha", "alpha_2_grid_points", "beta", "m2_n_test_2", "d3_n_test_3"])
def test_doomed_run_is_refused_before_any_draw(tmp_path, capsys, monkeypatch,
                                               command, doc, field):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("gsir.experiments.simulate_sample", no_draw)
    monkeypatch.setattr("gsir.experiments.generate", no_draw)
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "out.csv"
    err = assert_config_error(capsys, [command, "--config", config, "--out", str(out)])
    assert f"field '{field}'" in err
    assert not out.exists()


def test_sim_rate_reports_d_at_the_numerical_rank_of_r(tmp_path):
    # R's singular values 1 and y_dim^(-alpha beta) = 2^-60 ~ 8.7e-19 do not
    # underflow, but the second is below DEFAULT_CLAMP = 1e-12 times the
    # first: d = 1 < y_dim, a documented outcome, not a config error
    doc = with_fields(SIM_DOC, beta=30.0)
    config = write_json(tmp_path / "sim.json", doc)
    out = tmp_path / "sim.csv"
    assert main(["sim-rate", "--config", config, "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert [c for c in header if c.startswith(("proj_err", "bound_ok"))] == [
        "proj_err_1", "bound_ok_1"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,doc", [
    ("fit", None),
    ("kernel-recovery", with_fields(RECOVERY_DOC, dataset__sigma_noise=1e308)),
])
def test_overflowing_noise_is_config_error_naming_it(tmp_path, capsys, command, doc):
    # sigma_noise * noise overflows the response; numpy warns of nothing
    doc = doc or fit_config_doc(tmp_path, dataset={
        "model": "m1_ratio", "p": 2, "sigma_noise": 1e308, "n": 40})
    config = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "out.csv"
    err = assert_config_error(capsys, [command, "--config", config, "--out", str(out)])
    assert "sigma_noise=1e+308 overflows the response" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_fit_and_predict_without_output_path_are_config_errors(tmp_path, capsys,
                                                                command):
    if command == "fit":
        doc = fit_config_doc(tmp_path)
        del doc["output_path"]
    else:
        fit_model_file(tmp_path)
        doc = {"schema_version": 1, "model_path": str(tmp_path / "model.json"),
               "data_csv": write_points(tmp_path / "new.csv", ["x_1", "x_2"],
                                        [[0.1, 0.2]])}
    config = write_json(tmp_path / "nowhere.json", doc)
    err = assert_config_error(capsys, [command, "--config", config])
    assert f"{command} needs an output path: give --out or 'output_path'" in err


def test_threads_below_1_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--config", theory_config(tmp_path), "--threads", "0"])
    assert exc.value.code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "theory.csv").exists()


def test_exit_code_follows_exception_type(tmp_path, capsys, monkeypatch):
    from gsir.linalg import NumericalError
    from gsir.modelio import ConfigError

    config = theory_config(tmp_path)
    cases = [(ValueError("bad value"), 2, "config error: bad value"),
             (ConfigError("bad field"), 2, "config error: bad field"),
             (MemoryError(), 2, "config error: MemoryError"),
             (OSError("disk gone"), 2, "io error: disk gone"),
             (NumericalError("no rank"), 3, "numerical failure: no rank"),
             (np.linalg.LinAlgError("not converged"), 3,
              "numerical failure: not converged")]
    for exc, code, line in cases:
        def fail(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr("gsir.cli.run_experiment", fail)
        capsys.readouterr()
        assert main(["theory", "--config", config]) == code
        assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("name,lines,fragment", [
    ("noncontiguous", ["x_1,x_3,y", "0.1,0.2,1", "0.3,0.4,2", "0.5,0.6,3"],
     "non-contiguous x_* columns: [1, 3]"),
    ("cell", ["x_1,y", "0.1,1", "abc,2", "0.5,3"], "malformed rows"),
    ("short_row", ["x_1,x_2,y", "0.1,0.2,1", "0.3,0.4", "0.5,0.6,3"],
     "malformed rows"),
    ("blank_line", ["x_1,y", "0.1,1", "", "0.5,3", "0.7,4"], "malformed rows"),
    ("header_only", ["x_1,y"], "needs a header row and data rows"),
    ("no_x", ["z_1,y", "0.1,1", "0.3,2", "0.5,3"], "has no x or x_1.. columns"),
    ("no_y", ["x_1,x_2", "0.1,1", "0.3,2", "0.5,3"], "has no y or y_1.. columns"),
    ("long_row", ["x_1,x_2,y", "0.1,0.2,1", "0.3,0.4,2,99", "0.5,0.6,3"],
     "malformed rows: line 3 has 4 cells, the header has 3"),
    # beyond the csv module's field size limit, which raises csv.Error
    ("huge_cell", ["x_1,y", "0.1,1", "1" * 200000 + ",2", "0.5,3"],
     "malformed rows: field larger than field limit"),
])
def test_malformed_data_csv_is_config_error(tmp_path, capsys, name, lines,
                                            fragment):
    data = tmp_path / f"{name}.csv"
    data.write_text("\n".join(lines) + "\n")
    doc = fit_config_doc(tmp_path)
    del doc["dataset"]
    doc["data_csv"] = str(data)
    config = write_json(tmp_path / "fit.json", doc)
    assert fragment in assert_config_error(capsys, ["fit", "--config", config])
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_data_csv_is_config_error(tmp_path, capsys, command, target):
    data = tmp_path / "data"
    if target == "directory":
        data.mkdir()
    if command == "fit":
        doc = fit_config_doc(tmp_path)
        del doc["dataset"]
        config = write_json(tmp_path / "fit.json", {**doc, "data_csv": str(data)})
    else:
        fit_model_file(tmp_path)
        config = predict_config(tmp_path, str(data))
    err = assert_config_error(capsys, [command, "--config", config])
    assert f"cannot read data file {data}" in err


@pytest.mark.parametrize("delta", [[0.3, 0.3], [0.4, 0.2]])
def test_sim_rate_refuses_a_delta_list_that_does_not_increase(tmp_path, capsys,
                                                              monkeypatch, delta):
    # refused as the config is parsed: a repeated delta would write each row twice
    drawn = []
    monkeypatch.setattr("gsir.experiments.simulate_sample",
                        lambda *args, **kwargs: drawn.append(args))
    out = tmp_path / "sim.csv"
    config = write_json(tmp_path / "sim.json",
                        with_fields(SIM_DOC, delta=delta, output_path=str(out)))
    err = assert_config_error(capsys, ["sim-rate", "--config", config])
    assert "'delta'" in err and "strictly increasing" in err
    assert not drawn and not out.exists()


@pytest.mark.parametrize("header", [["x_1", "x_1", "y"], ["x_1", "y", "y_1"],
                                    ["x", "x_1", "y"]])
def test_fit_refuses_a_data_column_named_twice(tmp_path, capsys, header):
    rows = [[0.1 * i, 0.3 * i * i, np.sin(i)] for i in range(12)]
    doc = fit_config_doc(tmp_path, data_csv=write_points(tmp_path / "train.csv",
                                                         header, rows))
    del doc["dataset"]
    config = write_json(tmp_path / "fit.json", doc)
    assert "non-contiguous" in assert_config_error(capsys, ["fit", "--config", config])
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("header", [["x_1", "x_1"], ["x", "x_1"]])
def test_predict_refuses_a_data_column_named_twice(tmp_path, capsys, header):
    # a one-predictor model, so that reading either column alone would succeed
    config = write_json(tmp_path / "fit.json", fit_config_doc(
        tmp_path, dataset={"model": "m1_ratio", "p": 1, "sigma_noise": 0.1, "n": 40}))
    assert main(["fit", "--config", config]) == 0
    data = write_points(tmp_path / "new.csv", header, [[0.1, 0.2], [0.3, 0.4]])
    err = assert_config_error(capsys, ["predict", "--config",
                                       predict_config(tmp_path, data)])
    assert "non-contiguous x_* columns" in err
    assert not (tmp_path / "pred.csv").exists()


def test_data_columns_are_read_in_index_order(tmp_path):
    from gsir.modelio import read_points_csv
    data = write_points(tmp_path / "d.csv", ["x_2", "y", "x_1"],
                        [[2.0, 0.5, 1.0], [4.0, 0.7, 3.0]])
    x, y = read_points_csv(data, need_response=True)
    assert x.tolist() == [[1.0, 2.0], [3.0, 4.0]] and y.tolist() == [[0.5], [0.7]]


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(1, 30), st.integers(1, 4)).flatmap(lambda shape: st.tuples(
    *(arrays(float, cols, elements=st.floats(allow_nan=False, allow_infinity=False))
      for cols in (shape, (shape[0], 1))))))
def test_written_data_reads_back_bit_for_bit(tmp_path_factory, xy):
    from gsir.modelio import read_points_csv
    x, y = xy
    path = tmp_path_factory.mktemp("roundtrip") / "data.csv"
    write_dataset_csv(path, x, y, -y)
    for need_response in (True, False):
        x_back, y_back = read_points_csv(path, need_response)
        assert x_back.tobytes() == x.tobytes() and x_back.flags.c_contiguous
        if need_response:
            assert y_back.tobytes() == y.tobytes() and y_back.flags.c_contiguous


def test_reading_data_peaks_near_the_parsed_array(tmp_path):
    # one pass parses each cell into a float buffer, so the traced peak is
    # the buffer's growth and the copies out of it, not one Python str per
    # cell (which peaked at about 20 times the arrays' bytes)
    from gsir.modelio import read_points_csv
    from test_estimator import traced_peak
    path = tmp_path / "data.csv"
    write_dataset_csv(path, *generate(SyntheticModel("m3_symmetric", 5, 0.2), 20000, 0))
    for need_response in (False, True):
        out = []
        peak = traced_peak(lambda: out.extend(read_points_csv(path, need_response)))
        assert peak <= 3 * sum(a.nbytes for a in out if a is not None), need_response
