import copy
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsir.experiments import (R2_MIN, SLOPE_TOL, ConfigError, RateReport,
                              derive_seed, load_config, parse_config, run_experiment,
                              run_kernel_recovery, run_sim_rate, run_theory_table)
from gsir.modelio import csv_text
from gsir.rates import fit_loglog_slope
from gsir.seqsim import (build_model, error_report, estimate_regression_ops,
                         simulate_sample)

SIM_DOC = {
    "schema_version": 1,
    "mode": "sim_rate",
    "base_seed": 11,
    "n_grid": [40, 80],
    "replications": 2,
    "alpha": 2.0,
    "beta": 1.0,
    "delta": "optimal",
    "model": {"j_dim": 12, "y_dim": 2},
}

RECOVERY_DOC = {
    "schema_version": 1,
    "mode": "kernel_recovery",
    "base_seed": 5,
    "n_grid": [40, 60],
    "replications": 2,
    "dataset": {"model": "m3_symmetric", "p": 2, "sigma_noise": 0.1},
    "epsilon": 1e-3,
    "d": 1,
    "n_test": 200,
}

THEORY_DOC = {
    "schema_version": 1,
    "mode": "theory_table",
    "grid": [[3.0, 1.0], [2.0, 0.2], [50.0, 1.0]],
}


def sim_doc(**overrides):
    doc = copy.deepcopy(SIM_DOC)
    doc.update(overrides)
    return doc


def report_csv(report):
    """The CSV text a run writes to its output_path."""
    return csv_text(report.header, report.rows)


def test_parse_sim_rate_defaults():
    config = parse_config(sim_doc(), "sim-rate")
    assert config.mode == "sim_rate"
    assert config.deltas == ()
    assert config.epsilon_constant == 1.0
    assert config.model.s_kind == "identity"


@pytest.mark.parametrize("doc,fragment", [
    ({"schema_version": 2, "mode": "sim_rate"}, "schema_version"),
    ({"schema_version": 1}, "mode"),
    ({"schema_version": 1, "mode": "warp"}, "mode"),
    (sim_doc(alpha=1.0), "alpha"),
    (sim_doc(beta=0.0), "beta"),
    (sim_doc(delta=0.0), "delta"),
    (sim_doc(delta=1.5), "delta"),
    (sim_doc(n_grid=[80, 40]), "n_grid"),
    (sim_doc(n_grid=[5, 40]), "n_grid"),
    (sim_doc(n_grid=[]), "n_grid"),
    (sim_doc(replications=0), "replications"),
    (sim_doc(extra_knob=1), "extra_knob"),
    (sim_doc(model={"j_dim": 12, "turbo": True}), "turbo"),
    (sim_doc(model={"s_kind": "dense"}), "s_kind"),
    (sim_doc(model={"residual_kind": "cauchy"}), "residual_kind"),
    (sim_doc(epsilon_constant=-1.0), "epsilon_constant"),
    (sim_doc(base_seed="abc"), "base_seed"),
    (sim_doc(model={"j_dim": 2, "y_dim": 2}), "'model.j_dim' must exceed"),
    (sim_doc(model={"j_dim": 2, "y_dim": 3}), "'model.j_dim' must exceed"),
    # 3^-700 and (2^-2)^600 are 0 in float64
    (sim_doc(alpha=700.0), "'alpha' needs .* < 745.1"),
    (sim_doc(beta=600.0), "'beta' needs .* < 745.1"),
])
def test_config_errors_name_the_field(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(doc, "sim-rate")


def test_recovery_config_checks_d_against_grid():
    doc = copy.deepcopy(RECOVERY_DOC)
    doc["d"] = 40
    with pytest.raises(ConfigError, match="min\\(n_grid\\)"):
        parse_config(doc, "kernel-recovery")


def test_recovery_config_rejects_bad_dataset():
    doc = copy.deepcopy(RECOVERY_DOC)
    doc["dataset"] = {"model": "m7_spiral", "p": 2, "sigma_noise": 0.1}
    with pytest.raises(ConfigError, match="dataset"):
        parse_config(doc, "kernel-recovery")


def test_theory_config_rejects_alpha_at_one():
    doc = copy.deepcopy(THEORY_DOC)
    doc["grid"] = [[1.0, 0.5]]
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(doc, "theory")


FIT_DOC = {
    "schema_version": 1,
    "variant": "gsir1",
    "dataset": {"model": "m1_ratio", "p": 2, "sigma_noise": 0.1, "n": 40},
    "kernel_x": {"family": "gaussian", "gamma": "median"},
    "kernel_y": {"family": "laplace", "gamma": 0.5},
    "epsilon": 1e-3,
    "d": 1,
    "base_seed": 0,
    "output_path": "model.json",
}

PREDICT_DOC = {
    "schema_version": 1,
    "model_path": "model.json",
    "data_csv": "points.csv",
    "output_path": "pred.csv",
}

# (valid document, subcommand) for each of the five config kinds
CONFIG_KINDS = [
    (sim_doc(delta=[0.3, 0.5], output_path="sim.csv"), "sim-rate"),
    (RECOVERY_DOC, "kernel-recovery"),
    (THEORY_DOC, "theory"),
    (FIT_DOC, "fit"),
    (PREDICT_DOC, "predict"),
]


def _paths(doc, prefix=()):
    """Every position in a JSON document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_FIELD_NAMES = sorted({p[-1] for doc, _ in CONFIG_KINDS for p in _paths(doc)
                       if isinstance(p[-1], str)})
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    # integers beyond float range
    st.integers(2 ** 1024, 10 ** 400), st.integers(-10 ** 400, -2 ** 1024),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0, -1, 1, 1.5,
                     "median", "optimal", "gaussian", "m3_symmetric", ""]))
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(_FIELD_NAMES),
                                  st.text(max_size=4)), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_replaced_field_gives_config_or_config_error(tmp_path_factory, data):
    doc, command = data.draw(st.sampled_from(CONFIG_KINDS))
    doc = copy.deepcopy(doc)
    *parents, last = data.draw(st.sampled_from(list(_paths(doc))))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = data.draw(JSON_VALUES)
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(doc))
    try:
        config = load_config(path, command)
    except ConfigError:
        return
    assert dataclasses.is_dataclass(config)


def test_derive_seed_depends_on_all_parts():
    states = {(b, n, r): derive_seed(b, n, r).generate_state(4).tobytes()
              for b in (0, 1) for n in (100, 200) for r in (0, 1)}
    assert len(set(states.values())) == len(states)


def test_sim_rate_row_count_and_order():
    report = run_sim_rate(parse_config(sim_doc(), "sim-rate"))
    assert isinstance(report, RateReport)
    assert len(report.rows) == 2 * 2
    keys = [(n, rep) for n, rep, *_ in report.rows]
    assert keys == sorted(keys)
    assert report.summary["delta_opt"] == pytest.approx(2.0 / 7.0)
    assert report.summary["branch"] == "smooth"


def test_sim_rate_slopes_fit_the_per_n_medians():
    config = parse_config(sim_doc(n_grid=[40, 80, 160]), "sim-rate")
    report = run_sim_rate(config)
    (med,) = report.summary["by_delta"]
    # eta_span_err is no CSV column: recompute each row's record
    model = build_model(12, 2, 2.0, 1.0, seed=11)
    records = {}
    for n, rep, eps, *_ in report.rows:
        sample = simulate_sample(model, n, derive_seed(11, n, rep))
        records.setdefault(n, []).append(
            error_report(model, estimate_regression_ops(sample, eps)))
    assert sorted(records) == list(config.n_grid)
    for name in ("err_r1", "err_r2", "err_m", "eta_span_err"):
        medians = [np.median([getattr(rec, name) for rec in records[n]])
                   for n in config.n_grid]
        assert [med[f"median_{name}"][n] for n in config.n_grid] == medians
        line = fit_loglog_slope(config.n_grid, medians)
        assert (med[f"slope_{name}"], med[f"r2_{name}"]) == (line.slope, line.r_squared)
    assert med["slope_within_tolerance"] == (
        abs(med["slope_err_r1"] + report.summary["exponent_opt"]) <= SLOPE_TOL
        and med["r2_err_r1"] >= R2_MIN)


def test_sim_rate_delta_sweep_rows():
    config = parse_config(sim_doc(delta=[0.2, 0.4]), "sim-rate")
    report = run_sim_rate(config)
    assert len(report.rows) == 2 * 2 * 2
    assert "argmin_delta_by_n" in report.summary


def test_sim_rate_threads_match_serial():
    config = parse_config(sim_doc(), "sim-rate")
    a = run_sim_rate(config, threads=1)
    b = run_sim_rate(config, threads=4)
    assert report_csv(a) == report_csv(b)


def test_sim_rate_csv_schema():
    report = run_sim_rate(parse_config(sim_doc(), "sim-rate"))
    text = report_csv(report)
    lines = text.splitlines()
    assert lines[0] == ("n,rep,epsilon,err_r1,err_r2,err_m,"
                        "proj_err_1,proj_err_2,bound_ok_1,bound_ok_2")
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert first[0] == "40"
    assert first[1] == "0"
    assert first[8] in ("0", "1", "na")


def test_sim_rate_rows_recomputable():
    config = parse_config(sim_doc(), "sim-rate")
    report = run_sim_rate(config)
    model = build_model(12, 2, 2.0, 1.0, seed=11)
    rng = np.random.default_rng(0)
    col = report.header.index
    for idx in rng.choice(len(report.rows), size=3, replace=False):
        row = report.rows[int(idx)]
        n, rep = row[col("n")], row[col("rep")]
        sample = simulate_sample(model, n, derive_seed(11, n, rep))
        rec = error_report(model, estimate_regression_ops(sample, row[col("epsilon")]))
        assert rec.err_r1 == row[col("err_r1")]
        assert rec.err_m == row[col("err_m")]


def test_sim_rate_csv_deterministic(tmp_path):
    config = parse_config(sim_doc(output_path=str(tmp_path / "a.csv")), "sim-rate")
    run_sim_rate(config)
    config2 = parse_config(sim_doc(output_path=str(tmp_path / "b.csv")), "sim-rate")
    run_sim_rate(config2, threads=3)
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b


def test_recovery_row_count_and_schema():
    report = run_kernel_recovery(
        parse_config(copy.deepcopy(RECOVERY_DOC), "kernel-recovery"))
    # two variants per (n, rep)
    assert len(report.rows) == 2 * 2 * 2
    variants = {row[report.header.index("variant")] for row in report.rows}
    assert variants == {"gsir1", "gsir2"}
    text = report_csv(report)
    lines = text.splitlines()
    assert lines[0] == "n,rep,variant,subspace_dist,max_cancor,eig_1"
    assert len(lines) == 1 + len(report.rows)


def test_recovery_summary_contents():
    report = run_kernel_recovery(
        parse_config(copy.deepcopy(RECOVERY_DOC), "kernel-recovery"))
    for variant in ("gsir1", "gsir2"):
        per = report.summary["by_variant"][variant]
        assert set(per["median_max_cancor"]) == {40, 60}
        assert all(0.0 <= v <= 1.0 for v in per["median_max_cancor"].values())


def test_recovery_deterministic_bytes(tmp_path):
    doc = copy.deepcopy(RECOVERY_DOC)
    doc["output_path"] = str(tmp_path / "r1.csv")
    run_kernel_recovery(parse_config(doc, "kernel-recovery"), threads=2)
    doc["output_path"] = str(tmp_path / "r2.csv")
    run_kernel_recovery(parse_config(doc, "kernel-recovery"))
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_theory_table_examples():
    report = run_theory_table(parse_config(copy.deepcopy(THEORY_DOC), "theory"))
    rows = {(r["alpha"], r["beta"]): r
            for r in (dict(zip(report.header, row)) for row in report.rows)}
    assert rows[(3.0, 1.0)]["delta_opt"] == pytest.approx(0.3, abs=1e-15)
    assert rows[(3.0, 1.0)]["exponent_opt"] == pytest.approx(0.3, abs=1e-15)
    assert rows[(2.0, 0.2)]["branch"] == "rough"
    assert rows[(2.0, 0.2)]["delta_opt"] == 0.5
    assert rows[(2.0, 0.2)]["exponent_opt"] == pytest.approx(0.1, abs=1e-15)
    assert rows[(50.0, 1.0)]["exponent_opt"] == pytest.approx(50.0 / 151.0, abs=1e-15)
    assert all(r["rn_sum"] > 0 and r["rnprime_sum"] > 0 for r in rows.values())


def test_theory_table_csv_schema():
    report = run_theory_table(parse_config(copy.deepcopy(THEORY_DOC), "theory"))
    lines = report_csv(report).splitlines()
    assert lines[0] == "alpha,beta,branch,delta_opt,exponent_opt,rn_sum,rnprime_sum"
    assert len(lines) == 4


def test_theory_table_epsilon_constant_guard():
    doc = copy.deepcopy(THEORY_DOC)
    doc["epsilon_constant"] = 10000.0
    with pytest.raises(ConfigError, match="epsilon"):
        run_theory_table(parse_config(doc, "theory"))


def test_run_experiment_dispatch():
    for doc, command, header in (
            (THEORY_DOC, "theory", ("alpha", "beta", "branch", "delta_opt",
                                    "exponent_opt", "rn_sum", "rnprime_sum")),
            (SIM_DOC, "sim-rate", ("n", "rep", "epsilon", "err_r1", "err_r2", "err_m",
                                   "proj_err_1", "proj_err_2", "bound_ok_1",
                                   "bound_ok_2")),
            (RECOVERY_DOC, "kernel-recovery", ("n", "rep", "variant", "subspace_dist",
                                               "max_cancor", "eig_1"))):
        report = run_experiment(parse_config(copy.deepcopy(doc), command))
        assert report.header == header


@pytest.mark.parametrize("doc,command", [(THEORY_DOC, "theory"), (SIM_DOC, "sim-rate"),
                                         (RECOVERY_DOC, "kernel-recovery")])
def test_report_rows_match_their_header(tmp_path, doc, command):
    path = tmp_path / "report.csv"
    report = run_experiment(parse_config({**doc, "output_path": str(path)}, command))
    assert report.rows
    assert all(len(row) == len(report.header) for row in report.rows)
    assert path.read_bytes() == report_csv(report).encode()


def test_readme_configs_are_the_digest_inputs():
    # bench/digests.py runs its own copies of the README's three configs
    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("digests", root / "bench" / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    blocks = re.findall(r"```json\n(.*?)```", (root / "README.md").read_text(), re.S)
    readme = [json.loads(block) for block in blocks]
    oracle = {command: doc for command, _, doc in digests.COMMANDS}
    commands = ["sim-rate", "kernel-recovery", "fit"]
    assert readme == [oracle[command] for command in commands]
    for doc, command in zip(readme, commands):
        assert dataclasses.is_dataclass(parse_config(doc, command))


def record_pools(monkeypatch, cpus):
    """Pretend the machine has cpus CPUs; the max_workers of every thread pool
    asked for are recorded, and the pool runs its tasks serially."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("gsir.experiments.ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr("gsir.experiments.os.cpu_count", lambda: cpus)
    return sizes


@pytest.mark.parametrize("cpus,workers", [(3, [3]), (8, [4]), (1, []), (None, [])])
def test_sim_rate_threads_are_capped_by_tasks_and_cpus(monkeypatch, cpus, workers):
    config = parse_config(sim_doc(), "sim-rate")      # 2 n x 2 replications
    serial = report_csv(run_sim_rate(config, threads=1))
    sizes = record_pools(monkeypatch, cpus)
    assert report_csv(run_sim_rate(config, threads=10 ** 6)) == serial
    assert sizes == workers


def test_kernel_recovery_sizes_its_memory_check_by_the_workers(monkeypatch):
    checked = []
    monkeypatch.setattr("gsir.experiments.check_dense_memory",
                        lambda n, fits=1: checked.append((n, fits)))
    sizes = record_pools(monkeypatch, 3)
    run_kernel_recovery(parse_config(RECOVERY_DOC, "kernel-recovery"), threads=10 ** 6)
    assert sizes == [3] and checked == [(60, 3)]


@pytest.mark.parametrize("field,value", [("delta", [0.3, 0.3]), ("delta", [0.4, 0.2]),
                                         ("delta", []), ("n_grid", [40, 40])])
def test_config_lists_must_strictly_increase(field, value):
    with pytest.raises(ConfigError, match=f"field '{field}' must be"):
        parse_config(sim_doc(**{field: value}), "sim-rate")


def test_theory_grid_is_a_list_of_pairs():
    for grid, fragment in (([], "nonempty list"), ([[2.0]], r"\[alpha, beta\] pair"),
                           ([[2.0, 0.0]], "grid entry beta")):
        with pytest.raises(ConfigError, match=fragment):
            parse_config({**THEORY_DOC, "grid": grid}, "theory")
    assert parse_config({**THEORY_DOC, "grid": [[2, 1]]}, "theory").grid == ((2.0, 1.0),)
