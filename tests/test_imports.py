"""Each subcommand loads only its own stack, checked in fresh interpreters.

`import gsir.cli` loads no SciPy; theory and sim-rate run on numpy alone;
the package's lazy re-exports still resolve every name the README
imports from `gsir`; and `modelio` is the one module that opens a file.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gsir

README = Path(__file__).parents[1] / "README.md"


def fresh(code, cwd):
    """Run code in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(gsir.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_after(cwd, argv=None):
    """The scipy modules loaded after `import gsir.cli`, then main(argv)."""
    run = "" if argv is None else f"assert gsir.cli.main({argv!r}) == 0; "
    return fresh("import json, sys, gsir.cli; " + run +
                 "print(json.dumps(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')))", cwd)


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert scipy_after(tmp_path) == []


def test_theory_loads_no_scipy(tmp_path):
    (tmp_path / "theory.json").write_text(json.dumps(
        {"schema_version": 1, "mode": "theory_table", "grid": [[2, 1], [3, 0.2]],
         "output_path": "theory.csv"}))
    assert scipy_after(tmp_path, ["theory", "--config", "theory.json"]) == []
    assert (tmp_path / "theory.csv").exists()


def test_sim_rate_loads_no_scipy(tmp_path):
    (tmp_path / "sim.json").write_text(json.dumps(
        {"schema_version": 1, "mode": "sim_rate", "base_seed": 1,
         "n_grid": [20, 40, 80], "replications": 1, "alpha": 2.0, "beta": 1.0,
         "model": {"j_dim": 20, "y_dim": 2}, "output_path": "sim.csv"}))
    assert scipy_after(tmp_path, ["sim-rate", "--config", "sim.json"]) == []
    assert (tmp_path / "sim.csv").exists()


def readme_names():
    """Every name a README code block imports `from gsir`."""
    names = []
    for group in re.findall(r"^from gsir import (\([^)]*\)|.*)$",
                            README.read_text(), flags=re.MULTILINE):
        names += re.findall(r"\w+", group)
    return names


def test_every_readme_import_resolves(tmp_path):
    names = readme_names()
    assert "fit_gsir1" in names and "error_report" in names
    code = (f"import json; from gsir import {', '.join(names)}; "
            f"print(json.dumps([callable(v) for v in ({', '.join(names)},)]))")
    assert fresh(code, tmp_path) == [True] * len(names)


def test_unknown_package_attribute_is_an_attribute_error():
    assert set(readme_names()) <= set(gsir.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        gsir.no_such_name


def test_every_traced_function_resolves():
    # perfbench's tracer wraps these (module, function) pairs by name; a
    # renamed or deleted function fails here rather than in a traced run
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TRACED) == 24 and set(tracing.COMPUTED) <= set(tracing.TRACED)
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_only_modelio_opens_files():
    # every file format lives in modelio: no other module of the package
    # calls open, bare or as a method
    package = Path(gsir.__file__).parent
    openers = {}
    for path in sorted(package.glob("*.py")):
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"]
        if calls:
            openers[path.name] = calls
    assert list(openers) == ["modelio.py"], openers


def test_kernel_recovery_calls_both_traced_fits_once_per_replication(monkeypatch):
    # each replication factorizes once and solves that factorization for
    # each variant, in order.  The perfbench tracer wraps fit_gsir1 and
    # fit_gsir2, which kernel-recovery does not call: its estimator.fit
    # spans read 0 until `solve` is traced
    import gsir.estimator
    from gsir.experiments import parse_config, run_kernel_recovery

    calls = []
    solve = gsir.estimator.solve

    def spy(fz, variant, d):
        calls.append((fz, variant))
        return solve(fz, variant, d)

    monkeypatch.setattr(gsir.estimator, "solve", spy)
    config = parse_config({
        "schema_version": 1, "mode": "kernel_recovery", "base_seed": 5,
        "n_grid": [40, 60], "replications": 2, "epsilon": 1e-3, "d": 1, "n_test": 50,
        "dataset": {"model": "m3_symmetric", "p": 2, "sigma_noise": 0.1}},
        "kernel-recovery")
    run_kernel_recovery(config)
    assert [variant for _, variant in calls] == ["gsir1", "gsir2"] * 4
    shared = [fz for fz, _ in calls]
    assert shared[0::2] == shared[1::2] and len({id(s) for s in shared}) == 4
