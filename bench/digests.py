"""sha256 digests of what the five subcommands write, on the README configs.

    python bench/digests.py [--check]

Runs theory, sim-rate, kernel-recovery, fit and predict from this checkout's
`src` in a temporary directory, each in a fresh interpreter with
OPENBLAS_NUM_THREADS=1, and prints the sha256 of each output file and of each
command's stdout.  With --check it compares them with DIGESTS and exits 1 on
a mismatch.  A change that means to keep the numerics must pass --check.

Inputs: the README's sim-rate, kernel-recovery and fit configs; the theory
grid below; and `predict` of the fitted model on 300 m1_ratio rows from
`generate(SyntheticModel("m1_ratio", 2, 0.1), 300, 123)`.

The digests depend on the BLAS build (they were recorded with one OpenBLAS
thread on x86-64), so this is a command to run by hand, not a test.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = (
    ("theory", "theory.csv",
     {"schema_version": 1, "mode": "theory_table",
      "grid": [[3, 1], [2, 0.2], [2, 1], [1.5, 0.5]],
      "output_path": "theory.csv"}),
    ("sim-rate", "sim.csv",
     {"schema_version": 1, "mode": "sim_rate", "base_seed": 11,
      "n_grid": [250, 500, 1000, 2000], "replications": 20,
      "alpha": 2.0, "beta": 1.0, "delta": "optimal",
      "model": {"j_dim": 200, "y_dim": 2},
      "output_path": "sim.csv"}),
    ("kernel-recovery", "recovery.csv",
     {"schema_version": 1, "mode": "kernel_recovery", "base_seed": 5,
      "n_grid": [200, 500, 1000], "replications": 20,
      "dataset": {"model": "m3_symmetric", "p": 5, "sigma_noise": 0.2},
      "epsilon": 1e-3, "d": 1, "n_test": 500,
      "output_path": "recovery.csv"}),
    ("fit", "model.json",
     {"schema_version": 1, "variant": "gsir1",
      "dataset": {"model": "m1_ratio", "p": 2, "sigma_noise": 0.1, "n": 400},
      "kernel_x": {"family": "gaussian", "gamma": "median"},
      "kernel_y": {"family": "gaussian", "gamma": "median"},
      "epsilon": 1e-3, "d": 1, "base_seed": 0,
      "output_path": "model.json"}),
    ("predict", "pred.csv",
     {"schema_version": 1, "model_path": "model.json",
      "data_csv": "points.csv", "output_path": "pred.csv"}),
)

# Writes the predict command's input rows into the working directory.
POINTS = ("from gsir.datasets import SyntheticModel, generate, write_dataset_csv;"
          "write_dataset_csv('points.csv', *generate("
          "SyntheticModel('m1_ratio', 2, 0.1), 300, 123))")

DIGESTS = {
    "theory.csv": "d10af54de8ea6ca52ede265e98e43c29b64f41b34a83d4efd56baef43a9b6394",
    "theory stdout": "161e8bead8a950c9df1c8491adc2826d0e8d09e367720191f7beb31455fd8923",
    "sim.csv": "6d157c031b159358ea5707c803e87277c4537ea3677dc843ccfb1f9baeea1284",
    "sim-rate stdout": "bf4dbfe1fca25d6c3e60312de3424da2b2395dda98e4ce0e77c8efeb843d9c36",
    "recovery.csv": "5f1008910d5caf55b3ff1a79fe7eb116c67d6e801ec59126f9560b98e4934d3c",
    "kernel-recovery stdout": "c004c3aeee6f1d489ac446fd7ad981ec9e787c2b319dead02ad80abbb0498fa9",
    "model.json": "3eaa5725255fa7b49a208294aa0e9680fe611b3a041ee099adc132dc8b581003",
    "fit stdout": "46200fd20bec3c6ec089a832e6b1c8a26a4471b7b94aeb4225bfc5b8b3451b86",
    "pred.csv": "56275ebe19115820ab4bb1676eebf5a060443c89a6f7fa6a28531626fba632bc",
    "predict stdout": "90527239b7e54a56fe21ad7c2bf41f9e6c372943598f96c0bfd978a79bbec9ae",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _python(args, cwd):
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                          if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, check=True).stdout


def digests():
    """{output name: sha256} for every output file and stdout, in run order."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        _python(["-c", POINTS], tmp)
        for command, output, config in COMMANDS:
            path = Path(tmp, command + ".json")
            path.write_text(json.dumps(config))
            stdout = _python(["-m", "gsir.cli", command, "--config", path.name], tmp)
            out[output] = _sha256(Path(tmp, output).read_bytes())
            out[command + " stdout"] = _sha256(stdout)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every digest matches DIGESTS")
    args = parser.parse_args(argv)
    mismatched = []
    for name, digest in digests().items():
        ok = digest == DIGESTS[name]
        mismatched += [] if ok else [name]
        print(f"{digest}  {name}" + ("" if ok or not args.check else "  MISMATCH"))
    if args.check and mismatched:
        print(f"digests differ: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
