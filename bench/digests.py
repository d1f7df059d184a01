"""sha256 digests of what the five subcommands write, on the README configs.

    python bench/digests.py [--check]

Runs theory, sim-rate, kernel-recovery, fit and predict from this checkout's
`src` in a temporary directory, each in a fresh interpreter with
OPENBLAS_NUM_THREADS=1, and prints the sha256 of each output file and of each
command's stdout.  With --check it compares them with DIGESTS and exits 1 on
a mismatch.  A change that means to keep the numerics must pass --check.

Inputs: the theory grid below; the README's three ```json blocks, which are
the sim-rate, kernel-recovery and fit configs; and `predict` of the fitted
model on 300 m1_ratio rows from
`generate(SyntheticModel("m1_ratio", 2, 0.1), 300, 123)`.

The digests depend on the BLAS build (they were recorded with one OpenBLAS
thread on x86-64), so this is a command to run by hand, not a test.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The sim-rate, kernel-recovery and fit configs: the README's ```json blocks.
README_CONFIGS = [json.loads(block) for block in re.findall(
    r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)]
# (command, output file, config), in run order: fit writes predict's model.
COMMANDS = tuple((command, config["output_path"], config) for command, config in zip(
    ("theory", "sim-rate", "kernel-recovery", "fit", "predict"),
    [{"schema_version": 1, "mode": "theory_table",
      "grid": [[3, 1], [2, 0.2], [2, 1], [1.5, 0.5]], "output_path": "theory.csv"},
     *README_CONFIGS,
     {"schema_version": 1, "model_path": "model.json",
      "data_csv": "points.csv", "output_path": "pred.csv"}]))

# Writes the predict command's input rows into the working directory.
POINTS = ("from gsir.datasets import SyntheticModel, generate;"
          "from gsir.modelio import write_dataset_csv;"
          "write_dataset_csv('points.csv', *generate("
          "SyntheticModel('m1_ratio', 2, 0.1), 300, 123))")

DIGESTS = {
    "theory.csv": "d10af54de8ea6ca52ede265e98e43c29b64f41b34a83d4efd56baef43a9b6394",
    "theory stdout": "161e8bead8a950c9df1c8491adc2826d0e8d09e367720191f7beb31455fd8923",
    "sim.csv": "6d157c031b159358ea5707c803e87277c4537ea3677dc843ccfb1f9baeea1284",
    "sim-rate stdout": "8daa3b143b68a77cdd56a45adf642e419ec65804237869a50a48619deb81f24a",
    "recovery.csv": "5435db3e2e10f16415a0e7f6ef78ec177a2933847916e4696c9ffebc03a72d41",
    "kernel-recovery stdout": "fdb0829426672269212e998c0722617459474e5ffd158d8699a0736d2b5edcb8",
    "model.json": "8792e1dbe16f9700820e248035eb461acf17d2a2fb6f3a241b5cc62a100856b9",
    "fit stdout": "46200fd20bec3c6ec089a832e6b1c8a26a4471b7b94aeb4225bfc5b8b3451b86",
    "pred.csv": "2050583eb14d089e644a234f3311a5a83dcf4ebb737a2cbf485a8019b67d4ecb",
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
