"""gsir benchmark: three CLI workloads, timed untraced or traced by layer.

    python3 perfbench/run.py --workload sim_rate --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0    # every workload, one command
    python3 perfbench/run.py --smoke                    # quick self-check, tiny sizes

The program is the checkout's `src/gsir`.  Each workload run measures set-up
in fresh interpreters, then starts one fresh worker process (worker.py) that
calls `gsir.cli.main` for `--seconds`.  Every metric is printed as
`metric <name> <value> <unit>`; the last stdout line is one JSON object with
correct, attempted, failed and the metrics BENCHMARK.json lists (end_to_end
with --trace 0, per_layer with --trace 1).  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Every process started from here runs single-threaded BLAS (README says why).
INHERITED_BLAS = os.environ.get("OPENBLAS_NUM_THREADS", "default")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_rate", "recovery", "fit_predict")
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import gsir.cli"

UNITS = {"setup_s": "s", "setup_wall_s": "s", "run_s": "s", "run_cpu_s": "s",
         "reps_per_s": "1/s", "fit_s": "s", "predict_rows_per_s": "rows/s",
         "peak_rss_mb": "MB", "error_rate": "ratio", "cancor": "1",
         "rate_slope_dev": "1"}


def _children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def setup_times(probes):
    """[wall, cpu] of fresh interpreters importing gsir.cli, after one unmeasured."""
    times = []
    for i in range(probes + 1):
        t0, c0 = time.perf_counter(), _children_cpu()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:
            times.append([time.perf_counter() - t0, _children_cpu() - c0])
    return times


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _llc():
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def environment(seed):
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "openblas_num_threads_inherited": INHERITED_BLAS,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "llc": _llc(),
            "commit": _git_commit(), "seed": seed, "gsir_threads": 1}


def run_worker(workload, seed, seconds, trace, size, work):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(pairs, i):
    return statistics.median(p[i] for p in pairs)



def end_to_end(res, setup):
    """Every end-to-end metric that applies to the workload, from untraced passes."""
    passes, calls, scale = res["pass_s"], res["call_s"], res["scale"]
    out = {"setup_s": _median(setup, 1), "setup_wall_s": _median(setup, 0),
           "run_s": _median(passes, 0), "run_cpu_s": _median(passes, 1),
           "peak_rss_mb": res["peak_rss_mb"],
           "error_rate": res["failed"] / res["attempted"]}
    if "reps" in scale:
        out["reps_per_s"] = scale["reps"] / out["run_s"]
    if "fit" in calls:
        out["fit_s"] = _median(calls["fit"], 0)
        out["predict_rows_per_s"] = scale["predict_rows"] / _median(calls["predict"], 0)
    out.update(res["quality"])
    return out


def per_layer(res, names):
    """Per-pass layer metrics (CPU seconds) from the traced passes."""
    passes = len(res["traced_s"])
    layers, counts = res["layers"], res["counts"]
    special = {
        "trace.run_s": _median(res["traced_s"], 0),
        "trace.run_cpu_s": _median(res["traced_s"], 1),
        "trace.overhead_s": _median(res["traced_s"], 1) - _median(res["pass_s"], 1),
        "trace.self_sum_s": sum(v["self_s"] for v in layers.values()) / passes,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name in counts:
            out[name] = counts[name] / passes
        else:
            span, field = name.rsplit(".", 1)
            out[name] = layers.get(span, {}).get(field, 0) / passes
    return out, layers, passes


def run_workload(workload, seed, seconds, trace, size, spec, work_root):
    """Run one workload; print its report; return (result line, end-to-end metrics)."""
    work = work_root / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = setup_times(1 if size == "smoke" else SETUP_PROBES)
        res = run_worker(workload, seed, seconds, trace, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"== {workload} seed={seed} trace={trace} size={size}")
    print("env " + json.dumps(environment(seed)))
    for name, digest in sorted(res["digests"].items()):
        print(f"sha256 {name} {digest}")
    print(f"untraced passes {len(res['pass_s'])} [wall s, cpu s]: "
          + " ".join(f"[{w:.3f}, {c:.3f}]" for w, c in res["pass_s"]))
    e2e = end_to_end(res, setup)
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {UNITS[name]}")
    section, metrics = "end_to_end", e2e
    if trace:
        section = "per_layer"
        metrics, layers, passes = per_layer(res, [m["name"] for m in spec[section]])
        print(f"traced passes {passes}; spans written to {res['trace_file']}")
        print(f"{'span (CPU s per pass)':34s} {'calls':>7s} {'s':>9s} {'self_s':>9s}")
        for span, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{span:34s} {row['calls'] / passes:7.0f} "
                  f"{row['s'] / passes:9.4f} {row['self_s'] / passes:9.4f}")
        for m in spec[section]:
            print(f"metric {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in spec[section]}}
    return line, e2e


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-check: every workload at tiny sizes, traced")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gsir" / "cli.py").is_file():
        print(f"error: no gsir source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        plan, seconds, size = [(w, 1) for w in WORKLOADS], 0.0, "smoke"
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        plan, size = [(w, args.trace) for w in names], "full"
    try:
        results = [run_workload(w, args.seed, seconds, t, size, spec, HERE / ".work")
                   for w, t in plan]
    except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0][0]))
        return 0
    lines = [line for line, _ in results]
    summary = {"correct": all(x["correct"] for x in lines),
               "attempted": sum(x["attempted"] for x in lines),
               "failed": sum(x["failed"] for x in lines),
               "metrics": {f"{w}.{k}": {"value": v, "unit": UNITS[k]}
                           for (w, _), (_, e2e) in zip(plan, results)
                           for k, v in e2e.items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
