"""Run one workload on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload sim_rate --seeds 0-9 [--out FILE]

For each metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json.  With --trace 1 it summarises the
per-layer metrics instead (they have no bound).  --out merges the summary,
with the environment line of the first run, into a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, env, failed, extra = {}, None, 0, {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
        line = json.loads(out[-1])
        failed += line["failed"] + (not line["correct"])
        env = env or json.loads(next(x for x in out if x.startswith("env "))[4:])
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for x in out:   # workload-specific end-to-end metrics printed by name
            if x.startswith("metric "):
                _, name, value, _ = x.split(" ", 3)
                if name not in line["metrics"]:
                    extra.setdefault(name, []).append(float(value))
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in
                                          list(line["metrics"].items())[:6]),
              flush=True)

    summary = {}
    for name, vals in list(values.items()) + list(extra.items()):
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "n": len(vals)}
        bound = bounds.get(name) if name in values else None
        note = f" bound {bound} ({spread / bound:.2f} of it)" if bound else ""
        print(f"{name:40s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread if spread is None else round(spread, 4)}{note}")
    print(f"failed runs/operations: {failed}")
    if args.out:   # merged into the file under "<workload>" / "trace<0|1>"
        env.pop("seed", None)
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.is_file() else {}
        doc.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "env": env, "metrics": summary}
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
