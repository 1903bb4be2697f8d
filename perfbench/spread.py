"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

For every workload and metric this prints the median over the seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. An
end-to-end metric is flagged when its spread exceeds a third of its bound.
Runs are sequential, one process at a time, with ``run_seconds`` from
``BENCHMARK.json``. The raw results go to ``perfbench/results/spread_*.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_record(workload, seed, trace):
    path = os.path.join(HERE, "results", f"{workload}_seed{seed}_trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, name, values, bound=None):
    """Print the median of ``values`` and their quartile spread."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf") if q3 > q1 else 0.0
    flag = ""
    if bound is not None and name != "setup_s" and spread > bound / 3:
        flag = "  <-- over a third of the bound"
    print(f"{workload}: {name:40s} {median:12.6g} {spread:8.4f}  {bound or ''}{flag}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

        records = [run_record(workload, seed, args.trace) for seed in args.seeds]
        print(f"\n{workload}: {'metric':40s} {'median':>12s} {'spread':>8s}  bound")
        for name in runs[0]["metrics"]:
            report(workload, name, [r["metrics"][name]["value"] for r in runs],
                   bounds.get(name))
        for name in records[0]["named_metrics"]:
            if name in runs[0]["metrics"]:
                continue
            report(workload, f"named {name}", [r["named_metrics"][name]["value"]
                                               for r in records if name in r["named_metrics"]])
        # Every cycle of every run, pooled: the median and the highest
        # percentile with at least ten samples beyond it.
        for key, unit in (("cycle_ref", "ref"), ("cycle_s", "s")):
            cycles = sorted(c[key] for r in records for c in r["cycles"])
            n = len(cycles)
            line = (f"{workload}: pooled {key} n={n} "
                    f"median {statistics.median(cycles):.4g} {unit}")
            for pct in (99, 95, 90, 75):
                if n * (100 - pct) / 100 >= 10:
                    line += f", p{pct} {cycles[min(n - 1, int(n * pct / 100))]:.4g} {unit}"
                    break
            print(line)
        print()

    stamp = time.strftime("%Y%m%dT%H%M%S")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"spread_{stamp}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
