"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --seeds 1-10

Runs run.py --trace 0 for its run_seconds for every seed and every
workload of BENCHMARK.json, workloads interleaved within each seed so
slow phases of a shared machine spread over all of them, and prints
per workload and metric the median and the interquartile range as a
share of the median (statistics.quantiles, n=4). Prints a JSON summary
as its last line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import load_spec


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = load_spec()
    names = list(spec["workloads"])
    run = Path(__file__).with_name("run.py")
    values = {name: {} for name in names}
    attempted = {name: [] for name in names}
    host = None
    for seed in args.seeds:
        for name in names:
            got = subprocess.run(
                [sys.executable, str(run), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            lines = got.stdout.splitlines()
            host = host or lines[1]
            result = json.loads(lines[-1])
            attempted[name].append(result["attempted"])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect output\n{got.stdout}")
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"seed {seed} {name} " + " ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)
    summary = {"host": host, "seeds": args.seeds, "seconds": spec["run_seconds"],
               "jobs_attempted": attempted}
    for name in names:
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary.setdefault(name, {})[metric] = {"median": med, "iqr_share": spread, "values": vals}
            print(f"{name:15s} {metric:14s} median={med:.4g} iqr/median={spread:.3f}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
