"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 1]

Runs the benchmark command from BENCHMARK.json once per seed and workload,
untraced, and prints for every end-to-end metric its median and the
distance between its first and third quartile as a share of the median,
next to the metric's bound, and the wall time of the command per run.
Raw results go to .bench_out/spread.json.
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


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()
    names = opts.workload or [w["name"] for w in bench["workloads"]]
    raw = {}
    worst = 0.0
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        run_s = []
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            run_s.append(time.monotonic() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                raise SystemExit("%s seed %d failed: %s" % (name, seed, proc.stdout[-2000:]))
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
        raw[name] = values
        print("%-20s command wall time per run: median %.1f s, max %.1f s" % (
            name, statistics.median(run_s), max(run_s)), flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print("%-20s %-14s median %12.4f %-6s spread %6.2f%%  bound %4.0f%%" % (
                name, m["name"], med, m["unit"], 100 * share, 100 * m["bound"]), flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
