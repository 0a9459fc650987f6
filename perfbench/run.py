"""End-to-end benchmark of twogrp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: theorem-sweep,
cohomology-classify, cochain-screen, cli-cold (see RATIONALE.md).  Each run
measures in a fresh worker process with one thread, built from the
checkout's src/.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 a second, traced worker runs after the
untraced one and the line carries the per-layer metrics, including the
tracing overhead.  The exit code is 0 only when every op's output checked
out.  --size tiny shrinks every workload for a quick self-test.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ["theorem-sweep", "cohomology-classify", "cochain-screen", "cli-cold"]
BUDGET_S = 175

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "peak_rss_mib": "MiB"}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(opts, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--seconds", str(opts.seconds), "--trace", str(trace),
           "--size", opts.size]
    # Its own process group, so that on timeout the CLI processes a
    # cli-cold worker started are killed with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("worker ran past the %d s budget" % BUDGET_S)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twogrp", "__init__.py")):
        raise SystemExit("no twogrp package under %s; run from a twogrp checkout" % SRC)

    deadline = time.monotonic() + BUDGET_S
    runs = [run_worker(opts, 0, deadline)]
    if opts.trace:
        runs.append(run_worker(opts, 1, deadline))
    last = runs[-1]
    if opts.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(last["layers"].items())}
        overhead = runs[0]["e2e"]["ops_per_s"] / last["e2e"]["ops_per_s"]
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {name: {"value": last["e2e"][name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        print(json.dumps({"run": "traced" if r is not runs[0] else "untraced",
                          "detail": r["detail"], "failures": r["failures"],
                          "shares": r.get("shares"), "meta": r["meta"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
