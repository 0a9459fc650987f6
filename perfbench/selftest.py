"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Shows that every output check rejects a wrong answer, that a corrupted
library answer during a run is counted as a failed op and makes the
command exit nonzero, that a missing trace target is reported rather than
fatal, that a tiny run of every workload prints exactly the metric names
and units BENCHMARK.json declares, and that the command fails without a
result where there is no twogrp source.  Takes about a minute.
"""

import copy
import io
import json
import os
import random
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from twogrp import cochain  # noqa: E402

OUT = os.path.join(ROOT, ".bench_out")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def first_op(cls, pick=lambda item: True, **kwargs):
    w = cls("tiny", **kwargs)
    rng = random.Random(5)
    w.setup(rng)
    for block in w.blocks(rng):
        for item in block:
            if pick(item):
                out = w.run_op(item)
                if w.check(item, out) is not None:
                    raise AssertionError("%s: a right answer was rejected: %s"
                                         % (cls.name, w.check(item, out)))
                return w, item, out


def expect_rejected(w, item, out, what):
    reason = w.check(item, out)
    if reason is None:
        raise AssertionError("%s: check accepted %s" % (w.name, what))
    print("  %-20s rejects %-40s (%s)" % (w.name, what, reason[:60]))


def non_cocycle(G, A):
    """A normalized 3-cochain over (G, A) that is not a cocycle."""
    rng = random.Random(1)
    for _ in range(100):
        values = reference.random_normalized(rng, G.order, A.invariant_factors, 3)
        if not reference.is_normalized_cocycle(G.table, G.order, A.invariant_factors, 3,
                                               values):
            return types.SimpleNamespace(values=tuple(values))
    raise AssertionError("every sampled cochain over %s is a cocycle" % G.name)


def checks_reject_wrong_answers():
    print("output checks:")
    w, item, (alpha, report) = first_op(workloads.TheoremSweep,
                                        lambda it: it[0][0].order > 2)
    bad = copy.deepcopy(report)
    bad.stages[3]["ok"] = False
    expect_rejected(w, item, (alpha, bad), "a failed stage")
    bad = copy.deepcopy(report)
    del bad.stages[-1]
    expect_rejected(w, item, (alpha, bad), "a missing stage")
    bad = copy.deepcopy(report)
    bad.counts["duskin_levels"][3] += 1
    expect_rejected(w, item, (alpha, bad), "a wrong level size")
    (G, A, _res), _coords = item
    w._alpha_ok.clear()
    expect_rejected(w, item, (non_cocycle(G, A), report), "a non-cocycle representative")

    w, item, (reps, count, factors, classes) = first_op(workloads.CohomologyClassify,
                                                        lambda it: it[1].order > 2)
    flipped = factors[:-1] + [factors[-1] * 2]
    expect_rejected(w, item, (reps, count, flipped, classes), "a flipped invariant factor")
    expect_rejected(w, item, (reps, count + 1, factors, classes), "an orbit count off by one")
    expect_rejected(w, item, (reps[:-1] + [non_cocycle(item[1], item[2])], count, factors,
                              classes), "a non-cocycle representative")

    w, item, out = first_op(workloads.CochainScreen, lambda it: it[1] == "random")
    d_values, ok, witness, pent_ok, pent_witness = out
    expect_rejected(w, item, (d_values, True, None, pent_ok, pent_witness),
                    "a non-cocycle labelled as cocycle")
    expect_rejected(w, item, (d_values, True, None, True, None),
                    "same, with pentagon agreeing")
    wrong = list(d_values)
    wrong[-1] = tuple((x + 1) % m for x, m in zip(wrong[-1], item[2].coeffs.invariant_factors))
    expect_rejected(w, item, (wrong, ok, witness, pent_ok, pent_witness),
                    "one wrong coboundary entry")
    expect_rejected(w, item, (d_values, ok, witness, not pent_ok, pent_witness),
                    "pentagon disagreeing")
    w, item, out = first_op(workloads.CochainScreen, lambda it: it[1] == "coboundary")
    d_values, ok, witness, pent_ok, pent_witness = out
    expect_rejected(w, item, (d_values, False, (1, 1, 1, 1), False, (1, 1, 1, 1)),
                    "a cocycle labelled as non-cocycle")

    workdir = os.path.join(OUT, "selftest-cli")
    w, item, (code, stdout) = first_op(workloads.CliCold, workdir=workdir,
                                       src=os.path.join(ROOT, "src"))
    shutil.rmtree(workdir, ignore_errors=True)
    expect_rejected(w, item, (code, stdout[:-2] + b"x" + stdout[-1:]), "one changed stdout byte")
    expect_rejected(w, item, (1, stdout), "exit code 1")


def corrupted_library_counts_as_failed():
    print("corrupted library answer during a run:")
    saved = cochain.is_cocycle
    cochain.is_cocycle = lambda c: (True, None)
    try:
        w = workloads.CochainScreen("tiny")
        rng = random.Random(3)
        w.setup(rng)
        times, _walls, failed, failures, _kinds = worker.measure(w, rng, 0.5, None)
    finally:
        cochain.is_cocycle = saved
    if not 0 < failed <= len(times):
        raise AssertionError("is_cocycle always True: %d of %d ops failed" % (failed, len(times)))
    print("  is_cocycle forced to True: %d of %d ops failed (%s)" % (failed, len(times),
                                                                   failures[0][:50]))
    fake = {"attempted": 4, "failed": 1, "failures": ["x"], "detail": {}, "meta": {},
            "e2e": {name: 1.0 for name in run.E2E_UNITS}}
    saved_worker = run.run_worker
    run.run_worker = lambda opts, trace, deadline: fake
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = run.main(["--workload", "cochain-screen", "--seed", "1", "--seconds", "1",
                             "--trace", "0"])
    finally:
        run.run_worker = saved_worker
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    if code == 0 or last["correct"] is not False or last["failed"] != 1:
        raise AssertionError("a failed op did not fail the command: %r, exit %d" % (last, code))
    print("  one failed op: correct=false, exit code %d" % code)


def missing_targets_are_absent():
    print("tracer:")
    for dotted in ("twogrp.kernels.no_such_kernel", "twogrp.no_such_module.f",
                   "twogrp.simplicial.NoSuchClass.method"):
        if tracing._resolve(dotted) is not None:
            raise AssertionError("%s resolved" % dotted)
    print("  missing module, function and class resolve to absent")
    gone = ("kernels.gone", ["twogrp.kernels.no_such_kernel"], None, None)
    tracing.LAYERS.append(gone)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        w, item, _out = first_op(workloads.CochainScreen)
        w.run_op(item)
        layers = tracing.layer_metrics(tracer.spans, tracer.layer_of, tracer.counters)
    finally:
        tracing.LAYERS.remove(gone)
    if tracer.absent != gone[1] or layers["kernels.gone.self_s"] != (0, "s"):
        raise AssertionError("absent target: %s, %s" % (tracer.absent,
                                                         layers["kernels.gone.self_s"]))
    if layers["cochain.coboundary.self_s"][0] <= 0:
        raise AssertionError("installed wrappers recorded no coboundary span")
    print("  an installed tracer reports a missing target as absent with no time, and runs")


def tiny_runs_print_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    print("tiny runs:")
    for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        want = {m["name"]: m["unit"] for m in declared}
        for w in bench["workloads"]:
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                                      "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode != 0 or set(result) != RESULT_KEYS or got != want:
                raise AssertionError("%s --trace %d: exit %d, keys %s, metric mismatch %s" % (
                    w["name"], trace, proc.returncode, sorted(result),
                    sorted(set(got.items()) ^ set(want.items()))))
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                raise AssertionError("%s: a metric value is not a number" % w["name"])
            print("  %-20s --trace %d: %d metrics, names and units as declared" % (
                w["name"], trace, len(got)))


def bare_directory_fails():
    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            command = json.load(fh)["command"]
        proc = subprocess.run(command + ["--workload", "cli-cold", "--seed", "1", "--seconds",
                                         "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or "metrics" in proc.stdout:
        raise AssertionError("bare directory: exit %d, stdout %r" % (proc.returncode,
                                                                      proc.stdout[-200:]))
    print("without src/: exit code %d, no result (%s)" % (proc.returncode,
                                                          proc.stderr.strip()[:60]))


def main():
    checks_reject_wrong_answers()
    corrupted_library_counts_as_failed()
    missing_targets_are_absent()
    tiny_runs_print_declared_metrics()
    bare_directory_fails()
    print("selftest passed")


if __name__ == "__main__":
    main()
