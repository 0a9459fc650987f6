"""One measured run of one workload, in a process of its own.

Started by run.py with the checkout's src/ on PYTHONPATH.  Prints a single
JSON object on its last stdout line: end-to-end figures (untraced) or
per-layer figures (traced), the op counts, and what code was measured.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|tiny

Op and set-up times are CPU seconds (user + system) of this process and
the children it waited for, such as the CLI processes of cli-cold.  twogrp
runs on one thread and does no I/O worth the name, so on an idle machine
this equals its wall time; on a shared one it leaves out the time other
tenants held the core.  Work moved to threads or child processes still
counts.  Wall time is kept in the detail line.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# The tail is the highest percentile with at least this many samples
# beyond it, so a run must complete one more op than this.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
SETUP_REPEATS = 3
IMPORT_REPEATS = 7


def import_twogrp():
    """Import twogrp from this checkout's src/ and nowhere else."""
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import twogrp

    where = os.path.realpath(twogrp.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("twogrp imported from %s, not from %s" % (where, SRC))
    return twogrp


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """HEAD of the checkout's own repository; None when it has none (git
    is not asked to look in the directories above)."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "twogrp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(twogrp):
    import numpy

    return {
        "backend": getattr(twogrp, "BACKEND", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def tail(sorted_times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    n = len(sorted_times)
    idx = n - TAIL_BEYOND - 1
    return sorted_times[idx], 100.0 * (idx + 1) / n


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def import_cpu_s():
    """CPU seconds a fresh interpreter spends starting and importing twogrp:
    the part of set-up that cannot be repeated inside this process."""
    t0 = cpu_seconds()
    subprocess.run([sys.executable, "-c", "import twogrp"], check=True, timeout=60)
    return cpu_seconds() - t0


def measure(workload, rng, seconds, tracer):
    """Run whole blocks until `seconds` of wall time (or the workload's
    fixed block count) and MIN_OPS ops are done.  Only the op itself is
    timed; the check runs outside.  Returns CPU and wall seconds per op,
    failures and op kinds."""
    times, walls, failures, kinds = [], [], [], []
    failed = 0
    rounds = max(1, int(seconds // workload.block_s)) if workload.block_s else None
    start = time.perf_counter()
    for done, block in enumerate(workload.blocks(rng), 1):
        for item in block:
            op = len(times)
            handle = tracer.begin(op) if tracer else None
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                out = workload.run_op(item)
                err = None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            walls.append(time.perf_counter() - t0)
            times.append(cpu_seconds() - c0)
            if tracer:
                tracer.end(handle)
            kinds.append(workload.describe(item))
            if err is None:
                err = workload.check(item, out)
            if err is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(err)
        over = done >= rounds if rounds else time.perf_counter() - start >= seconds
        if over and len(times) >= MIN_OPS:
            break
    return times, walls, failed, failures, kinds


def by_kind(times, kinds):
    """{kind: [ops, median ms]} over the run."""
    groups = {}
    for t, (kind, _order) in zip(times, kinds):
        groups.setdefault(kind, []).append(t)
    return {k: [len(v), statistics.median(v) * 1000.0] for k, v in sorted(groups.items())}


def peak_rss_mib():
    """Largest resident set of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run(args):
    twogrp = import_twogrp()
    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    kwargs = {"workdir": workdir, "src": SRC} if cls is workloads.CliCold else {}
    workload = cls(args.size, tracer=tracer, **kwargs)

    try:
        # Set-up is the interpreter start and import plus drawing the inputs.
        # Each part is repeated and its median reported; the inputs of the
        # last repetition are the ones measured.  A traced run sets up once.
        repeats = 1 if tracer else SETUP_REPEATS
        import_times = [import_cpu_s() for _ in range(1 if tracer else IMPORT_REPEATS)]
        setup_times = []
        for _ in range(repeats):
            rng = random.Random(args.seed)
            handle = tracer.begin(-1) if tracer else None
            t0 = cpu_seconds()
            workload.setup(rng)
            setup_times.append(cpu_seconds() - t0)
            if tracer:
                tracer.end(handle)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        times, walls, failed, failures, kinds = measure(workload, rng, args.seconds, tracer)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": len(times),
            "failed": failed,
            "failures": failures,
        }
        ordered = sorted(times)
        tail_s, tail_pct = tail(ordered)
        result["e2e"] = {
            "setup_s": setup_s,
            "ops_per_s": len(times) / sum(times),
            "op_ms_p50": statistics.median(times) * 1000.0,
            "op_ms_tail": tail_s * 1000.0,
            "peak_rss_mib": peak_rss_mib(),
        }
        result["meta"] = metadata(twogrp)
        result["detail"] = {
            "ops": len(times),
            "tail_percentile": tail_pct,
            "failed_ratio": failed / len(times),
            "timed_cpu_s": sum(times),
            "timed_wall_s": sum(walls),
            "wall_ms_p50": statistics.median(walls) * 1000.0,
            "import_repeats_s": import_times,
            "setup_repeats_s": setup_times,
            "by_kind": by_kind(times, kinds),
        }
        if tracer:
            result["layers"], result["shares"], spans = traced_figures(
                tracer, tracing, workload, walls, kinds)
            os.makedirs(OUT, exist_ok=True)
            tracing.dump(spans, os.path.join(OUT, "spans-%s-seed%d.jsonl" % (
                args.workload, args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def traced_figures(tracer, tracing, workload, walls, kinds):
    """Per-layer metrics of the run, per-module shares of op wall time over
    all ops and over the ops on groups of order 8, and the run's spans."""
    spans, layer_of, counters = tracer.spans, dict(tracer.layer_of), tracer.counters
    import_s = 0.0
    if workload.name == "cli-cold":
        spans, import_s = _merge_cli_spans(workload.trace_files, layer_of, counters)
    layers = tracing.layer_metrics(spans, layer_of, counters)
    layers["cli.import_s"] = (import_s, "s")
    layers["absent_targets"] = (len(tracer.absent), "count")
    shares = {}
    for tag, ops in (("all", set(range(len(walls)))),
                     ("order8", {i for i, (_k, order) in enumerate(kinds) if order == 8})):
        if not ops:
            continue
        _self, _calls, module_s, root_s = tracing.aggregate(spans, layer_of, ops)
        if workload.name == "cli-cold":
            # a call's time is the child process's wall time, import included
            module_s["cli"] += import_s
            root_s = sum(walls[i] for i in ops)
            module_s["bench"] = root_s - sum(module_s.values())
        shares[tag] = {m: module_s[m] / root_s for m in tracing.MODULES}
    for mod, share in shares["all"].items():
        layers["module.%s.self_share" % mod] = (share, "ratio")
    return layers, shares, spans


def _merge_cli_spans(files, layer_of, counters):
    """Spans of every traced CLI call, re-indexed into one list with the
    call index as op id; returns (spans, total import seconds)."""
    merged, import_s = [], 0.0
    for op, path in enumerate(files):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        base = len(merged)
        for label, start, end, parent, _op in rec["spans"]:
            merged.append((label, start, end, parent + base if parent >= 0 else -1, op))
        import_s += rec["import_s"]
        layer_of.update(rec["layer_of"])
        counters.update(rec["counters"])
    return merged, import_s


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
