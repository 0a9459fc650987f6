"""Record the SHA-256 of the stdout of every call the cli-cold workload makes.

    python3 perfbench/record_digests.py

Writes perfbench/cli_digests.json.  The CLI's JSON output is meant to stay
byte-identical, so run this only when a change to that output is intended,
and say so in the change that commits the new digests.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    workdir = os.path.join(ROOT, ".bench_out", "record-digests")
    os.makedirs(workdir, exist_ok=True)
    try:
        workloads.write_cocycle_files(workdir)
        digests = {}
        for size in ("full", "tiny"):
            for key, argv in workloads.all_digest_calls(size):
                proc = subprocess.run(
                    [sys.executable, "-m", "twogrp.cli", "--format", "json"] + argv,
                    cwd=workdir, env=workloads.cli_env(SRC), capture_output=True,
                    timeout=workloads.CLI_TIMEOUT_S,
                )
                if proc.returncode != 0:
                    raise SystemExit("%s exited %d: %s" % (key, proc.returncode, proc.stderr))
                digests[key] = hashlib.sha256(proc.stdout).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests in %s" % (len(digests), workloads.DIGESTS_PATH))


if __name__ == "__main__":
    main()
