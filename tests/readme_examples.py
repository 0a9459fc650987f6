"""Run the examples that README.md documents, so that they cannot drift.

It runs the "Library example" block and requires each line it prints to
equal the comment on its print call.  It then writes the documented
cocycle JSON to alpha.json in a temporary directory and requires exit 0
from each CALLS command, which must appear in README.md as written.  It
exits 1 on the first difference.

Run from the repository root:  python tests/readme_examples.py
The file name keeps it out of pytest's collection.
"""

import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

CALLS = [
    "cocycle verify alpha.json",
    "twogroup check --cocycle alpha.json",
    "theorem verify --group cyclic:2 --coeffs 2 --cocycle alpha.json",
]


def block(text, heading_or_intro, lang):
    """The first ```lang block after the given text."""
    start = text.index(heading_or_intro)
    match = re.compile(r"^```%s\n(.*?)^```" % lang, re.M | re.S).search(text, start)
    return match.group(1)


def run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True)


def main():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = block(readme, "## Library example", "python")
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    with tempfile.TemporaryDirectory() as tmp:
        done = run(["-c", code], tmp)
        got = done.stdout.splitlines()
        if done.returncode or got != want:
            print("library example printed %r, exit %d; its comments say %r\n%s"
                  % (got, done.returncode, want, done.stderr))
            return 1
        print("library example: %s" % ", ".join(got))
        cocycle = block(readme, "A cocycle file is JSON", "json")
        pathlib.Path(tmp, "alpha.json").write_text(cocycle, encoding="utf-8")
        for call in CALLS:
            if "twogrp " + call not in readme.splitlines():
                print("README.md no longer documents: twogrp %s" % call)
                return 1
            done = run(["-m", "twogrp.cli", *call.split()], tmp)
            if done.returncode:
                print("twogrp %s exited %d\n%s%s"
                      % (call, done.returncode, done.stdout, done.stderr))
                return 1
            print("exit 0: twogrp %s" % call)
    return 0


if __name__ == "__main__":
    sys.exit(main())
