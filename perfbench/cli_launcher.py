"""Run one twogrp CLI call with the layer tracer installed.

    python3 perfbench/cli_launcher.py --spans FILE -- <twogrp cli argv...>

Imports twogrp.cli, installs the same wrappers a traced worker uses, calls
twogrp.cli.main(argv) and exits with its code, so stdout is what
`python -m twogrp.cli` prints.  The import time, spans and counters go to
FILE as JSON.
"""

import json
import sys
import time


def main():
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, argv = args[1], args[3:]
    t0 = time.perf_counter()
    import twogrp.cli

    import_s = time.perf_counter() - t0
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    code = twogrp.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "layer_of": tracer.layer_of,
                   "counters": dict(tracer.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
