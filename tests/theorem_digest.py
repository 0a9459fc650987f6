"""One SHA-256 over the theorem reports that must not move.

For every class of H^3(G, A) on the acceptance grid (the groups C1..C6,
C2xC2 and D3, with A = Z2, Z3, Z4 and Z2xZ2: 345 classes), it hashes the
sorted-key JSON of verify_theorem on the class's lex-minimal
representative: every stage verdict, witness and count.  It prints the
digest and exits 1 if it differs from DIGEST, which was recorded before the
models' tables were read off the nerve of G.

Run from the repository root:  python tests/theorem_digest.py
The file name keeps it out of pytest's collection.
"""

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from twogrp.cochain import cohomology  # noqa: E402
from twogrp.coeff import AbelianGroup  # noqa: E402
from twogrp.correspondence import verify_theorem  # noqa: E402
from twogrp.group import group_construct  # noqa: E402

DIGEST = "75b494d3bb08ed038ff5758c31f15006b1f52d49a7eff80af6231d1172dc8959"

GROUPS = [
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
    "product:cyclic:2,cyclic:2", "dihedral:3",
]
COEFFS = [[2], [3], [4], [2, 2]]
CLASSES = 345


def digest():
    h = hashlib.sha256()
    count = 0
    for spec in GROUPS:
        G = group_construct(spec)
        for factors in COEFFS:
            res = cohomology(G, AbelianGroup(factors), 3)
            for coords in res.all_class_coordinates():
                alpha = res.lex_minimal_representative(res.cochain_from_coordinates(coords))
                report = verify_theorem(alpha).to_json()
                h.update(json.dumps(report, sort_keys=True).encode("utf-8"))
                count += 1
    return h.hexdigest(), count


def main():
    got, count = digest()
    print(got)
    return 0 if got == DIGEST and count == CLASSES else 1


if __name__ == "__main__":
    sys.exit(main())
