"""One SHA-256 over the cohomology outputs that must not move.

For every group of order <= 8 and every coefficient group of order <= 8, it
hashes the invariant factors and representatives of H^0..H^3 and, for H^3
under the class bound, the Aut(G)-orbit representatives.  It prints the
digest and exits 1 if it differs from DIGEST, which was recorded before the
Smith sweeps were restricted to the entries they change.

Run from the repository root:  python tests/cohomology_digest.py
The file name keeps it out of pytest's collection.
"""

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from twogrp.cochain import cohomology, cohomology_classes_mod_aut  # noqa: E402
from twogrp.coeff import AbelianGroup  # noqa: E402
from twogrp.errors import SizeBound  # noqa: E402
from twogrp.group import group_construct  # noqa: E402

DIGEST = "247055c7effe23e66cc2c900a63d18848d6dbe931005a0a83aec1431ef67cd7d"

GROUPS = [
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7",
    "cyclic:8", "product:cyclic:2,cyclic:2", "dihedral:3", "product:cyclic:2,cyclic:4",
    "dihedral:4", "product:cyclic:2,product:cyclic:2,cyclic:2",
]
COEFFS = [[], [2], [3], [4], [5], [6], [7], [8], [2, 2], [2, 4], [2, 2, 2]]


def residues(cochains):
    return [c.residues.tobytes() for c in cochains]


def digest():
    h = hashlib.sha256()
    for spec in GROUPS:
        G = group_construct(spec)
        for factors in COEFFS:
            A = AbelianGroup(factors)
            for n in range(4):
                res = cohomology(G, A, n)
                h.update(repr((spec, factors, n, res.invariant_factors, res.class_count,
                               residues(res.representatives))).encode())
            try:
                reps, count, _res = cohomology_classes_mod_aut(G, A, 3)
            except SizeBound:
                h.update(repr((spec, factors, "refused")).encode())
                continue
            h.update(repr((spec, factors, count, residues(reps))).encode())
    return h.hexdigest()


def main():
    got = digest()
    print(got)
    return 0 if got == DIGEST else 1


if __name__ == "__main__":
    sys.exit(main())
