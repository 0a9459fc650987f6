"""One SHA-256 over the alpha-free simplicial objects that must not move.

For every coefficient group A in COEFFS and truncation N = -1..5, it hashes
the to_json() of gamma_a2(A, N), wbar_b2a(A, N) and w_b2a(A, N) and the
components of decalage_map(A, N): 252 cases.  For every group of the
acceptance grid and N = -1..4 it hashes the to_json() of nerve_bg(G, N).
A refused call is hashed as its error class and message.  It prints the
digest and exits 1 if it differs from DIGEST, which was recorded before
Gamma(A[2])'s and Wbar's face and degeneracy rules were read off the
indices alone.

Run from the repository root:  python tests/b2a_digest.py
The file name keeps it out of pytest's collection.
"""

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from twogrp.coeff import AbelianGroup  # noqa: E402
from twogrp.errors import TwogrpError  # noqa: E402
from twogrp.group import group_construct  # noqa: E402
from twogrp.simplicial import decalage_map, gamma_a2, nerve_bg, w_b2a, wbar_b2a  # noqa: E402

DIGEST = "326d32914d8542c386d2b94881a7155ea095af6dfcf9c798a94d83d8d0519817"

COEFFS = [[2], [3], [4], [5], [6], [2, 2], [2, 4], [3, 3], [33]]
GROUPS = [
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
    "product:cyclic:2,cyclic:2", "dihedral:3",
]
B2A_TRUNCATIONS = range(-1, 6)
NERVE_TRUNCATIONS = range(-1, 5)
CASES = len(COEFFS) * len(B2A_TRUNCATIONS) * 4 + len(GROUPS) * len(NERVE_TRUNCATIONS)


def decalage_components(A, N):
    return [c.tolist() for c in decalage_map(A, N).components]


BUILDERS = [
    ("gamma_a2", lambda A, N: gamma_a2(A, N).to_json()),
    ("wbar_b2a", lambda A, N: wbar_b2a(A, N).to_json()),
    ("w_b2a", lambda A, N: w_b2a(A, N).to_json()),
    ("decalage_map", decalage_components),
]


def answer(build, *args):
    try:
        return build(*args)
    except TwogrpError as exc:
        return [type(exc).__name__, str(exc)]


def digest():
    h = hashlib.sha256()
    count = 0
    cases = [(name, factors, N, build, AbelianGroup(factors))
             for factors in COEFFS for N in B2A_TRUNCATIONS for name, build in BUILDERS]
    cases += [("nerve_bg", spec, N, lambda G, N: nerve_bg(G, N).to_json(),
               group_construct(spec))
              for spec in GROUPS for N in NERVE_TRUNCATIONS]
    for name, label, N, build, arg in cases:
        h.update(json.dumps([name, label, N, answer(build, arg, N)],
                            sort_keys=True).encode("utf-8"))
        count += 1
    return h.hexdigest(), count


def main():
    got, count = digest()
    print(got)
    return 0 if got == DIGEST and count == CASES else 1


if __name__ == "__main__":
    sys.exit(main())
