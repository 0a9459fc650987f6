"""The bar-coboundary kernel, as one numpy gather over G^(degree+1).

All arguments are integer arrays or sequences, reshaped as needed: the group
table row-major, cochain values as coefficient-element indices in the
lexicographic enumeration of the coefficient group (first argument most
significant), and the coefficient addition/negation tables.
"""

import numpy as np

BACKEND = "numpy"


def coboundary_table(gtable, ng, degree, values, add, neg, na):
    """The degree+1 coboundary of values (length ng^degree) under the
    inhomogeneous bar formula with trivial action, as a flat int64 array of
    length ng^(degree+1)."""
    n = degree
    T = np.asarray(gtable, dtype=np.int64).reshape(ng, ng)
    V = np.asarray(values, dtype=np.int64).reshape((ng,) * n)
    Add = np.asarray(add, dtype=np.int64).reshape(na, na)
    Neg = np.asarray(neg, dtype=np.int64)
    # open grids: g[k] varies along axis k only, so no full index arrays
    g = np.ogrid[(slice(0, ng),) * (n + 1)]
    acc = V[None, ...]  # c(g2..g_{n+1})
    sign = -1
    for i in range(1, n + 1):
        term = V[g[:i - 1] + (T[g[i - 1], g[i]],) + g[i + 1:]]
        acc = Add[acc, term] if sign > 0 else Add[acc, Neg[term]]
        sign = -sign
    term = V[..., None]  # c(g1..gn)
    acc = Add[acc, term] if sign > 0 else Add[acc, Neg[term]]
    return np.broadcast_to(acc, (ng,) * (n + 1)).flatten()


def first_coboundary_violation(gtable, ng, degree, values, add, neg, na):
    """Flat index of the lexicographically first tuple where the coboundary
    of values is nonzero, or -1."""
    nonzero = np.flatnonzero(coboundary_table(gtable, ng, degree, values, add, neg, na))
    return int(nonzero[0]) if nonzero.size else -1
