"""Facts the benchmark derives on its own, never from the code it measures.

The output checks compare what twogrp returns against these: a direct
bar coboundary over full argument tuples, tables of cohomology invariants
and orbit counts, the standard cocycles of a cyclic group, and the list of
stages a theorem report must carry.
"""

import itertools

# Every stage verify_theorem records, in order.
THEOREM_STAGES = [
    "construction",
    "simplicial:duskin",
    "simplicial:pullback",
    "simplicial:nerve",
    "simplicial:w",
    "simplicial:wbar",
    "map:decalage",
    "map:cocycle_map",
    "map:cocycle_map_level4",
    "iso:forward",
    "iso:bijective",
    "iso:backward",
    "iso:round_trip",
    "simplicial:fiber_product",
    "map:model_to_nerve",
    "map:model_to_w",
    "agreement:composites_match",
    "agreement:mediating_map",
    "agreement:bijective",
    "kan:duskin",
    "kan:degree2_filler_count",
]

# H^3(G, A) invariant factors and the number of Aut(G)-orbits on it.
# The order-8 rows and V4/Z2^2 were recorded when the benchmark was
# introduced; the cyclic rows follow from H^3(C_n, Z_m) = Z_gcd(n,m) with
# u in Aut(C_n) acting by u^2, and the S3/D3 rows from Aut(S3) = Inn(S3)
# acting trivially on cohomology.
CLASSIFY_TABLE = {
    ("dihedral:4", (2,)): ([2, 2, 2, 2], 10),
    ("product:cyclic:2,cyclic:4", (2,)): ([2, 2, 2, 2], 7),
    ("product:cyclic:2,cyclic:2", (2, 2)): ([2] * 8, 56),
    ("cyclic:7", (7,)): ([7], 3),
    ("symmetric:3", (6,)): ([6], 6),
    ("dihedral:3", (2, 2)): ([2, 2], 4),
    ("cyclic:2", (2,)): ([2], 2),
    ("cyclic:3", (3,)): ([3], 3),
    ("cyclic:4", (4,)): ([4], 4),
}


def flat_index(args, order):
    idx = 0
    for g in args:
        idx = idx * order + g
    return idx


def unflatten(idx, order, length):
    out = []
    for _ in range(length):
        out.append(idx % order)
        idx //= order
    return tuple(reversed(out))


def coboundary_values(table, order, factors, degree, values):
    """(dc)(g1..g_{n+1}) = sum_i (-1)^i c(face_i), trivial action, as a
    flat list of residue tuples with the first argument most significant."""
    out = []
    for args in itertools.product(range(order), repeat=degree + 1):
        acc = [0] * len(factors)
        for i in range(degree + 2):
            if i == 0:
                sub = args[1:]
            elif i == degree + 1:
                sub = args[:-1]
            else:
                sub = args[:i - 1] + (table[args[i - 1]][args[i]],) + args[i + 1:]
            v = values[flat_index(sub, order)]
            sign = -1 if i % 2 else 1
            for t in range(len(factors)):
                acc[t] += sign * v[t]
        out.append(tuple(a % m for a, m in zip(acc, factors)))
    return out


def first_nonzero(values):
    """Flat index of the first entry with a nonzero residue, or None."""
    for idx, v in enumerate(values):
        if any(v):
            return idx
    return None


def normalized(order, degree, values):
    """Whether every entry with an identity argument is zero."""
    for idx, args in enumerate(itertools.product(range(order), repeat=degree)):
        if 0 in args and any(values[idx]):
            return False
    return True


def is_normalized_cocycle(table, order, factors, degree, values):
    return normalized(order, degree, values) and first_nonzero(
        coboundary_values(table, order, factors, degree, values)
    ) is None


def random_normalized(rng, order, factors, degree):
    """A uniform normalized cochain as a flat list of residue tuples."""
    zero = (0,) * len(factors)
    return [
        zero if 0 in args else tuple(rng.randrange(m) for m in factors)
        for args in itertools.product(range(order), repeat=degree)
    ]


def cyclic_cocycle_values(n, k):
    """The standard 3-cocycle of Z_n with Z_n coefficients,
    alpha_k(a, b, c) = k * a * floor((b + c) / n) mod n, nested G x G x G."""
    return [
        [[[(k * a * ((b + c) // n)) % n] for c in range(n)] for b in range(n)]
        for a in range(n)
    ]
