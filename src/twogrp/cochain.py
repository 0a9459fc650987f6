"""Group cochains, the bar coboundary, and exact cohomology over finite
abelian coefficients.

Cochains are dense tables G^n -> A with trivial action.  All solving happens
on the normalized subcomplex (cochains vanishing when any argument is the
identity), coordinatized by tuples of non-identity elements; systems are
decomposed by coefficient factor and prime power, where the modular
diagonalization of twogrp.modlinalg applies.
"""

import itertools

import numpy as np

from . import kernels
from .coeff import AbelianGroup
from .errors import (
    DegreeMismatch,
    NotACocycle,
    ShapeMismatch,
    SizeBound,
    WitnessMismatch,
)
from .group import FiniteGroup, group_automorphisms
from .modlinalg import (
    canonical_invariant_factors,
    crt_combine,
    kernel_mod_prime_power,
    lex_reduce_mod,
    prime_power_decomposition,
    smith_mod_prime_power,
    solve_mod_prime_power,
)

DEFAULT_MAX_GROUP = 8
DEFAULT_MAX_COEFFS = 8


def _check_degree(degree):
    degree = int(degree)
    if degree < 0:
        raise DegreeMismatch("cochain degree must be >= 0, got %d" % degree)
    return degree


class Cochain:
    """A degree-n cochain: dense table over G^n with values in A.

    values is indexed with the first argument most significant, i.e. entry
    for (g1..gn) sits at sum(g_i * |G|^(n-i)).
    """

    def __init__(self, group, coeffs, degree, values):
        self.group = group
        self.coeffs = coeffs
        self.degree = _check_degree(degree)
        values = tuple(tuple(v) for v in values)
        if len(values) != group.order**self.degree:
            raise ShapeMismatch(
                "expected %d values, got %d" % (group.order**self.degree, len(values))
            )
        for v in values:
            coeffs.check(v)
        self.values = values

    @classmethod
    def zero(cls, group, coeffs, degree):
        degree = _check_degree(degree)
        return cls(group, coeffs, degree, [coeffs.zero] * group.order**degree)

    @classmethod
    def from_function(cls, group, coeffs, degree, fn):
        degree = _check_degree(degree)
        vals = [
            fn(*args)
            for args in itertools.product(range(group.order), repeat=degree)
        ]
        return cls(group, coeffs, degree, vals)

    def flat_index(self, args):
        idx = 0
        for g in args:
            idx = idx * self.group.order + g
        return idx

    def value(self, args):
        return self.values[self.flat_index(args)]

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.group == other.group
            and self.coeffs == other.coeffs
            and self.degree == other.degree
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.degree, self.values))

    def __repr__(self):
        return "Cochain(degree=%d, |G|=%d, A=%s)" % (
            self.degree,
            self.group.order,
            list(self.coeffs.invariant_factors),
        )

    def add(self, other):
        self._compat(other)
        A = self.coeffs
        return Cochain(
            self.group, A, self.degree,
            [A.add(a, b) for a, b in zip(self.values, other.values)],
        )

    def sub(self, other):
        self._compat(other)
        A = self.coeffs
        return Cochain(
            self.group, A, self.degree,
            [A.sub(a, b) for a, b in zip(self.values, other.values)],
        )

    def neg(self):
        A = self.coeffs
        return Cochain(self.group, A, self.degree, [A.neg(a) for a in self.values])

    def scale(self, n):
        A = self.coeffs
        return Cochain(self.group, A, self.degree, [A.scale(n, a) for a in self.values])

    def _compat(self, other):
        if (
            self.group != other.group
            or self.coeffs != other.coeffs
            or self.degree != other.degree
        ):
            raise DegreeMismatch("cochains live on different complexes")

    def is_zero(self):
        z = self.coeffs.zero
        return all(v == z for v in self.values)

    def normalization_witness(self):
        """First argument tuple containing the identity at which the value
        is nonzero, or None."""
        z = self.coeffs.zero
        for flat, args in enumerate(
            itertools.product(range(self.group.order), repeat=self.degree)
        ):
            if 0 in args and self.values[flat] != z:
                return args
        return None

    def is_normalized(self):
        return self.normalization_witness() is None

    def index_array(self):
        """Values as coefficient-element indices, as an int64 array."""
        A = self.coeffs
        return np.array([A.index(v) for v in self.values], dtype=np.int64)

    def to_json(self):
        def nest(vals, degree):
            if degree == 0:
                return list(vals[0])
            step = len(vals) // self.group.order
            return [
                nest(vals[i * step:(i + 1) * step], degree - 1)
                for i in range(self.group.order)
            ]

        return {
            "group": self.group.to_json(),
            "coeffs": self.coeffs.to_json(),
            "degree": self.degree,
            "values": nest(self.values, self.degree),
        }

    @classmethod
    def from_json(cls, obj, group=None, coeffs=None):
        group = group or FiniteGroup.from_json(obj["group"])
        coeffs = coeffs or AbelianGroup.from_json(obj["coeffs"])
        degree = obj["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise DegreeMismatch(
                "cochain degree must be an integer >= 0, got %r" % (degree,)
            )
        flat = []

        def walk(node, depth):
            if depth == 0:
                flat.append(tuple(node))
                return
            if len(node) != group.order:
                raise ShapeMismatch("values array has wrong fanout at depth %d" % depth)
            for child in node:
                walk(child, depth - 1)

        walk(obj["values"], degree)
        return cls(group, coeffs, degree, flat)


def coboundary(c):
    """The inhomogeneous bar coboundary with trivial action:
    (dc)(g1..g_{n+1}) = c(g2..) - c(g1g2, g3..) + ... +/- c(g1..gn)."""
    G, A = c.group, c.coeffs
    els = A.elements()
    out = kernels.coboundary_table(
        G.table_array, G.order, c.degree, c.index_array(),
        A.add_array, A.neg_array, len(els),
    )
    return Cochain(G, A, c.degree + 1, [els[int(i)] for i in out])


def is_cocycle(c):
    """(True, None) if dc == 0, else (False, witness) with the
    lexicographically first failing argument tuple."""
    G, A = c.group, c.coeffs
    flat = kernels.first_coboundary_violation(
        G.table_array, G.order, c.degree, c.index_array(),
        A.add_array, A.neg_array, A.order,
    )
    if flat < 0:
        return True, None
    args = []
    for _ in range(c.degree + 1):
        args.append(flat % G.order)
        flat //= G.order
    return False, tuple(reversed(args))


def pull_back_along_automorphism(phi, c):
    """(phi . c)(g1..gn) = c(phi(g1)..phi(gn))."""
    return Cochain.from_function(
        c.group, c.coeffs, c.degree,
        lambda *args: c.value(tuple(phi(g) for g in args)),
    )


# ---------------------------------------------------------------------------
# normalized-coordinate linear algebra


def normalized_tuples(order, degree):
    """Tuples of non-identity element indices, lexicographic."""
    return list(itertools.product(range(1, order), repeat=degree))


def _coord_index(args, order):
    idx = 0
    for g in args:
        idx = idx * (order - 1) + (g - 1)
    return idx


def bar_matrix(G, degree):
    """Integer matrix of d: normalized C^degree -> normalized C^(degree+1)."""
    n = degree
    ng = G.order
    ncols = (ng - 1) ** n
    nrows = (ng - 1) ** (n + 1)
    D = np.zeros((nrows, ncols), dtype=np.int64)
    if n == 0:
        return D  # leading and trailing terms cancel
    for row, args in enumerate(normalized_tuples(ng, n + 1)):
        head = args[1:]
        if 0 not in head:
            D[row, _coord_index(head, ng)] += 1
        sign = -1
        for i in range(1, n + 1):
            merged = args[:i - 1] + (G.table[args[i - 1]][args[i]],) + args[i + 1:]
            if 0 not in merged:
                D[row, _coord_index(merged, ng)] += sign
            sign = -sign
        tail = args[:-1]
        if 0 not in tail:
            D[row, _coord_index(tail, ng)] += sign
    return D


def _check_bounds(G, A, degree, max_group, max_coeffs):
    _check_degree(degree)
    if degree > 3:
        raise SizeBound("cohomology solving is bounded at degree 3")
    if G.order > max_group:
        raise SizeBound(
            "group order %d exceeds bound %d" % (G.order, max_group)
        )
    if A.order > max_coeffs:
        raise SizeBound(
            "coefficient order %d exceeds bound %d" % (A.order, max_coeffs)
        )


def _cochain_from_factor_vectors(G, A, degree, vectors):
    """Build a normalized cochain from one residue vector per invariant
    factor over the normalized coordinates."""
    coords = normalized_tuples(G.order, degree)
    table = {}
    for idx, args in enumerate(coords):
        table[args] = tuple(int(vec[idx]) for vec in vectors)
    zero = A.zero

    def fn(*args):
        if 0 in args:
            return zero
        return table[args]

    return Cochain.from_function(G, A, degree, fn)


def _factor_vector(c, t):
    """Residues of invariant factor t over normalized coordinates."""
    coords = normalized_tuples(c.group.order, c.degree)
    return np.array([c.value(args)[t] for args in coords], dtype=np.int64)


class CocycleBasis:
    """Generators of the normalized cocycle subgroup Z^n."""

    def __init__(self, group, coeffs, degree, generators, orders):
        self.group = group
        self.coeffs = coeffs
        self.degree = degree
        self.generators = generators
        self.orders = orders
        self.subgroup_order = 1
        for o in orders:
            self.subgroup_order *= o


def cocycle_solve(G, A, degree, max_group=DEFAULT_MAX_GROUP,
                  max_coeffs=DEFAULT_MAX_COEFFS):
    """Generators of the subgroup of normalized degree-n cocycles."""
    _check_bounds(G, A, degree, max_group, max_coeffs)
    D = bar_matrix(G, degree)
    ncols = D.shape[1]
    gens_out = []
    orders_out = []
    for t, m in enumerate(A.invariant_factors):
        for p, k in prime_power_decomposition(m):
            q = p**k
            gens, orders, _ = kernel_mod_prime_power(D, p, k)
            mu = m // q
            for j in range(ncols):
                if orders[j] == 1:
                    continue
                vec = (gens[:, j] * mu) % m
                vectors = [
                    vec if s == t else np.zeros(ncols, dtype=np.int64)
                    for s in range(len(A.invariant_factors))
                ]
                gens_out.append(_cochain_from_factor_vectors(G, A, degree, vectors))
                orders_out.append(orders[j])
    return CocycleBasis(G, A, degree, gens_out, orders_out)


class _QPartData:
    """Per (invariant factor, prime power) solver data used to locate the
    cohomology class of a cocycle."""

    def __init__(self, t, p, k, mu, evals, Vinv, P, positions):
        self.t = t
        self.p = p
        self.k = k
        self.mu = mu  # cofactor m_t / p^k, a unit mod p^k
        self.evals = evals
        self.Vinv = Vinv
        self.P = P
        self.positions = positions  # [(row index in P-coords, order p^f)]

    def coordinates(self, vec_t):
        p, k, q = self.p, self.k, self.p**self.k
        # representatives are stored scaled by mu (the CRT lift into Z_{m_t});
        # divide it back out so generator i reads coordinate 1
        muinv = pow(self.mu % q, -1, q)
        y = (self.Vinv @ ((vec_t * muinv) % q)) % q
        c = np.zeros(len(y), dtype=np.int64)
        for j in range(len(y)):
            step = p ** (k - self.evals[j])
            if int(y[j]) % step != 0:
                raise NotACocycle()
            c[j] = int(y[j]) // step
        w = (self.P @ c) % q
        return tuple(int(w[i]) % o for i, o in self.positions)


class CohomologyResult:
    """H^n(G, A): invariant factors with one representative cocycle per
    reported generator, plus class arithmetic for orbit computations."""

    def __init__(self, group, coeffs, degree, invariant_factors, representatives,
                 raw_orders, raw_reps, qparts, boundary_matrix):
        self.group = group
        self.coeffs = coeffs
        self.degree = degree
        self.invariant_factors = invariant_factors
        self.representatives = representatives
        self.class_count = 1
        for o in raw_orders:
            self.class_count *= o
        self._raw_orders = raw_orders
        self._raw_reps = raw_reps
        self._qparts = qparts
        self._boundary = boundary_matrix

    def class_coordinates(self, c):
        """Coordinates of the class of cocycle c w.r.t. the raw generator
        list (one residue per generator)."""
        out = []
        for qp in self._qparts:
            vec = _factor_vector(c, qp.t)
            out.extend(qp.coordinates(vec))
        return tuple(out)

    def cochain_from_coordinates(self, coords):
        """A representative cocycle of the class with the given raw
        coordinates."""
        if len(coords) != len(self._raw_reps):
            raise ShapeMismatch("expected %d coordinates" % len(self._raw_reps))
        acc = Cochain.zero(self.group, self.coeffs, self.degree)
        for ci, rep in zip(coords, self._raw_reps):
            acc = acc.add(rep.scale(ci))
        return acc

    def all_class_coordinates(self):
        return list(itertools.product(*(range(o) for o in self._raw_orders)))

    def lex_minimal_representative(self, c):
        """The lexicographically smallest cocycle cohomologous to c."""
        vectors = []
        for t, m in enumerate(self.coeffs.invariant_factors):
            vec = _factor_vector(c, t)
            vectors.append(
                np.array(lex_reduce_mod(self._boundary % m, m, vec), dtype=np.int64)
            )
        return _cochain_from_factor_vectors(self.group, self.coeffs, self.degree,
                                            vectors)


def cohomology(G, A, degree, max_group=DEFAULT_MAX_GROUP,
               max_coeffs=DEFAULT_MAX_COEFFS):
    """H^degree(G, A) on normalized cochains, via modular diagonalization of
    the bar coboundary matrices."""
    _check_bounds(G, A, degree, max_group, max_coeffs)
    D = bar_matrix(G, degree)
    Dprev = (
        bar_matrix(G, degree - 1)
        if degree >= 1
        else np.zeros(((G.order - 1) ** 0, 0), dtype=np.int64)
    )
    ncols = D.shape[1]
    raw = []  # (p, f, t, rep vector mod m_t, qpart index ordering key)
    qparts = []
    for t, m in enumerate(A.invariant_factors):
        for p, k in prime_power_decomposition(m):
            q = p**k
            gens, orders, V = kernel_mod_prime_power(D, p, k)
            Vinv = _invert_mod(V, q)
            evals = [prime_valuation_of_order(o, p) for o in orders]
            # express the image of d^(n-1) in kernel-generator coordinates
            C = np.zeros((ncols, Dprev.shape[1]), dtype=np.int64)
            if Dprev.shape[1]:
                Y = (Vinv @ (Dprev % q)) % q
                for j in range(ncols):
                    step = p ** (k - evals[j])
                    col = Y[j, :]
                    if np.any(col % step):
                        raise AssertionError("image not contained in kernel")
                    C[j, :] = (col // step) % q
            rel = np.concatenate(
                [np.diag([p ** evals[j] for j in range(ncols)]).astype(np.int64), C],
                axis=1,
            )
            res = smith_mod_prime_power(rel, p, k, want_u=True, want_uinv=True)
            vals = res["vals"]
            P, Pinv = res["U"], res["Uinv"]
            positions = []
            mu = m // q
            for i in range(min(rel.shape)):
                f = vals[i]
                if f > 0:
                    positions.append((i, p**f))
                    avec = (gens @ Pinv[:, i]) % q
                    raw.append((p, f, t, (avec * mu) % m))
            qparts.append(_QPartData(t, p, k, mu, evals, Vinv, P, positions))
    raw_orders = [p**f for p, f, _, _ in raw]
    nfactors = len(A.invariant_factors)

    def to_cochain(entry):
        p, f, t, vec = entry
        vectors = [
            vec if s == t else np.zeros(ncols, dtype=np.int64)
            for s in range(nfactors)
        ]
        return _cochain_from_factor_vectors(G, A, degree, vectors)

    raw_reps = [to_cochain(e) for e in raw]
    # merge into the divisibility chain; chain slot i combines, per prime,
    # the i-th largest remaining power
    chain = canonical_invariant_factors(raw_orders)
    per_prime = {}
    for idx, (p, f, t, vec) in enumerate(raw):
        per_prime.setdefault(p, []).append((-f, t, idx))
    for p in per_prime:
        per_prime[p].sort()
    merged_reps = []
    for i, factor in enumerate(reversed(chain)):
        acc = Cochain.zero(G, A, degree)
        for p, entries in per_prime.items():
            if i < len(entries):
                acc = acc.add(raw_reps[entries[i][2]])
        merged_reps.append(acc)
    merged_reps.reverse()
    result = CohomologyResult(
        G, A, degree, chain, merged_reps, raw_orders, raw_reps, qparts, Dprev
    )
    result.representatives = [
        result.lex_minimal_representative(r) for r in merged_reps
    ]
    return result


def prime_valuation_of_order(order, p):
    v = 0
    while order % p == 0:
        order //= p
        v += 1
    return v


def _invert_mod(M, q):
    """Inverse of an invertible integer matrix over Z_q via adjugate-free
    elimination (prime-power modulus: unit pivots always exist)."""
    n = M.shape[0]
    A = np.concatenate([M % q, np.eye(n, dtype=np.int64)], axis=1)
    for t in range(n):
        pivot_row = None
        for i in range(t, n):
            try:
                pow(int(A[i, t]), -1, q)
            except ValueError:
                continue
            pivot_row = i
            break
        if pivot_row is None:
            raise ValueError("matrix not invertible mod %d" % q)
        if pivot_row != t:
            A[[t, pivot_row]] = A[[pivot_row, t]]
        inv = pow(int(A[t, t]), -1, q)
        A[t, :] = (A[t, :] * inv) % q
        factors = A[:, t].copy()
        factors[t] = 0
        if factors.any():
            A -= np.outer(factors, A[t, :])
            A %= q
    return A[:, n:]


def are_cohomologous(c1, c2):
    """A normalized witness beta with d(beta) = c2 - c1, or None."""
    c1._compat(c2)
    G, A = c1.group, c1.coeffs
    n = c1.degree
    delta = c2.sub(c1)
    if not delta.is_normalized():
        return None
    if n == 0:
        return None if not delta.is_zero() else Cochain.zero(G, A, 0)
    Dprev = bar_matrix(G, n - 1)
    vectors = []
    for t, m in enumerate(A.invariant_factors):
        rhs = _factor_vector(delta, t)
        parts = []
        for p, k in prime_power_decomposition(m):
            x = solve_mod_prime_power(Dprev, rhs, p, k)
            if x is None:
                return None
            parts.append((x, p**k))
        vec = np.array(
            [
                crt_combine([(int(x[i]), q) for x, q in parts], m)
                for i in range(Dprev.shape[1])
            ],
            dtype=np.int64,
        )
        vectors.append(vec)
    beta = _cochain_from_factor_vectors(G, A, n - 1, vectors)
    if coboundary(beta).values != delta.values:
        raise WitnessMismatch("computed witness beta has d(beta) != c2 - c1")
    return beta


def cohomology_classes_mod_aut(G, A, degree=3, max_group=DEFAULT_MAX_GROUP,
                               max_coeffs=DEFAULT_MAX_COEFFS,
                               aut_order_bound=12):
    """Orbit representatives of H^degree(G, A) under the pullback action of
    Aut(G).  Returns (representatives, orbit_count, result)."""
    result = cohomology(G, A, degree, max_group=max_group, max_coeffs=max_coeffs)
    auts = group_automorphisms(G, order_bound=aut_order_bound)
    all_coords = result.all_class_coordinates()
    remaining = set(all_coords)
    reps = []
    for start in sorted(all_coords):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            coords = frontier.pop()
            rep = result.cochain_from_coordinates(coords)
            for phi in auts:
                image = result.class_coordinates(
                    pull_back_along_automorphism(phi, rep)
                )
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        remaining -= orbit
        reps.append(
            result.lex_minimal_representative(
                result.cochain_from_coordinates(min(orbit))
            )
        )
    return reps, len(reps), result
