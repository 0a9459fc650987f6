"""Group cochains, the bar coboundary, and exact cohomology over finite
abelian coefficients.

Cochains are dense tables G^n -> A with trivial action, held as one
read-only (|G|^n, k) int64 array of residues: one row per argument tuple,
first argument most significant, one column per invariant factor of A.
Arithmetic is one numpy expression modulo A.moduli; pullbacks and the
passage to and from normalized coordinates are gathers over the array.  The
bar complex is the cochain complex of the nerve of G, so the coboundary and
the integer bar matrix both read their faces from simplicial.nerve_face: dc
is the alternating sum of c gathered at the faces of each tuple of G^(n+1),
and bar_matrix places the same signs at the faces of normalized tuples.

All solving happens on the normalized subcomplex (cochains vanishing when
any argument is the identity), coordinatized by tuples of non-identity
elements, i.e. the block [1:, ..., 1:] of the residue array read as a
G x ... x G table.  Cocycles and cohomology are decomposed by coefficient
factor and prime power, where the modular diagonalization of
twogrp.modlinalg applies; lex-minimal representatives and primitives of
coboundaries come from the Howell basis of the image of d over each factor
Z_m.
"""

import itertools

import numpy as np

from .coeff import AbelianGroup
from .errors import (
    DegreeMismatch,
    NotACocycle,
    ParseError,
    ShapeMismatch,
    SizeBound,
    WitnessMismatch,
)
from .group import FiniteGroup, group_automorphisms
from .modlinalg import (
    canonical_invariant_factors,
    howell_basis,
    kernel_mod_prime_power,
    lex_reduce_mod,
    prime_power_decomposition,
    smith_mod_prime_power,
)
from .simplicial import encode, flat, grid, nerve_face

DEFAULT_MAX_GROUP = 8
DEFAULT_MAX_COEFFS = 8


def _check_degree(degree):
    degree = int(degree)
    if degree < 0:
        raise DegreeMismatch("cochain degree must be >= 0, got %d" % degree)
    return degree


def _residue_array(A, values):
    """values, one row of residues per argument tuple, as a read-only int64
    array after one vectorised range check.  On failure A.check names the
    first bad row."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged rows
        arr = np.zeros(0)
    if arr.shape == (len(values), len(A.moduli)) and (
        arr.dtype.kind in "iu" or arr.size == 0
    ):
        arr = arr.astype(np.int64)
        if not ((arr < 0) | (arr >= A.moduli)).any():
            arr.flags.writeable = False
            return arr
    for row in values:
        A.check(tuple(row))
    raise ShapeMismatch("cochain residues must be integers, got dtype %s" % arr.dtype)


class Cochain:
    """A degree-n cochain: dense table over G^n with values in A.

    residues[flat] holds the value at (g1..gn), flat = sum(g_i * |G|^(n-i)),
    one residue per invariant factor of A.
    """

    def __init__(self, group, coeffs, degree, values):
        self.group = group
        self.coeffs = coeffs
        self.degree = _check_degree(degree)
        rows = group.order**self.degree
        if len(values) != rows:
            raise ShapeMismatch("expected %d values, got %d" % (rows, len(values)))
        self.residues = _residue_array(coeffs, values)

    @classmethod
    def zero(cls, group, coeffs, degree):
        degree = _check_degree(degree)
        shape = (group.order**degree, len(coeffs.moduli))
        return cls(group, coeffs, degree, np.zeros(shape, dtype=np.int64))

    @classmethod
    def from_function(cls, group, coeffs, degree, fn):
        degree = _check_degree(degree)
        vals = [
            fn(*args)
            for args in itertools.product(range(group.order), repeat=degree)
        ]
        return cls(group, coeffs, degree, vals)

    @property
    def values(self):
        """The values as a tuple of residue tuples, decoded on each access."""
        return tuple(map(tuple, self.residues.tolist()))

    def cube(self):
        """The residues as a G x ... x G x k array."""
        return self.residues.reshape((self.group.order,) * self.degree
                                     + self.residues.shape[1:])

    def flat_index(self, args):
        idx = 0
        for g in args:
            idx = idx * self.group.order + g
        return idx

    def value(self, args):
        return tuple(self.residues[self.flat_index(args)].tolist())

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.group == other.group
            and self.coeffs == other.coeffs
            and self.degree == other.degree
            and np.array_equal(self.residues, other.residues)
        )

    def __hash__(self):
        return hash((self.degree, self.residues.tobytes()))

    def __repr__(self):
        return "Cochain(degree=%d, |G|=%d, A=%s)" % (
            self.degree,
            self.group.order,
            list(self.coeffs.invariant_factors),
        )

    def _like(self, residues):
        return Cochain(self.group, self.coeffs, self.degree, residues)

    def add(self, other):
        self._compat(other)
        return self._like((self.residues + other.residues) % self.coeffs.moduli)

    def sub(self, other):
        self._compat(other)
        return self._like((self.residues - other.residues) % self.coeffs.moduli)

    def neg(self):
        return self._like(-self.residues % self.coeffs.moduli)

    def scale(self, n):
        A = self.coeffs
        return self._like(self.residues * [n % m for m in A.invariant_factors] % A.moduli)

    def _compat(self, other):
        if (
            self.group != other.group
            or self.coeffs != other.coeffs
            or self.degree != other.degree
        ):
            raise DegreeMismatch("cochains live on different complexes")

    def is_zero(self):
        return not self.residues.any()

    def normalization_witness(self):
        """First argument tuple containing the identity at which the value
        is nonzero, or None."""
        shape = (self.group.order,) * self.degree
        nonzero = self.residues.any(axis=1).reshape(shape)
        nonzero[(slice(1, None),) * self.degree] = False
        hits = np.flatnonzero(nonzero)
        return _unravel(hits[0], shape) if hits.size else None

    def is_normalized(self):
        return self.normalization_witness() is None

    def index_array(self):
        """Values as coefficient-element indices, as an int64 array."""
        return self.residues @ self.coeffs.weights

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "coeffs": self.coeffs.to_json(),
            "degree": self.degree,
            "values": self.cube().tolist(),
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
        rows = []

        def walk(node, depth):
            if depth == 0:
                # JSON reads 1.0 as a float and true as a bool; neither is a
                # residue
                if not all(type(r) is int for r in node):
                    raise ParseError("residues must be integers, got %r" % (node,))
                rows.append(node)
                return
            if len(node) != group.order:
                raise ShapeMismatch("values array has wrong fanout at depth %d" % depth)
            for child in node:
                walk(child, depth - 1)

        walk(obj["values"], degree)
        return cls(group, coeffs, degree, rows)


def _unravel(code, shape):
    return tuple(int(i) for i in np.unravel_index(code, shape))


def _coboundary_residues(c):
    """The residues of dc, one row per tuple of G^(n+1): the alternating
    sum of c over the nerve faces d_0..d_(n+1), modulo A.moduli."""
    G, n = c.group, c.degree
    shape = (G.order,) * (n + 1)
    g = grid(shape)
    acc = 0
    for i in range(n + 2):
        rows = encode(nerve_face(G.table_array, g, i), shape[1:])
        term = np.take(c.residues, rows, axis=0)
        acc = acc - term if i % 2 else acc + term
    k = len(c.coeffs.moduli)
    acc = np.broadcast_to(acc, shape + (k,)).reshape(G.order ** (n + 1), k)
    return acc % c.coeffs.moduli


def coboundary(c):
    """The inhomogeneous bar coboundary with trivial action:
    (dc)(g1..g_{n+1}) = c(g2..) - c(g1g2, g3..) + ... +/- c(g1..gn)."""
    return Cochain(c.group, c.coeffs, c.degree + 1, _coboundary_residues(c))


def is_cocycle(c):
    """(True, None) if dc == 0, else (False, witness) with the
    lexicographically first failing argument tuple."""
    nonzero = np.flatnonzero(_coboundary_residues(c))
    if not nonzero.size:
        return True, None
    row = nonzero[0] // len(c.coeffs.moduli)
    return False, _unravel(row, (c.group.order,) * (c.degree + 1))


def pull_back_along_automorphism(phi, c):
    """(phi . c)(g1..gn) = c(phi(g1)..phi(gn))."""
    image = np.array([phi(g) for g in range(c.group.order)], dtype=np.int64)
    pulled = c.cube()[np.ix_(*(image,) * c.degree)]
    return c._like(pulled.reshape(c.residues.shape))


# ---------------------------------------------------------------------------
# normalized-coordinate linear algebra


def bar_matrix(G, degree):
    """Integer matrix of d: normalized C^degree -> normalized C^(degree+1).

    Rows and columns are the tuples of non-identity elements in
    lexicographic order; row x gets (-1)^i in the column of its face d_i
    whenever that face is normalized."""
    n = degree
    m = G.order - 1  # element g >= 1 has coordinate g - 1
    shape = (m,) * (n + 1)
    D = np.zeros((m ** (n + 1), m**n), dtype=np.int64)
    rows = np.arange(D.shape[0])
    g = [axis + 1 for axis in grid(shape)]
    for i in range(n + 2):
        face = nerve_face(G.table_array, g, i)
        keep = True
        for part in face:
            keep = keep & (part != 0)
        keep = np.broadcast_to(keep, shape).flatten()
        cols = flat(encode([part - 1 for part in face], (m,) * n), shape)
        np.add.at(D, (rows[keep], cols[keep]), -1 if i % 2 else 1)
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
    """The normalized cochain whose residues of invariant factor t over the
    normalized coordinates are vectors[t]; factors missing from the mapping
    are zero."""
    shape = (G.order,) * degree
    cube = np.zeros(shape + (len(A.moduli),), dtype=np.int64)
    for t, vec in vectors.items():
        cube[(slice(1, None),) * degree + (t,)] = np.reshape(vec, (G.order - 1,) * degree)
    return Cochain(G, A, degree, cube.reshape(G.order**degree, len(A.moduli)))


def _factor_vector(c, t):
    """Residues of invariant factor t over normalized coordinates."""
    return c.cube()[(slice(1, None),) * c.degree + (t,)].flatten()


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
                gens_out.append(_cochain_from_factor_vectors(G, A, degree, {t: vec}))
                orders_out.append(orders[j])
    return CocycleBasis(G, A, degree, gens_out, orders_out)


class _QPartData:
    """Per (invariant factor, prime power) solver data used to locate the
    cohomology class of a cocycle."""

    def __init__(self, t, p, k, mu, steps, Vinv, P, positions):
        self.t = t
        self.p = p
        self.k = k
        self.mu = mu  # cofactor m_t / p^k, a unit mod p^k
        self.steps = steps  # p^(k - e_j): generator j is V[:, j] * steps[j]
        self.Vinv = Vinv
        self.P = P
        self.positions = positions  # [(row index in P-coords, order p^f)]

    def coordinates(self, vec_t):
        q = self.p**self.k
        # representatives are stored scaled by mu (the CRT lift into Z_{m_t});
        # divide it back out so generator i reads coordinate 1
        muinv = pow(self.mu % q, -1, q)
        y = (self.Vinv @ ((vec_t * muinv) % q)) % q
        if (y % self.steps).any():
            raise NotACocycle()
        w = (self.P @ (y // self.steps)) % q
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
        # the Howell basis of the image of d^(n-1), one per invariant factor
        self._bases = [howell_basis(boundary_matrix, m)
                       for m in coeffs.invariant_factors]

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
        A = self.coeffs
        acc = Cochain.zero(self.group, A, self.degree).residues
        for ci, rep in zip(coords, self._raw_reps):
            # |A| kills every residue; reducing by it keeps the sum in int64
            acc = acc + int(ci) % A.order * rep.residues
        return Cochain(self.group, A, self.degree, acc % A.moduli)

    def all_class_coordinates(self):
        return list(itertools.product(*(range(o) for o in self._raw_orders)))

    def lex_minimal_representative(self, c):
        """The lexicographically smallest cocycle cohomologous to c."""
        vectors = {
            t: lex_reduce_mod(basis, m, _factor_vector(c, t))[0]
            for t, (basis, m) in enumerate(zip(self._bases, self.coeffs.invariant_factors))
        }
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
    raw = []  # (p, f, t, rep vector mod m_t, qpart index ordering key)
    qparts = []
    for t, m in enumerate(A.invariant_factors):
        for p, k in prime_power_decomposition(m):
            q = p**k
            gens, orders, Vinv = kernel_mod_prime_power(D, p, k)
            # orders[j] = p^e_j, and generator j is V[:, j] * p^(k - e_j)
            steps = q // np.array(orders, dtype=np.int64)
            # express the image of d^(n-1) in kernel-generator coordinates
            Y = (Vinv @ (Dprev % q)) % q
            if (Y % steps[:, None]).any():
                raise AssertionError("image not contained in kernel")
            C = Y // steps[:, None]
            rel = np.concatenate([np.diag(np.array(orders, dtype=np.int64)), C], axis=1)
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
            qparts.append(_QPartData(t, p, k, mu, steps, Vinv, P, positions))
    raw_orders = [p**f for p, f, _, _ in raw]
    raw_reps = [_cochain_from_factor_vectors(G, A, degree, {t: vec})
                for _p, _f, t, vec in raw]
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
    vectors = {}
    for t, m in enumerate(A.invariant_factors):
        # delta is a coboundary iff the minimum of its coset is zero, and
        # then the reduction's coefficients are a primitive
        rest, vectors[t] = lex_reduce_mod(howell_basis(Dprev, m), m,
                                          _factor_vector(delta, t))
        if rest.any():
            return None
    beta = _cochain_from_factor_vectors(G, A, n - 1, vectors)
    if coboundary(beta) != delta:
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
