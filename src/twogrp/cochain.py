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
G x ... x G table.  Smith forms per coefficient factor and prime power
(twogrp.modlinalg) give the invariant factors of H^n and one cyclic
generator per summand.  Everything that reads a class uses a Howell basis
over each factor Z_m: that of the image of d gives lex-minimal
representatives and primitives of coboundaries, and that of the cocycles,
generated by the summands and then the image of d, gives a cocycle's class
coordinates as its coefficients on the summands; both are cached per
(G, n, m).  Aut(G) permutes the normalized coordinates, so it acts on class
coordinates by one matrix per automorphism, read off one gather.

CohomologyResult is the one place that turns class coordinates into
cochains: it merges the summands into the invariant factors of H^n once,
and every list of representatives comes from representatives_of, one
lex_reduce_mod per invariant factor for each block of coordinate rows;
cochain_from_coordinates, lex_minimal_representative and are_cohomologous
share its steps.
"""

import functools
import itertools
import math

import numpy as np

from .coeff import AbelianGroup
from .errors import (
    DegreeMismatch,
    NotACocycle,
    NotAnAutomorphism,
    NotNormalized,
    ParseError,
    ShapeMismatch,
    SizeBound,
    WitnessMismatch,
)
from .group import FiniteGroup, group_automorphisms
from .modlinalg import (
    howell_basis,
    kernel_mod_prime_power,
    lex_reduce_mod,
    prime_power_decomposition,
    smith_mod_prime_power,
)
from .simplicial import (
    CACHE_SIZE, MAX_CELLS_PER_LEVEL, MAX_DEGREE, encode, flat, grid, nerve_face,
)

DEFAULT_MAX_GROUP = 8
DEFAULT_MAX_COEFFS = 8


def _check_degree(degree):
    degree = int(degree)
    if degree < 0:
        raise DegreeMismatch("cochain degree must be >= 0, got %d" % degree)
    if degree > MAX_DEGREE:
        raise SizeBound("cochain degree %d exceeds bound %d" % (degree, MAX_DEGREE))
    return degree


def _check_cells(count, what):
    """Refuse, before allocating, an array of count tuples of G^n or matrix
    entries above the bound each level of a simplicial set keeps."""
    if count > MAX_CELLS_PER_LEVEL:
        raise SizeBound("%s would hold %d cells, above the bound %d"
                        % (what, count, MAX_CELLS_PER_LEVEL))


def _cochain_degree(group, degree):
    degree = _check_degree(degree)
    _check_cells(group.order**degree, "a degree-%d cochain" % degree)
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
        self.degree = _cochain_degree(group, degree)
        rows = group.order**self.degree
        if len(values) != rows:
            raise ShapeMismatch("expected %d values, got %d" % (rows, len(values)))
        self.residues = _residue_array(coeffs, values)

    @classmethod
    def zero(cls, group, coeffs, degree):
        degree = _cochain_degree(group, degree)
        shape = (group.order**degree, len(coeffs.moduli))
        return cls(group, coeffs, degree, np.zeros(shape, dtype=np.int64))

    @classmethod
    def from_function(cls, group, coeffs, degree, fn):
        degree = _cochain_degree(group, degree)
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
        degree = _cochain_degree(group, degree)
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
    _check_cells(G.order ** (n + 1), "the coboundary of a degree-%d cochain" % n)
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
    """(phi . c)(g1..gn) = c(phi[g1]..phi[gn]) for an automorphism phi given
    by its image row, as group_automorphisms lists them; any other row is
    refused."""
    T = c.group.table_array
    phi = np.asarray(phi)
    if (phi.shape != (c.group.order,) or phi.dtype.kind not in "iu"
            or not np.array_equal(np.sort(phi), np.arange(c.group.order))
            or not np.array_equal(phi[T], T[np.ix_(phi, phi)])):
        raise NotAnAutomorphism("%r is not an automorphism of %s" % (phi.tolist(), c.group.name))
    pulled = c.cube()[np.ix_(*(phi,) * c.degree)]
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
    _check_cells(m ** (2 * n + 1), "the degree-%d bar matrix" % n)
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


def _boundary_matrix(G, degree):
    """The bar matrix of d: normalized C^(degree-1) -> C^degree (no columns
    at degree 0)."""
    if degree == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return bar_matrix(G, degree - 1)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _boundary_basis(G, degree, m):
    """The Howell basis over Z_m of the image of d: normalized C^(degree-1)
    -> C^degree, built once per (G, degree, m)."""
    positions, divisors, rows = howell_basis(_boundary_matrix(G, degree), m)
    rows.flags.writeable = False
    return positions, divisors, rows


@functools.lru_cache(maxsize=CACHE_SIZE)
def _cocycle_kernel(G, degree, p, k):
    """The normalized degree-n cocycles over Z_q, q = p^k, and the cyclic
    summands of H^n, built once per (G, degree, p, k) from a Smith form of
    the relations that the image of d^(n-1) imposes on the kernel generators
    of d^n.  Returns ((orders, gens), (orders, vectors)): column j of gens
    generates a cocycle subgroup of order orders[j] > 1, and column i of
    vectors a class of order orders[i] in H^n; both arrays are read-only
    residues mod q."""
    q = p**k
    gens, orders, Vinv = kernel_mod_prime_power(bar_matrix(G, degree), p, k)
    orders = np.array(orders, dtype=np.int64)
    # orders[j] = p^e_j, and generator j is V[:, j] * p^(k - e_j)
    steps = q // orders
    # express the image of d^(n-1) in kernel-generator coordinates
    Y = (Vinv @ (_boundary_matrix(G, degree) % q)) % q
    if (Y % steps[:, None]).any():
        raise WitnessMismatch("image of d^%d not contained in the computed kernel of d^%d"
                              % (degree - 1, degree))
    rel = np.concatenate([np.diag(orders), Y // steps[:, None]], axis=1)
    res = smith_mod_prime_power(rel, p, k, want_uinv=True)
    # generator i of the quotient is column i of Uinv
    quotient = [i for i, f in enumerate(res["vals"]) if f > 0]
    cocycles = gens[:, orders > 1]
    summands = gens @ res["Uinv"][:, quotient] % q
    cocycles.flags.writeable = summands.flags.writeable = False
    return ((tuple(int(o) for o in orders if o > 1), cocycles),
            (tuple(p ** res["vals"][i] for i in quotient), summands))


def _lifted(G, degree, m, part):
    """(orders, vectors): part 0 (cocycle generators) or 1 (summands of H^n)
    of _cocycle_kernel for each prime power p^k of m, lifted by m / p^k,
    with row i of the read-only array vectors of order orders[i]."""
    orders, rows = [], []
    for p, k in prime_power_decomposition(m):
        part_orders, cols = _cocycle_kernel(G, degree, p, k)[part]
        orders.extend(part_orders)
        rows.append(cols.T * (m // p**k) % m)
    vectors = np.concatenate(rows)
    vectors.flags.writeable = False
    return tuple(orders), vectors


@functools.lru_cache(maxsize=CACHE_SIZE)
def _class_basis(G, degree, m):
    """The Howell basis over Z_m of the normalized cocycles, generated by the
    summands of H^n and then the image of d^(n-1), built once per (G, degree, m)."""
    _orders, summands = _lifted(G, degree, m, 1)
    positions, divisors, rows = howell_basis(
        np.concatenate([summands.T, _boundary_matrix(G, degree)], axis=1), m)
    rows.flags.writeable = False
    return positions, divisors, rows


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


def _cochains(G, A, degree, count, vectors):
    """count normalized cochains: row r of vectors[t], an array over the
    normalized coordinates, holds the residues of invariant factor t of
    cochain r; factors missing from the mapping are zero."""
    k = len(A.moduli)
    cube = np.zeros((count,) + (G.order,) * degree + (k,), dtype=np.int64)
    for t, vecs in vectors.items():
        cube[(slice(None),) + (slice(1, None),) * degree + (t,)] = np.reshape(
            vecs, (count,) + (G.order - 1,) * degree)
    return [Cochain(G, A, degree, block) for block in cube.reshape(count, G.order**degree, k)]


def _normalized_residues(c):
    """c's residues over normalized coordinates, one row per invariant factor."""
    shape = ((c.group.order - 1) ** c.degree, len(c.coeffs.moduli))
    return c.cube()[(slice(1, None),) * c.degree].reshape(shape).T


class CocycleBasis:
    """Generators of the normalized cocycle subgroup Z^n and their orders."""

    def __init__(self, generators, orders):
        self.generators = generators
        self.orders = orders
        self.subgroup_order = math.prod(orders)


def cocycle_solve(G, A, degree, max_group=DEFAULT_MAX_GROUP,
                  max_coeffs=DEFAULT_MAX_COEFFS):
    """Generators of the subgroup of normalized degree-n cocycles."""
    _check_bounds(G, A, degree, max_group, max_coeffs)
    generators, orders = [], []
    for t, m in enumerate(A.invariant_factors):
        part_orders, vectors = _lifted(G, degree, m, 0)
        generators.extend(_cochains(G, A, degree, len(vectors), {t: vectors}))
        orders.extend(part_orders)
    return CocycleBasis(generators, orders)


class CohomologyResult:
    """H^n(G, A): invariant factors with one representative cocycle per
    reported generator, plus class arithmetic for orbit computations.

    Per invariant factor t of A, the cyclic summands of H^n whose cocycles
    live in factor t (the rows of one read-only matrix over normalized
    coordinates, with their orders) are a direct-sum basis of that factor's
    part of H^n.  Class coordinates are coefficients on the summands of
    every factor in turn.  representatives holds, per invariant factor of
    H^n, smallest first, the lex-minimal cocycle of the sum of its summands."""

    def __init__(self, group, coeffs, degree):
        self.group = group
        self.coeffs = coeffs
        self.degree = degree
        self._summands = [_lifted(group, degree, m, 1) for m in coeffs.invariant_factors]
        self._orders = orders = [o for part, _vectors in self._summands for o in part]
        # factor t's summands have the coordinates in self._spans[t]
        ends = list(itertools.accumulate(len(part) for part, _vectors in self._summands))
        self._spans = [slice(end - len(part), end)
                       for end, (part, _vectors) in zip(ends, self._summands)]
        self.class_count = math.prod(orders)
        # merge into the divisibility chain: slot i from the top takes, per
        # prime, the i-th largest summand (the earliest first among equals);
        # a slot is the coordinate row of the sum of its summands
        slots, ranks = [], {}
        for idx in sorted(range(len(orders)), key=lambda i: -orders[i]):
            (p, _k), = prime_power_decomposition(orders[idx])
            ranks[p] = rank = ranks.get(p, -1) + 1
            if rank == len(slots):
                slots.append([0] * len(orders))
            slots[rank][idx] = 1
        slots.reverse()
        self.invariant_factors = [math.prod(o for o, s in zip(orders, slot) if s)
                                  for slot in slots]
        self.representatives = self.representatives_of(slots)

    def _factor_vectors(self, c):
        """c's residues over normalized coordinates, one row per invariant
        factor, once c is known to be normalized and on this complex."""
        if (c.group, c.coeffs, c.degree) != (self.group, self.coeffs, self.degree):
            raise DegreeMismatch("cochain lives on another complex than this H^n")
        witness = c.normalization_witness()
        if witness is not None:
            raise NotNormalized(witness)
        return _normalized_residues(c)

    def _coordinates(self, t, vecs):
        """The coordinates on factor t's summands of each cocycle whose
        factor-t residues lie along the last axis of vecs."""
        m = self.coeffs.invariant_factors[t]
        orders = self._summands[t][0]
        # a cocycle reduces to zero against the cocycles, and then its
        # coefficients on the summands are its coordinates
        rest, x = lex_reduce_mod(_class_basis(self.group, self.degree, m), m, vecs)
        if rest.any():
            raise NotACocycle()
        return x[..., :len(orders)] % orders

    def class_coordinates(self, c):
        """Coordinates of the class of the normalized cocycle c w.r.t. the
        summands (one residue per summand)."""
        out = []
        for t, vec in enumerate(self._factor_vectors(c)):
            out.extend(self._coordinates(t, vec).tolist())
        return tuple(out)

    def _vectors(self, rows):
        """Per invariant factor t, the residues over normalized coordinates
        of the combination of t's summands in each row of the array rows."""
        return {t: rows[:, span] % m @ summands % m for t, (m, span, (_o, summands))
                in enumerate(zip(self.coeffs.invariant_factors, self._spans, self._summands))}

    def _lex_minimal(self, count, vectors):
        """count cochains: factor t of cochain r is row r of vectors[t]
        reduced to the lexicographically smallest element of its coset of
        the image of d."""
        factors = self.coeffs.invariant_factors
        return _cochains(self.group, self.coeffs, self.degree, count, {
            t: lex_reduce_mod(_boundary_basis(self.group, self.degree, factors[t]),
                              factors[t], vecs)[0]
            for t, vecs in vectors.items()})

    def cochain_from_coordinates(self, coords):
        """A representative cocycle of the class with the given coordinates."""
        if len(coords) != len(self._orders):
            raise ShapeMismatch("expected %d coordinates" % len(self._orders))
        row = np.array([[int(x) % o for x, o in zip(coords, self._orders)]], dtype=np.int64)
        return _cochains(self.group, self.coeffs, self.degree, 1, self._vectors(row))[0]

    def all_class_coordinates(self):
        """Every coordinate tuple, in lexicographic order; refused, before
        any is built, above the bound on cells per level."""
        _check_cells(self.class_count, "the class list of H^%d" % self.degree)
        return list(itertools.product(*(range(o) for o in self._orders)))

    def lex_minimal_representative(self, c):
        """The lexicographically smallest cocycle cohomologous to normalized c."""
        return self._lex_minimal(1, {t: vec[None] for t, vec in
                                     enumerate(self._factor_vectors(c))})[0]

    def representatives_of(self, rows):
        """The lex-minimal representative of the class of each coordinate
        row: one reduction per invariant factor for a block of rows, each
        block at most MAX_CELLS_PER_LEVEL residues."""
        if any(len(row) != len(self._orders) for row in rows):
            raise ShapeMismatch("expected %d coordinates per row" % len(self._orders))
        rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(self._orders))
        block = MAX_CELLS_PER_LEVEL // max(1, (self.group.order - 1) ** self.degree)
        reps = []
        for lo in range(0, len(rows), block):
            part = rows[lo:lo + block]
            reps.extend(self._lex_minimal(len(part), self._vectors(part)))
        return reps


def cohomology(G, A, degree, max_group=DEFAULT_MAX_GROUP,
               max_coeffs=DEFAULT_MAX_COEFFS):
    """H^degree(G, A) on normalized cochains: per invariant factor, the
    cyclic summands of _cocycle_kernel lifted into that factor."""
    _check_bounds(G, A, degree, max_group, max_coeffs)
    return CohomologyResult(G, A, degree)


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
    # delta is a coboundary iff the minimum of its coset is zero, and then
    # the reduction's coefficients are a primitive
    reduced = [lex_reduce_mod(_boundary_basis(G, n, m), m, vec)
               for m, vec in zip(A.invariant_factors, _normalized_residues(delta))]
    if any(rest.any() for rest, _x in reduced):
        return None
    beta = _cochains(G, A, n - 1, 1, {t: x[None] for t, (_rest, x) in enumerate(reduced)})[0]
    if coboundary(beta) != delta:
        raise WitnessMismatch("computed witness beta has d(beta) != c2 - c1")
    return beta


def cohomology_classes_mod_aut(G, A, degree=3, max_group=DEFAULT_MAX_GROUP,
                               max_coeffs=DEFAULT_MAX_COEFFS):
    """Orbit representatives of H^degree(G, A) under the pullback action of
    Aut(G).  Returns (representatives, orbit_count, result)."""
    result = cohomology(G, A, degree, max_group=max_group, max_coeffs=max_coeffs)
    starts = result.all_class_coordinates()
    # automorphism a sends normalized coordinate i to coordinate perms[a, i]
    images = group_automorphisms(G)
    cube = np.arange((G.order - 1) ** degree).reshape((G.order - 1,) * degree)
    perms = np.array([cube[np.ix_(*(image,) * degree)].ravel() for image in images[:, 1:] - 1])
    orders = np.array(result._orders, dtype=np.int64)
    k = len(orders)
    # pullback keeps each factor, so the matrix of a is block-diagonal: row i
    # of block t holds the coordinates of factor t's summand i pulled back
    actions = np.zeros((len(images), k, k), dtype=np.int64)
    for t, (span, (_orders, summands)) in enumerate(zip(result._spans, result._summands)):
        actions[:, span, span] = result._coordinates(t, summands[:, perms]).swapaxes(0, 1)
    # the actions are all of Aut(G), so the images of start are its whole orbit
    seen = set()
    mins = []
    for start in starts:
        if start in seen:
            continue
        orbit = set(map(tuple, (np.array(start, dtype=np.int64) @ actions % orders).tolist()))
        seen |= orbit
        mins.append(min(orbit))
    reps = result.representatives_of(mins)
    return reps, len(reps), result
