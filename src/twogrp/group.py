"""Finite groups as validated multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  A group holds its
table as one read-only int64 array; validation, inverses, element orders,
the standard families and the automorphism search are array expressions
over it.  Constructors for the families document their element orderings;
every constructed table goes through the same validation as user-supplied
ones.
"""

import functools
import itertools

import numpy as np

from .coeff import check_instance, is_integer, rows_as_tuples
from .errors import (
    IndexOutOfRange, NotAGroup, ParseError, ShapeMismatch, SizeBound, UnsupportedSpec,
)

AUTOMORPHISM_ORDER_BOUND = 12

# Largest group any constructor builds.  Validation gathers order^3 table
# entries; order 128 takes a few tens of milliseconds.
MAX_GROUP_ORDER = 128


def _check_order(order):
    if order > MAX_GROUP_ORDER:
        raise SizeBound("group order %d exceeds bound %d" % (order, MAX_GROUP_ORDER))


def _first(mask):
    """The first flat index where mask holds, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _table_array(table):
    """table as an n x n int64 array, or NotAGroup("closure") for the first
    row, in order, that is not n integers in [0, n): its length if that is
    wrong, else its first entry that is not an integer in range (a bool,
    float or string is not).  Entries are checked as Python integers, so no
    entry can overflow int64 before it is refused.  Anything but a sequence
    of sized rows is a ShapeMismatch, and an order above MAX_GROUP_ORDER a
    SizeBound, before the entries are read."""
    try:
        n = len(table)
        _check_order(n)
        lengths = np.fromiter(map(len, table), dtype=np.int64, count=n)
    except TypeError:
        raise ShapeMismatch("a group table must be a sequence of sized rows") from None
    if n == 0:
        raise NotAGroup("closure", witness=())
    entries = [int(x) if is_integer(x) else x for x in itertools.chain.from_iterable(table)]
    short = _first(lengths != n)
    bad = next((k for k, x in enumerate(entries) if type(x) is not int or not 0 <= x < n),
               None)
    if bad is not None:
        row = int(np.searchsorted(np.cumsum(lengths), bad, side="right"))
        if short is None or row < short:
            raise NotAGroup("closure", witness=(entries[bad],))
    if short is not None:
        raise NotAGroup("closure", witness=(int(lengths[short]), n))
    return np.array(entries, dtype=np.int64).reshape(n, n)


def _validate(T):
    """Raise NotAGroup with the first failing identity entry, row or column
    without inverses (row i before column i), or associativity triple in
    lexicographic order."""
    n = len(T)
    elements = np.arange(n)
    i = _first((T[0] != elements) | (T[:, 0] != elements))
    if i is not None:
        raise NotAGroup("identity", witness=(i,))
    rows = (np.sort(T, axis=1) == elements).all(axis=1)
    cols = (np.sort(T, axis=0) == elements[:, None]).all(axis=0)
    i = _first(~rows | ~cols)
    if i is not None:
        raise NotAGroup("inverse", witness=("row" if not rows[i] else "column", i))
    small = T.astype(np.min_scalar_type(n - 1))
    # small[small][x, y, z] = (xy)z and small[:, small][x, y, z] = x(yz)
    bad = _first(small[small] != small[:, small])
    if bad is not None:
        raise NotAGroup("associativity", witness=tuple(
            int(v) for v in np.unravel_index(bad, (n, n, n))))


class FiniteGroup:
    def __init__(self, table, name=None):
        T = _table_array(table)
        _validate(T)
        T.flags.writeable = False
        self.table_array = T
        self.order = len(T)
        self.name = name or "order%d" % self.order
        self._hash = hash(T.tobytes())

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteGroup)
            and self._hash == other._hash
            and np.array_equal(self.table_array, other.table_array)
        )

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def table(self):
        """The multiplication table as a tuple of int tuples, decoded from
        table_array by rows_as_tuples on first use."""
        return rows_as_tuples(self.table_array)

    @functools.cached_property
    def _inverses(self):
        return np.argmin(self.table_array, axis=1)

    @functools.cached_property
    def _element_orders(self):
        """Per element, the least k >= 1 with x^k the identity."""
        T, n = self.table_array, self.order
        orders = np.zeros(n, dtype=np.int64)
        power = np.arange(n)
        for k in range(1, n + 1):
            orders[(power == 0) & (orders == 0)] = k
            power = T[power, np.arange(n)]
        return orders

    def mul(self, x, y):
        if not (is_integer(x) and is_integer(y)):
            raise ShapeMismatch("elements must be integers, got %r" % ((x, y),))
        if not (0 <= x < self.order and 0 <= y < self.order):
            raise IndexOutOfRange("element index out of range: %r" % ((x, y),))
        return int(self.table_array[x, y])

    def inv(self, x):
        if not is_integer(x):
            raise ShapeMismatch("element %r is not an integer" % (x,))
        if not 0 <= x < self.order:
            raise IndexOutOfRange("element index out of range: %r" % (x,))
        return int(self._inverses[x])

    def elements(self):
        return range(self.order)

    def is_abelian(self):
        return bool(np.array_equal(self.table_array, self.table_array.T))

    def element_order(self, x):
        if not is_integer(x):
            raise ShapeMismatch("element %r is not an integer" % (x,))
        if not 0 <= x < self.order:
            raise IndexOutOfRange("element index out of range: %r" % (x,))
        return int(self._element_orders[x])

    def to_json(self):
        return {"name": self.name, "order": self.order, "table": self.table_array.tolist()}

    @classmethod
    def from_json(cls, obj):
        """Parse the to_json format; a table that is not a list of integer
        lists raises ParseError."""
        table = obj.get("table") if isinstance(obj, dict) else None
        if not isinstance(table, list):
            raise ParseError("group JSON needs a \"table\" list of rows")
        for i, row in enumerate(table):
            if not isinstance(row, list) or not all(type(x) is int for x in row):
                raise ParseError("group table row %d is not a list of integers" % i)
        g = cls(table)
        if "name" in obj:
            g.name = obj["name"]
        return g


def cyclic(n):
    """Z_n; element i is the i-th power of the generator."""
    if not is_integer(n) or n < 1:
        raise UnsupportedSpec("cyclic(n) needs an integer n >= 1, got %r" % (n,))
    _check_order(n)
    i = np.arange(n)
    return FiniteGroup((i[:, None] + i) % n, name="cyclic:%d" % n)


def dihedral(n):
    """Dihedral group of order 2n; index i + n*j encodes r^i s^j.

    Multiplication follows (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j+l).
    """
    if not is_integer(n) or n < 1:
        raise UnsupportedSpec("dihedral(n) needs an integer n >= 1, got %r" % (n,))
    order = 2 * n
    _check_order(order)
    x = np.arange(order)
    i, j = x % n, x // n
    r = (i[:, None] + (1 - 2 * j[:, None]) * i) % n
    return FiniteGroup(r + n * ((j[:, None] + j) % 2), name="dihedral:%d" % n)


def symmetric(n):
    """S_n for n <= 4; elements are permutation tuples in lexicographic
    order (identity first), product (s*t)(x) = s(t(x))."""
    if not is_integer(n) or not 1 <= n <= 4:
        raise UnsupportedSpec("symmetric(n) supports integers 1 <= n <= 4, got %r" % (n,))
    perms = np.array(sorted(itertools.permutations(range(n))), dtype=np.int64)
    # a permutation's digits in base n sort like the permutation itself
    digits = n ** np.arange(n - 1, -1, -1)
    # perms[:, perms][s, t] is the permutation s(t(x))
    return FiniteGroup(np.searchsorted(perms @ digits, perms[:, perms] @ digits),
                       name="symmetric:%d" % n)


def product(g, h):
    """Direct product; pair (x, y) has index x*|H| + y."""
    check_instance(g, FiniteGroup, "the first factor")
    check_instance(h, FiniteGroup, "the second factor")
    order = g.order * h.order
    _check_order(order)
    x, y = np.divmod(np.arange(order), h.order)
    table = (g.table_array[x[:, None], x] * h.order
             + h.table_array[y[:, None], y])
    return FiniteGroup(table, name="product:%s,%s" % (g.name, h.name))


def group_construct(spec):
    """Build a group from a spec string: cyclic:N, dihedral:N, symmetric:N
    or product:SPEC,SPEC (products may nest)."""
    if not isinstance(spec, str):
        raise UnsupportedSpec("group spec must be a string, got %s" % type(spec).__name__)
    g, pos = _parse_spec(spec.strip(), 0)
    if pos != len(spec.strip()):
        raise UnsupportedSpec("trailing characters in group spec %r" % spec)
    return g


def _parse_spec(s, pos):
    head_end = s.find(":", pos)
    if head_end < 0:
        raise UnsupportedSpec("bad group spec %r" % s[pos:])
    head = s[pos:head_end]
    pos = head_end + 1
    if head == "product":
        left, pos = _parse_spec(s, pos)
        if pos >= len(s) or s[pos] != ",":
            raise UnsupportedSpec("product takes two comma-separated factors")
        right, pos = _parse_spec(s, pos + 1)
        return product(left, right), pos
    end = pos
    while end < len(s) and s[end].isdigit():
        end += 1
    if end == pos:
        raise UnsupportedSpec("bad group spec %r" % s)
    n = int(s[pos:end])
    if head == "cyclic":
        return cyclic(n), end
    if head == "dihedral":
        return dihedral(n), end
    if head == "symmetric":
        return symmetric(n), end
    raise UnsupportedSpec("unknown group family %r" % head)


def _words(T, gens):
    """The span of gens, breadth first from the identity by right
    multiplication: (reach, parent, step) with reach[k] =
    T[parent[k], gens[step[k]]] for every k >= 1."""
    none = np.zeros(0, dtype=np.int64)
    reach, parent, step = [np.zeros(1, dtype=np.int64)], [none], [none]
    seen = np.zeros(len(T), dtype=bool)
    seen[0] = True
    while gens and reach[-1].size:
        frontier = reach[-1]
        hits = T[np.ix_(frontier, gens)].ravel()
        values, first = np.unique(hits, return_index=True)
        first = np.sort(first[~seen[values]])
        seen[hits[first]] = True
        reach.append(hits[first])
        parent.append(frontier[first // len(gens)])
        step.append(first % len(gens))
    return np.concatenate(reach), np.concatenate(parent), np.concatenate(step)


def group_automorphisms(g):
    """All automorphisms as a read-only (|Aut|, |G|) int64 array: row a is
    the image of each element under automorphism a, and the rows are in
    lexicographic order (so the identity comes first).

    Greedy generators (repeatedly the smallest element outside the span so
    far) determine an automorphism; every assignment of images of equal
    element orders is extended along the generators' breadth-first words at
    once, and the bijective homomorphisms are kept."""
    check_instance(g, FiniteGroup, "the group")
    if g.order > AUTOMORPHISM_ORDER_BOUND:
        raise SizeBound(
            "automorphism search limited to order <= %d (got %d)"
            % (AUTOMORPHISM_ORDER_BOUND, g.order)
        )
    T, n = g.table_array, g.order
    gens = []
    reach, parent, step = _words(T, gens)
    spanned = np.zeros(n, dtype=bool)
    while reach.size < n:
        spanned[reach] = True
        gens.append(int(spanned.argmin()))
        reach, parent, step = _words(T, gens)
    orders = g._element_orders
    candidates = [np.flatnonzero(orders == orders[x]) for x in gens]
    assignments = np.array(list(itertools.product(*candidates)), dtype=np.int64)
    image = np.zeros((len(assignments), n), dtype=np.int64)
    for x, p, s in zip(reach[1:], parent, step):
        image[:, x] = T[image[:, p], assignments[:, s]]
    keep = (np.sort(image, axis=1) == np.arange(n)).all(axis=1)
    keep &= (image[:, T] == T[image[:, :, None], image[:, None, :]]).all(axis=(1, 2))
    image = image[keep]
    # np.lexsort's last key is the primary one
    image = image[np.lexsort(image.T[::-1])]
    image.flags.writeable = False
    return image
