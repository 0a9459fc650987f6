"""Finite groups as validated multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Constructors for the
standard families document their element orderings; every constructed table
goes through the same validation as user-supplied ones.
"""

import itertools

import numpy as np

from .errors import IndexOutOfRange, NotAGroup, ParseError, SizeBound, UnsupportedSpec

AUTOMORPHISM_ORDER_BOUND = 12

# Largest group any constructor builds.  Validating a table costs order^3
# lookups; order 128 takes about half a second.
MAX_GROUP_ORDER = 128


def _check_order(order):
    if order > MAX_GROUP_ORDER:
        raise SizeBound("group order %d exceeds bound %d" % (order, MAX_GROUP_ORDER))


class FiniteGroup:
    def __init__(self, table, name=None, _validated=False):
        _check_order(len(table))
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(self.table)
        self.name = name or "order%d" % self.order
        if not _validated:
            _validate_table(self.table)
        self._inv = None
        self._table_array = None

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    @property
    def table_array(self):
        """The multiplication table as a read-only int64 array, built on
        first use."""
        if self._table_array is None:
            arr = np.array(self.table, dtype=np.int64).reshape(self.order, self.order)
            arr.flags.writeable = False
            self._table_array = arr
        return self._table_array

    def mul(self, x, y):
        if not (0 <= x < self.order and 0 <= y < self.order):
            raise IndexOutOfRange("element index out of range: %r" % ((x, y),))
        return self.table[x][y]

    def inv(self, x):
        if not 0 <= x < self.order:
            raise IndexOutOfRange("element index out of range: %r" % (x,))
        if self._inv is None:
            inv = [0] * self.order
            for a in range(self.order):
                for b in range(self.order):
                    if self.table[a][b] == 0:
                        inv[a] = b
                        break
            self._inv = inv
        return self._inv[x]

    def elements(self):
        return range(self.order)

    def is_abelian(self):
        t = self.table
        return all(
            t[x][y] == t[y][x] for x in range(self.order) for y in range(x)
        )

    def element_order(self, x):
        n, y = 1, x
        while y != 0:
            y = self.table[y][x]
            n += 1
        return n

    def to_json(self):
        return {"name": self.name, "order": self.order, "table": [list(r) for r in self.table]}

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
        g = group_from_table(table)
        if "name" in obj:
            g.name = obj["name"]
        return g


def _validate_table(table):
    n = len(table)
    if n == 0:
        raise NotAGroup("closure", witness=())
    for row in table:
        if len(row) != n:
            raise NotAGroup("closure", witness=(len(row), n))
        for x in row:
            if not 0 <= x < n:
                raise NotAGroup("closure", witness=(x,))
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise NotAGroup("identity", witness=(i,))
    for i in range(n):
        if len(set(table[i])) != n:
            raise NotAGroup("inverse", witness=("row", i))
        if len({table[j][i] for j in range(n)}) != n:
            raise NotAGroup("inverse", witness=("column", i))
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for z in range(n):
                if table[xy][z] != table[x][table[y][z]]:
                    raise NotAGroup("associativity", witness=(x, y, z))


def group_from_table(table, name=None):
    _check_order(len(table))
    _validate_table(tuple(tuple(row) for row in table))
    return FiniteGroup(table, name=name, _validated=True)


def cyclic(n):
    """Z_n; element i is the i-th power of the generator."""
    if n < 1:
        raise UnsupportedSpec("cyclic(n) needs n >= 1")
    _check_order(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name="cyclic:%d" % n, _validated=True)


def dihedral(n):
    """Dihedral group of order 2n; index i + n*j encodes r^i s^j.

    Multiplication follows (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j+l).
    """
    if n < 1:
        raise UnsupportedSpec("dihedral(n) needs n >= 1")
    order = 2 * n
    _check_order(order)

    def idx(i, j):
        return i % n + n * (j % 2)

    table = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(2):
            for k in range(n):
                for l in range(2):
                    sign = -1 if j else 1
                    table[idx(i, j)][idx(k, l)] = idx(i + sign * k, j + l)
    return group_from_table(table, name="dihedral:%d" % n)


def symmetric(n):
    """S_n for n <= 4; elements are permutation tuples in lexicographic
    order (identity first), product (s*t)(x) = s(t(x))."""
    if not 1 <= n <= 4:
        raise UnsupportedSpec("symmetric(n) supports 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(s[t[x]] for x in range(n))] for t in perms] for s in perms
    ]
    return group_from_table(table, name="symmetric:%d" % n)


def product(g, h):
    """Direct product; pair (x, y) has index x*|H| + y."""
    order = g.order * h.order
    _check_order(order)

    def idx(x, y):
        return x * h.order + y

    table = [[0] * order for _ in range(order)]
    for x1 in range(g.order):
        for y1 in range(h.order):
            for x2 in range(g.order):
                for y2 in range(h.order):
                    table[idx(x1, y1)][idx(x2, y2)] = idx(
                        g.table[x1][x2], h.table[y1][y2]
                    )
    return group_from_table(table, name="product:%s,%s" % (g.name, h.name))


def group_construct(spec):
    """Build a group from a spec string: cyclic:N, dihedral:N, symmetric:N
    or product:SPEC,SPEC (products may nest)."""
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


class GroupAutomorphism:
    """A permutation of element indices preserving the table."""

    def __init__(self, group, image):
        self.group = group
        self.image = tuple(image)

    def __call__(self, x):
        return self.image[x]

    def __eq__(self, other):
        return (
            isinstance(other, GroupAutomorphism)
            and self.group == other.group
            and self.image == other.image
        )

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return "GroupAutomorphism(%r)" % (self.image,)

    def compose(self, other):
        return GroupAutomorphism(
            self.group, tuple(self.image[other.image[x]] for x in range(self.group.order))
        )

    def inverse(self):
        inv = [0] * self.group.order
        for x, y in enumerate(self.image):
            inv[y] = x
        return GroupAutomorphism(self.group, inv)


def generating_set(g):
    """Greedy generating set: repeatedly add the smallest index outside the
    current span."""
    span = {0}
    gens = []
    while len(span) < g.order:
        x = min(i for i in range(g.order) if i not in span)
        gens.append(x)
        # close span under multiplication
        frontier = set(span) | {x}
        while True:
            new = {g.table[a][b] for a in frontier for b in frontier} | frontier
            if new == frontier:
                break
            frontier = new
        span = frontier
    return gens


def group_automorphisms(g, order_bound=AUTOMORPHISM_ORDER_BOUND):
    """All automorphisms, identity first, by backtracking over images of a
    greedy generating set."""
    if g.order > order_bound:
        raise SizeBound(
            "automorphism search limited to order <= %d (got %d)"
            % (order_bound, g.order)
        )
    gens = generating_set(g)
    order_of = [g.element_order(x) for x in range(g.order)]
    results = []

    def close(partial):
        """Close a generator assignment to a full map, or None on clash."""
        assigned = dict(partial)
        changed = True
        known = {0: 0}
        while changed:
            changed = False
            items = list(known.items())
            for x, fx in items:
                for gidx, ggen in enumerate(gens):
                    y = g.table[x][ggen]
                    fy = g.table[fx][assigned[ggen]]
                    if y in known:
                        if known[y] != fy:
                            return None
                    else:
                        known[y] = fy
                        changed = True
        if len(known) != g.order:
            return None
        image = [known[x] for x in range(g.order)]
        if len(set(image)) != g.order:
            return None
        return image

    def is_automorphism(image):
        t = g.table
        return all(
            image[t[x][y]] == t[image[x]][image[y]]
            for x in range(g.order)
            for y in range(g.order)
        )

    candidates = [
        [y for y in range(g.order) if order_of[y] == order_of[x]] for x in gens
    ]

    def backtrack(i, partial):
        if i == len(gens):
            image = close(partial)
            if image is not None and is_automorphism(image):
                results.append(GroupAutomorphism(g, image))
            return
        for y in candidates[i]:
            partial[gens[i]] = y
            backtrack(i + 1, partial)
        del partial[gens[i]]

    if not gens:
        results.append(GroupAutomorphism(g, [0]))
    else:
        backtrack(0, {})
    results.sort(key=lambda a: a.image)
    identity = GroupAutomorphism(g, range(g.order))
    results.remove(identity)
    return [identity] + results
