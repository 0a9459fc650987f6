"""Truncated simplicial sets held as integer arrays.

Cell x of level n is the integer x, and level n is range(size(n)); a cell
carries no other label.  Every face and degeneracy table and every
component of a simplicial map is a read-only int64 numpy array indexed by
cells, so the simplicial identities, map checks, compositions and inverses
are fancy-index compositions, and a failing check reports the first
mismatching cell.  Maps compose, and fiber products and mediating maps
form, only over one set: the same object, or sets with equal truncation,
level sizes and face and degeneracy tables.  _table_keys is the one place
that lists a truncation's tables; checks and builders walk it.

The constructors here (the nerve of a finite group, the Dold-Kan nerve
Gamma(A[2]), its classifying space Wbar and total space W) and in
correspondence.py have product-structured levels: a cell's index is the
mixed-radix code of its coordinates (first coordinate most significant, the
lexicographic enumeration order), and tables are gathers over open index
grids with A's addition table and, for G, the one face rule nerve_face, or
nerve_bg's tables built with it (the models and the level-4 cocycle map).
The nerve's face tables of each level are built once per (G, n) by
_face_rows, and the nerves of every truncation and the coboundary hold
those same arrays.
On the B^2 A side, Wbar(Gamma(A[2])) is the one builder (_wbar): W is its
decalage Dec_0 Wbar, whose level n, d_i and s_i are Wbar's level n+1,
d_{i+1} and s_{i+1} as the same arrays, and the decalage map W -> Wbar is
Wbar's d_0, the face that Dec_0 forgets; both are kept on that Wbar.
Gamma(A[2])'s and Wbar's face and degeneracy rules read the indices alone
(_gamma_targets, _w_targets), and A enters only where copies that land
together are added.  Each builder checks its arguments, then calls a cache
keyed by exactly what it reads.  Also provided: fiber products by
a sorted join, horns, and the Kan condition, swept by one vectorised join
over level-(n-1) face tables.

A truncated set may be built on a base, a set of lower truncation whose
levels, faces and degeneracies it shares as the same array objects; it
takes and checks only its own upper levels.  Every builder here is a
tower, as an n-truncation is the restriction of the (n+1)-truncation: the
set of truncation N holds only the tables of _table_keys(N, N) and sits on
the cached set of truncation N - 1, so nerve_bg(G, 3) is levels 0..3 of
nerve_bg(G, 4).  _lower(X, k) walks X's base chain to the set that owns
levels 0..k, which is levels 0..k of X exactly when its truncation is k.
A map may be built on a base map between levels 0..t of its source and
target (the very sets _lower(src, t) and _lower(dst, t)); it takes and
checks only its own upper components.  One rule makes such maps: when
levels 0..t of a map do not depend on alpha and both towers hold a set of
truncation t, _map_by_levels builds them once, keeps them on
_lower(src, t) and builds the map on them; otherwise, as for a set built
on no base (from_json's), it builds the map whole.  One rule reuses them:
_on_bases does an operation on the maps' bases once and keeps its result
on the first base, so that inverse_map, compose, fiber_product,
mediating_map and _composites_agree do only the levels above it;
is_isomorphism asks the base first.  Tables and components are read-only,
so checks keep their results on the object: validate_simplicial and
SimplicialMap.validate on the set or map, and a result that reads only
levels 0..n of a set X (a horn type's filler index, face groups, first
unfilled horn, filler counts) on _lower(X, n).  Sets and maps that differ
only above a base (the truncations of one tower, and the Duskin nerves,
pullback models and maps of one (G, A) for every cocycle) thus share the
base's results, including the number of compatible horns one level above
it, which the Kan check compares with the number of filler keys.  A set
or map on a base that passed checks only the tables of _table_keys(N,
t + 1); when the base fails, it is checked from level 0, and when the
bases' fiber product raises IndexOutOfRange, it is built from level 0, so
that the first failure is the one without a base.  A mediating map is
built level by level, ascending, so its bases raise that failure
themselves.
"""

import functools
import itertools
import math
import types
from collections.abc import Mapping

import numpy as np

from .coeff import AbelianGroup, check_instance, is_integer
from .errors import (
    DegreeMismatch,
    DimensionBound,
    IndexOutOfRange,
    NotACocycle,
    ParseError,
    ShapeMismatch,
    TruncationMismatch,
)
from .group import FiniteGroup

MAX_CELLS_PER_LEVEL = 1 << 20

# Nerve level n and a degree-n cochain are read as n-dimensional arrays and
# a coboundary as an (n+1)-dimensional one; numpy 1.x allows at most 32
# dimensions.  Every truncated set keeps it too: its identity check costs ~N^3.
MAX_DEGREE = 31

# Objects kept per cached constructor; the theorem grid has 32 (G, A) strata.
# A tower of truncation N takes N + 1 entries, one per truncation 0..N.
CACHE_SIZE = 128

# Horn rows produced per join step, which bounds the Kan sweep's memory.
HORN_BLOCK = 1 << 16

# Filler signature codes stay below this, so int64 arithmetic cannot wrap.
CODE_BOUND = 1 << 62


def grid(radices):
    """Open index grids: the k-th array runs over range(radices[k]) along
    axis k and has length 1 along every other axis."""
    ndim = len(radices)
    return [
        np.arange(r, dtype=np.int64).reshape((1,) * k + (r,) + (1,) * (ndim - k - 1))
        for k, r in enumerate(radices)
    ]


def encode(parts, radices):
    """The mixed-radix code of broadcastable digit arrays."""
    code = 0
    for part, r in zip(parts, radices):
        code = code * r + part
    return code


def nerve_face(T, g, i):
    """The coordinates of face d_i of the cells of G^n given by the open grid
    g (one array per entry, n = len(g)): d_0 drops the first entry, d_n the
    last, and 0 < i < n multiplies entries i-1 and i through the group
    table T."""
    if i == 0:
        return g[1:]
    if i == len(g):
        return g[:-1]
    return g[:i - 1] + [T[g[i - 1], g[i]]] + g[i + 1:]


def flat(values, shape):
    """values broadcast over a grid of the given shape, as a flat int64
    table in C order (the cells' enumeration order)."""
    return np.broadcast_to(np.asarray(values, dtype=np.int64), shape).flatten()


def _index_table(values, what):
    if (isinstance(values, np.ndarray) and values.dtype == np.int64
            and values.ndim == 1 and values.flags.owndata
            and not values.flags.writeable):
        return values  # frozen and no view of a writable buffer: share it
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        raise ShapeMismatch("%s is not a flat integer table" % what)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ShapeMismatch("%s is not a flat integer table" % what)
    arr = arr.astype(np.int64)
    arr.flags.writeable = False
    return arr


def _frozen_tables(shared, own, what):
    """A read-only mapping of the shared tables and the own ones."""
    own = {k: _index_table(v, "%s table %r" % (what, k)) for k, v in own.items()}
    return types.MappingProxyType({**shared, **own})


def _first_outside(tab, bound):
    """The first entry of an int64 table outside [0, bound), or None."""
    if not len(tab):
        return None
    wide = tab.view(np.uint64)  # negative entries wrap high
    if np.maximum.reduce(wide) < bound:
        return None
    return int(tab[(wide >= bound).argmax()])


def _first_mismatch(lhs, rhs):
    differ = lhs != rhs
    if differ.size:
        x = differ.argmax()
        if differ[x]:
            return int(x)
    return None


@functools.lru_cache(maxsize=None)
def _table_keys(truncation, low=0):
    """(kind, n, i, m) for every table of levels low..truncation, m the
    level it maps into: the faces (n, i) with max(1, low) <= n <= truncation,
    then the degeneracies (n, i) with max(0, low - 1) <= n < truncation,
    each with n and i ascending and 0 <= i <= n.  The only place that lists
    them."""
    faces = [("face", n, i, n - 1)
             for n in range(max(1, low), truncation + 1) for i in range(n + 1)]
    degeneracies = [("degeneracy", n, i, n + 1)
                    for n in range(max(0, low - 1), truncation) for i in range(n + 1)]
    return tuple(faces + degeneracies)


def _check_nonnegative(truncation):
    """Refuse a negative truncation with its own value."""
    if truncation < 0:
        raise TruncationMismatch("truncation must be >= 0, got %d" % truncation)


def _check_same_set(X, Y, what):
    """Refuse with ShapeMismatch(what) unless X and Y are one set: the same
    object, or sets with equal truncation, level sizes and face and
    degeneracy tables."""
    if X is Y:
        return
    same = X.truncation == Y.truncation and X._sizes == Y._sizes and all(
        np.array_equal(X.tables[kind][(n, i)], Y.tables[kind][(n, i)])
        for kind, n, i, _ in _table_keys(X.truncation)
    )
    if not same:
        raise ShapeMismatch(what)


class TruncatedSSet:
    """A simplicial set truncated at a fixed level.

    Level n is given by any sized sequence and kept as range(size(n)), its
    cells; faces[(n, i)] and degeneracies[(n, i)] are read-only int64 index
    tables in read-only mappings, and tables maps each kind of
    _table_keys ("face", "degeneracy") to its mapping.  The truncation is
    at most MAX_DEGREE.

    With a base (a TruncatedSSet of lower truncation), levels lists only
    the levels above the base's truncation, faces only their faces and
    degeneracies only the degeneracies into them; every other table is the
    base's own array, already checked.  A table that no level of its own
    has a place for is refused.
    """

    def __init__(self, truncation, levels, faces, degeneracies, base=None):
        if not is_integer(truncation):
            raise TruncationMismatch("truncation must be an integer, got %r" % (truncation,))
        self.truncation = int(truncation)
        _check_nonnegative(self.truncation)
        if self.truncation > MAX_DEGREE:
            raise DimensionBound("truncation %d exceeds bound %d" % (self.truncation, MAX_DEGREE))
        if base is not None:
            check_instance(base, TruncatedSSet, "the base")
        low = 0 if base is None else base.truncation + 1
        if low > self.truncation:
            raise TruncationMismatch(
                "base truncation %d is not below %d" % (base.truncation, self.truncation)
            )
        try:
            sizes = [len(lv) for lv in levels]
        except TypeError:
            raise ShapeMismatch("levels must be a sequence of sized levels") from None
        if len(sizes) != self.truncation + 1 - low:
            raise TruncationMismatch(
                "expected %d levels, got %d" % (self.truncation + 1 - low, len(sizes))
            )
        check_instance(faces, Mapping, "the face tables")
        check_instance(degeneracies, Mapping, "the degeneracy tables")
        stray = _stray_table(self.truncation, low, faces, degeneracies)
        if stray is not None:
            raise ShapeMismatch(stray)
        self.base = base
        self.levels = ([] if base is None else base.levels) + [range(size) for size in sizes]
        self._sizes = [len(lv) for lv in self.levels]
        self.faces = _frozen_tables({} if base is None else base.faces, faces, "face")
        self.degeneracies = _frozen_tables(
            {} if base is None else base.degeneracies, degeneracies, "degeneracy"
        )
        self.tables = types.MappingProxyType({"face": self.faces, "degeneracy": self.degeneracies})
        self._check_tables(low)
        # results computed from the tables, kept by _cached
        self._derived = {}

    def _check_tables(self, low):
        """Check the tables of levels low and up (faces of those levels,
        degeneracies into them)."""
        size = self._sizes
        for kind, n, i, m in _table_keys(self.truncation, low):
            tab = self.tables[kind].get((n, i))
            if tab is None or len(tab) != size[n]:
                raise ShapeMismatch("missing or misshapen %s table (%d,%d)" % (kind, n, i))
            x = _first_outside(tab, size[m])
            if x is not None:
                raise IndexOutOfRange("%s (%d,%d) hits cell %d" % (kind, n, i, x))

    def size(self, n):
        if not is_integer(n):
            raise ShapeMismatch("level %r is not an integer" % (n,))
        if not 0 <= n <= self.truncation:
            raise IndexOutOfRange("no level %d in levels 0..%d" % (n, self.truncation))
        return self._sizes[n]

    def face(self, n, i, x):
        return self._entry("face", n, i, x)

    def degeneracy(self, n, i, x):
        return self._entry("degeneracy", n, i, x)

    def _entry(self, kind, n, i, x):
        if not all(map(is_integer, (n, i, x))):
            raise ShapeMismatch("level, index and cell must be integers, got %r" % ((n, i, x),))
        tab = self.tables[kind].get((n, i))
        if tab is None or not 0 <= x < len(tab):
            raise IndexOutOfRange("no %s (%d,%d) of cell %d" % (kind, n, i, x))
        return int(tab[x])

    def to_json(self):
        obj = {
            "truncation": self.truncation,
            "levels": [self.size(n) for n in range(self.truncation + 1)],
            "faces": {
                "%d,%d" % k: v.tolist() for k, v in sorted(self.faces.items())
            },
            "degeneracies": {
                "%d,%d" % k: v.tolist() for k, v in sorted(self.degeneracies.items())
            },
        }
        return obj

    @classmethod
    def from_json(cls, obj):
        """Parse the to_json format.  Malformed input raises ParseError
        before anything is allocated; level sizes are bounded by
        MAX_CELLS_PER_LEVEL."""
        if not isinstance(obj, dict):
            raise ParseError("simplicial set must be a JSON object")
        trunc = obj.get("truncation")
        if not _is_int(trunc) or trunc < 0:
            raise ParseError("truncation must be an integer >= 0, got %r" % (trunc,))
        if trunc > MAX_DEGREE:
            raise ParseError("truncation %d exceeds bound %d" % (trunc, MAX_DEGREE))
        sizes = obj.get("levels")
        if not isinstance(sizes, list) or len(sizes) != trunc + 1:
            raise ParseError("levels must be a list of %d sizes" % (trunc + 1))
        for sz in sizes:
            if not _is_int(sz) or not 0 <= sz <= MAX_CELLS_PER_LEVEL:
                raise ParseError(
                    "level sizes must be integers in [0, %d], got %r"
                    % (MAX_CELLS_PER_LEVEL, sz)
                )
        faces = _parse_tables(obj.get("faces"), "faces")
        degeneracies = _parse_tables(obj.get("degeneracies"), "degeneracies")
        stray = _stray_table(trunc, 0, faces, degeneracies)
        if stray is not None:
            raise ParseError(stray)
        return cls(trunc, [range(sz) for sz in sizes], faces, degeneracies)


def _stray_table(truncation, low, faces, degeneracies):
    """A message naming the first table, faces first, whose key is not an
    (n, i) pair of integers or that levels low..truncation have no place for
    (see _table_keys), or None."""
    keys = {(kind, n, i) for kind, n, i, _ in _table_keys(truncation, low)}
    for kind, tables in (("face", faces), ("degeneracy", degeneracies)):
        for key in tables:
            if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_integer, key))):
                return "a %s table key must be an (n, i) pair of integers, got %r" % (kind, key)
            n, i = key
            if (kind, n, i) not in keys:
                return "no place for a %s table (%d,%d) in levels %d..%d" % (
                    kind, n, i, low, truncation)
    return None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_tables(tables, what):
    if not isinstance(tables, dict):
        raise ParseError("%s must be a JSON object of tables" % what)
    out = {}
    for key, arr in tables.items():
        parts = key.split(",")
        try:
            if len(parts) != 2:
                raise ValueError
            n, i = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("bad table key %r in %s" % (key, what))
        if not isinstance(arr, list) or not all(_is_int(x) for x in arr):
            raise ParseError("table %s[%r] must be a list of integers" % (what, key))
        try:
            out[(n, i)] = np.array(arr, dtype=np.int64)
        except OverflowError:
            raise ParseError("table %s[%r] holds an entry out of range" % (what, key))
    return out


def _cached(obj, key, build):
    """build(), computed once per key and kept on obj, whose read-only
    tables it reads."""
    if key not in obj._derived:
        obj._derived[key] = build()
    return obj._derived[key]


def _lower(X, k):
    """The set that owns levels 0..k of X: the last set of X's base chain
    (X, its base, the base's base, ...) that reaches level k.  It is levels
    0..k of X exactly when its truncation is k."""
    while X.base is not None and k <= X.base.truncation:
        X = X.base
    return X


def _on_owner(X, n, key, build):
    """build(owner) for owner = _lower(X, n), computed once per key and kept
    on the owner; for results that read only levels 0..n of X."""
    owner = _lower(X, n)
    return _cached(owner, key, lambda: build(owner))


def validate_simplicial(X):
    """Check every simplicial identity expressible within the truncation.
    Returns (True, None) or (False, description_string), computed once and
    kept on X.  On a set whose base passed, only the identities that touch
    a level above the base are checked; the first failure is the same, as
    the base's identities hold.  When the base fails, every identity is
    checked, since an identity of a higher level may come first."""
    check_instance(X, TruncatedSSet, "the simplicial set")

    def build():
        base = X.base
        low = base.truncation + 1 if base is not None and validate_simplicial(base)[0] else 0
        return _failed_identity(X, low)

    return _cached(X, "simplicial", build)


def _failed_identity(X, low):
    """(True, None), or (False, description) for the first failing
    simplicial identity of X among those that touch a level >= low."""
    N = X.truncation
    F, S = X.faces, X.degeneracies
    for n in range(max(2, low), N + 1):
        for j in range(n + 1):
            for i in range(j):
                x = _first_mismatch(F[(n - 1, i)][F[(n, j)]], F[(n - 1, j - 1)][F[(n, i)]])
                if x is not None:
                    return False, "d%d d%d != d%d d%d at level %d cell %d" % (
                        i, j, j - 1, i, n, x,
                    )
    for n in range(max(0, low - 2), N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                x = _first_mismatch(S[(n + 1, i)][S[(n, j)]], S[(n + 1, j + 1)][S[(n, i)]])
                if x is not None:
                    return False, "s%d s%d != s%d s%d at level %d cell %d" % (
                        i, j, j + 1, i, n, x,
                    )
    for n in range(max(0, low - 1), N):
        identity = np.arange(X.size(n), dtype=np.int64)
        for j in range(n + 1):
            for i in range(n + 2):
                got = F[(n + 1, i)][S[(n, j)]]
                if i == j or i == j + 1:
                    want = identity
                elif i < j:
                    want = S[(n - 1, j - 1)][F[(n, i)]]
                else:
                    want = S[(n - 1, j)][F[(n, i - 1)]]
                x = _first_mismatch(got, want)
                if x is not None:
                    return False, "d%d s%d identity fails at level %d cell %d" % (
                        i, j, n, x,
                    )
    return True, None


class SimplicialMap:
    """A level-wise map of truncated simplicial sets; components is a tuple
    whose entry n is a read-only int64 table from cells of src level n to
    cells of dst level n.

    With a base (a SimplicialMap from levels 0..t of src to levels 0..t of
    dst, t below the truncation: the very sets _lower(src, t) and
    _lower(dst, t)), components lists only the levels above t; the
    components of levels 0..t are the base's own arrays, already checked.
    """

    def __init__(self, src, dst, components, base=None):
        check_instance(src, TruncatedSSet, "the source")
        check_instance(dst, TruncatedSSet, "the target")
        if src.truncation != dst.truncation:
            raise TruncationMismatch("source and target truncations differ")
        low = 0
        if base is not None:
            check_instance(base, SimplicialMap, "the base")
            t = base.src.truncation
            if t >= src.truncation:
                raise TruncationMismatch(
                    "base truncation %d is not below %d" % (t, src.truncation))
            if base.src is not _lower(src, t) or base.dst is not _lower(dst, t):
                raise ShapeMismatch("the base is not a map of levels 0..%d of the source "
                                    "and target" % t)
            low = t + 1
        self.src = src
        self.dst = dst
        self.base = base
        try:
            components = list(components)
        except TypeError:
            raise ShapeMismatch("components must be a sequence of tables, got %s"
                                % type(components).__name__) from None
        own = [_index_table(c, "component %d" % n) for n, c in enumerate(components, low)]
        if len(own) != src.truncation + 1 - low:
            raise ShapeMismatch("need one component per level")
        self.components = (() if base is None else base.components) + tuple(own)
        for n in range(low, src.truncation + 1):
            comp = self.components[n]
            if len(comp) != src._sizes[n]:
                raise ShapeMismatch("component %d has wrong length" % n)
            y = _first_outside(comp, dst._sizes[n])
            if y is not None:
                raise IndexOutOfRange("component %d hits cell %d" % (n, y))
        self._derived = {}

    def __call__(self, n, x):
        if not (is_integer(n) and is_integer(x)):
            raise ShapeMismatch("level and cell must be integers, got %r" % ((n, x),))
        if not (0 <= n < len(self.components) and 0 <= x < len(self.components[n])):
            raise IndexOutOfRange("no cell %d at level %d" % (x, n))
        return int(self.components[n][x])

    def validate(self):
        """Check commutation with all faces and degeneracies.  Returns
        (True, None) or (False, description), computed once and kept on the
        map.  On a map whose base passed, only the tables that touch a level
        above the base are checked, as validate_simplicial does."""
        return _cached(self, "validate", self._failed_commutation)

    def _failed_commutation(self):
        base = self.base
        low = base.src.truncation + 1 if base is not None and base.validate()[0] else 0
        comp = self.components
        for kind, n, i, m in _table_keys(self.src.truncation, low):
            x = _first_mismatch(self.dst.tables[kind][(n, i)][comp[n]],
                                comp[m][self.src.tables[kind][(n, i)]])
            if x is not None:
                return False, "%s (%d,%d) not preserved at cell %d" % (kind, n, i, x)
        return True, None

    def compose(self, other):
        """self after other."""
        check_instance(other, SimplicialMap, "the other map")
        _check_same_set(other.dst, self.src, "maps not composable")
        base = _on_bases("compose", SimplicialMap.compose, self, other)
        comps = [
            self.components[n][other.components[n]]
            for n in range(_low(base), other.src.truncation + 1)
        ]
        return SimplicialMap(other.src, self.dst, comps, base)


def _low(base):
    """The first level above a base map, 0 for none."""
    return 0 if base is None else base.src.truncation + 1


def _map_by_levels(src, dst, t, key, level):
    """The map src -> dst whose component on level n is level(n).  Levels
    0..t do not depend on alpha.  When both towers hold a set of truncation
    t, those levels form a map of _lower(src, t) to _lower(dst, t), built
    once and kept on _lower(src, t) under (key, _lower(dst, t)), and the map
    is built on it; otherwise it is built whole.  A key names the rule below
    t, so two rules with one key must agree there (identity_map and
    canonical_iso share "identity").  The kept map refers back to
    _lower(src, t), so t names a set that others are built on, not one that
    lives for one class."""
    low_src, low_dst = _lower(src, t), _lower(dst, t)
    base = None
    if low_src.truncation == t == low_dst.truncation:
        base = _cached(low_src, (key, low_dst), lambda: SimplicialMap(
            low_src, low_dst, [level(n) for n in range(t + 1)]))
    return SimplicialMap(src, dst, [level(n) for n in range(_low(base), src.truncation + 1)],
                         base)


def _on_bases(key, op, *maps):
    """op(*bases) for the bases of the maps, kept on the first base under
    key and the other bases; None unless every map has a base and all the
    bases have one truncation."""
    bases = [f.base for f in maps]
    if any(b is None for b in bases) or len({b.src.truncation for b in bases}) != 1:
        return None
    return _cached(bases[0], (key, *bases[1:]), lambda: op(*bases))


def _composites_agree(f, g, h, k):
    """Whether f after g and h after k have equal components, read off the
    components without forming either composite, so the sets in between
    need not be one.  When the four maps have bases of one truncation, the
    bases' answer is kept on f's base and only the levels above it are
    compared."""
    below = _on_bases("composites agree", _composites_agree, f, g, h, k)
    low = 0 if below is None else _low(f.base)
    return below is not False and all(
        np.array_equal(f.components[n][g.components[n]], h.components[n][k.components[n]])
        for n in range(low, g.src.truncation + 1))


def identity_map(X):
    """The identity of X; when X's tower holds its levels 0..N-1, on their
    identity, kept on them."""
    check_instance(X, TruncatedSSet, "the simplicial set")
    return _map_by_levels(X, X, X.truncation - 1, "identity",
                          lambda n: np.arange(X._sizes[n], dtype=np.int64))


def is_isomorphism(f):
    """Whether a validated simplicial map is a level-wise bijection, kept on
    the map; a map on a base asks the base first."""
    check_instance(f, SimplicialMap, "the map")

    def build():
        if f.base is not None and not is_isomorphism(f.base):
            return False
        for n in range(_low(f.base), f.src.truncation + 1):
            if f.src._sizes[n] != f.dst._sizes[n]:
                return False
            if np.any(np.bincount(f.components[n], minlength=f.dst._sizes[n]) != 1):
                return False
        return True

    return _cached(f, "isomorphism", build)


def inverse_map(f):
    """The level-wise inverse of a bijective map.  On a cell hit several
    times the last preimage wins; a cell never hit goes to cell 0.  A map on
    a base gets the base's inverse, kept on the base, as its base."""
    check_instance(f, SimplicialMap, "the map")
    base = _on_bases("inverse", inverse_map, f)
    comps = []
    for n in range(_low(base), f.src.truncation + 1):
        inv = np.full(f.dst._sizes[n], -1, dtype=np.int64)
        np.maximum.at(inv, f.components[n], np.arange(f.src._sizes[n], dtype=np.int64))
        comps.append(np.maximum(inv, 0))
    return SimplicialMap(f.dst, f.src, comps, base)


# ---------------------------------------------------------------------------
# builders


def _guard_level(size):
    if size > MAX_CELLS_PER_LEVEL:
        raise DimensionBound("level would hold %d cells" % size)


def nerve_bg(G, truncation=3):
    """The nerve of a finite group: level n is G^n, faces multiply adjacent
    entries or drop ends, degeneracies insert the identity.  Truncation N
    is level N on nerve_bg(G, N - 1)."""
    check_instance(G, FiniteGroup, "the group")
    if not is_integer(truncation):
        raise TruncationMismatch("nerve truncation must be an integer, got %r"
                                 % (truncation,))
    N = int(truncation)
    if N > MAX_DEGREE:
        raise DimensionBound("nerve truncation %d exceeds bound %d" % (N, MAX_DEGREE))
    _check_nonnegative(N)
    return _nerve(G, N)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _face_rows(G, n):
    """The face tables d_0..d_n of level n >= 1 of the nerve of G, built
    once per (G, n) with nerve_face, as read-only flat int64 arrays: entry
    x of d_i is the code of face i of the n-tuple with code x.  The nerves
    of every truncation and the coboundary share these arrays; callers
    bound |G|^n first."""
    ng = G.order
    g = grid((ng,) * n)
    rows = []
    for i in range(n + 1):
        row = flat(encode(nerve_face(G.table_array, g, i), (ng,) * (n - 1)), (ng,) * n)
        row.flags.writeable = False
        rows.append(row)
    return tuple(rows)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _nerve(G, N):
    ng = G.order
    _guard_level(ng**N)
    base = _nerve(G, N - 1) if N > 0 else None
    tables = {"face": {}, "degeneracy": {}}
    for kind, n, i, m in _table_keys(N, N):
        if kind == "face":
            tables[kind][(n, i)] = _face_rows(G, n)[i]
        else:
            g = grid((ng,) * n)
            tables[kind][(n, i)] = flat(encode(g[:i] + [0] + g[i:], (ng,) * m), (ng,) * n)
    return TruncatedSSet(N, [range(ng**N)], tables["face"], tables["degeneracy"], base)


def surjections_to_2(n):
    """Monotone surjections [n] -> [2] as value tuples, lexicographic."""
    if n < 2:
        return []
    out = []
    for cuts in itertools.combinations(range(1, n + 1), 2):
        tup = tuple(0 if j < cuts[0] else (1 if j < cuts[1] else 2) for j in range(n + 1))
        out.append(tup)
    return sorted(out)


def _gamma_targets(kind, n, i):
    """Where d_i (kind "face") or s_i (kind "degeneracy") on level n of
    Gamma(A[2]) sends each copy of A.  Level n holds one copy per monotone
    surjection [n] ->> [2]; a copy goes to the position, at the adjacent
    level, of its surjection composed with the coface or codegeneracy, or
    to -1 when that composite is not surjective."""
    if kind == "face":
        m, moved = n - 1, [eta[:i] + eta[i + 1:] for eta in surjections_to_2(n)]
    else:
        m, moved = n + 1, [eta[:i + 1] + eta[i:] for eta in surjections_to_2(n)]
    pos = {eta: k for k, eta in enumerate(surjections_to_2(m))}
    return [pos.get(eta, -1) for eta in moved]


def _w_targets(kind, n, i):
    """Where d_i or s_i on level n of Wbar(Gamma(A[2])) sends each copy of A.

    A Wbar_n cell is (g_1, ..., g_n) with g_t in Gamma_{n-t}.  d_i and s_i
    apply d_{i-t} or s_{i-t} to g_t for 1 <= t <= i.  d_i then moves g_t to
    position t-1 for t >= max(i+1, 2), which adds d_0(g_i) into g_{i+1} and
    drops g_1 when i = 0; s_i moves g_t to position t+1 for t > i, leaving
    a zero at i+1 (J. P. May, Simplicial Objects in Algebraic Topology).
    """
    m = n - 1 if kind == "face" else n + 1
    moves = [(t, t, _gamma_targets(kind, n - t, i - t)) for t in range(1, i + 1)]
    if kind == "face":
        moves += [(t, t - 1, None) for t in range(max(i + 1, 2), n + 1)]
    else:
        moves += [(t, t + 1, None) for t in range(i + 1, n + 1)]
    src_off, dst_off = _w_offsets(n), _w_offsets(m)
    out = [-1] * src_off[-1]
    for t, u, local in moves:
        if local is None:
            local = range(math.comb(n - t, 2))
        for j, target in enumerate(local):
            if target >= 0:
                out[src_off[t] + j] = dst_off[u] + target
    return out


def _w_offsets(n):
    """Offsets of the entries t = 1..n of a Wbar_n cell among its copies of
    A, at index t, followed by the total C(n, 3)."""
    off = [0] * (n + 2)
    for t in range(1, n + 1):
        off[t + 1] = off[t] + math.comb(n - t, 2)
    return off


def _sum_table(A, targets, width_out):
    """The table of the map A^len(targets) -> A^width_out that adds copy j
    into copy targets[j] (dropping it when -1), over mixed-radix codes."""
    na = A.order
    shape = (na,) * len(targets)
    x = grid(shape)
    out = [None] * width_out
    for j, t in enumerate(targets):
        if t >= 0:
            out[t] = x[j] if out[t] is None else A.add_array[out[t], x[j]]
    parts = [0 if part is None else part for part in out]
    return flat(encode(parts, (na,) * width_out), shape)


def _abelian_sset(A, N, k, targets, base):
    """Level N of a level-wise power of A on base, its levels 0..N-1: level
    n has C(n, k) copies of A, and targets(kind, n, i) says where d_i or s_i
    sends each copy."""
    size = A.order**math.comb(N, k)
    _guard_level(size)
    tables = {"face": {}, "degeneracy": {}}
    for kind, n, i, m in _table_keys(N, N):
        tables[kind][(n, i)] = _sum_table(A, targets(kind, n, i), math.comb(m, k))
    return TruncatedSSet(N, [range(size)], tables["face"], tables["degeneracy"], base)


def _check_b2a(A, truncation, what):
    """Refuse anything but coefficients A and an integer truncation in
    0..4."""
    check_instance(A, AbelianGroup, "the coefficients")
    if not is_integer(truncation):
        raise TruncationMismatch("%s truncation must be an integer, got %r" % (what, truncation))
    if truncation > 4:
        raise DimensionBound("%s supports truncation at most 4" % what)
    _check_nonnegative(truncation)


def gamma_a2(A, truncation=4):
    """Gamma(A[2]) as a truncated simplicial set (see _gamma_targets)."""
    _check_b2a(A, truncation, "gamma_a2")
    return _gamma(A, int(truncation))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _gamma(A, N):
    return _abelian_sset(A, N, 2, _gamma_targets, _gamma(A, N - 1) if N > 0 else None)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _wbar(A, N):
    """Wbar(Gamma(A[2])) at any truncation: the one builder of the B^2 A
    side.  W and the decalage are read off it and kept on it."""
    return _abelian_sset(A, N, 3, _w_targets, _wbar(A, N - 1) if N > 0 else None)


def wbar_b2a(A, truncation=3):
    """The simplicial classifying space of Gamma(A[2]): level n is
    Gamma_{n-1} x ... x Gamma_0, with May's faces and degeneracies (see
    _w_targets).  The arguments are checked in front of the cache."""
    _check_b2a(A, truncation, "wbar_b2a")
    return _wbar(A, int(truncation))


def w_b2a(A, truncation=3):
    """W(Gamma(A[2])), the total space of the universal bundle over Wbar:
    its decalage Dec_0 Wbar.  Level n is Wbar's level n+1, Gamma_n x ... x
    Gamma_0, and d_i and s_i are Wbar's d_{i+1} and s_{i+1}, the same
    arrays.  Truncation N is kept on Wbar's truncation N + 1 and is level N
    on w_b2a(A, N - 1)."""
    _check_b2a(A, truncation, "w_b2a")
    return _w(A, int(truncation))


def _w(A, N):
    Wb = _wbar(A, N + 1)

    def build():
        tables = {"face": {}, "degeneracy": {}}
        for kind, n, i, _ in _table_keys(N, N):
            tables[kind][(n, i)] = Wb.tables[kind][(n + 1, i + 1)]
        return TruncatedSSet(N, Wb.levels[N + 1:], tables["face"], tables["degeneracy"],
                             _w(A, N - 1) if N > 0 else None)

    return _cached(Wb, "w", build)


def decalage_map(A, truncation=3):
    """dec: W(B^2 A) -> Wbar(B^2 A), the face d_0 of Wbar that Dec_0
    forgets: on level n it is Wbar's d_0 on level n+1, the same array, and
    drops the leading factor Gamma_n.  The map is kept on that Wbar."""
    W = w_b2a(A, truncation)
    Wb = _wbar(A, W.truncation + 1)
    # on its levels 0..2, where cocycle_as_map has its base too, so that
    # their fiber product is built on the fiber product of the bases
    return _cached(Wb, "decalage", lambda: _map_by_levels(
        W, wbar_b2a(A, truncation), min(2, W.truncation - 1), "decalage",
        lambda n: Wb.faces[(n + 1, 0)]))


def cocycle_as_map(alpha, truncation=3):
    """A normalized 3-cochain alpha as a simplicial map from the nerve of G
    to Wbar(B^2 A).

    At truncation 3 the map always exists; at truncation 4 the component on
    4-cells must satisfy five face constraints whose joint solvability at
    every 4-tuple is exactly the cocycle condition, so NotACocycle is raised
    with the first failing tuple.  It reads alpha at the faces of each
    4-cell through nerve_bg(G, 4)'s face tables.
    """
    from .cochain import Cochain  # cochain imports this module

    check_instance(alpha, Cochain, "the associator")
    if alpha.degree != 3:
        raise DegreeMismatch("expected a degree-3 cochain")
    if truncation not in (3, 4):
        raise DimensionBound("cocycle_as_map supports truncation 3 or 4")
    G, A = alpha.group, alpha.coeffs
    NG = nerve_bg(G, truncation)
    Wb = wbar_b2a(A, truncation)
    V = alpha.index_array()
    # Wbar_3 cells are ((alpha,), (), ()), coded by the index of alpha
    comps = [V]
    if truncation == 4:
        Add, Sub = A.add_array, A.sub_array
        # alpha on the faces d_0..d_4 of every 4-cell (g1, g2, g3, g4)
        d, v1, v2, v3, c = (V[NG.faces[(4, i)]] for i in range(5))
        a = Sub[v1, d]
        b = Sub[v2, a]
        bad = np.flatnonzero(Add[b, c] != v3)
        if bad.size:
            raise NotACocycle(tuple(int(v) for v in np.unravel_index(bad[0], (G.order,) * 4)))
        # the Wbar_4 cell ((a, b, c), (d,), (), ())
        comps.append(encode((a, b, c, d), (A.order,) * 4))
    # levels 0-2 go to the points of Wbar, on the zero map kept on
    # nerve_bg(G, 2), one for both truncations
    return _map_by_levels(NG, Wb, 2, "zero map", lambda n: comps[n - 3] if n > 2
                          else np.zeros(NG.size(n), dtype=np.int64))


def _expand(order, lo, counts):
    """Flatten a join: entry k of the result pairs an owner (an index into
    counts) with order[lo[owner] + j] for j < counts[owner], ascending j."""
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    start = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return owner, order[start + np.arange(len(owner), dtype=np.int64)]


class _PairLevel:
    """Level n of the fiber product of f and g: the pairs (x, y) with
    f(x) = g(y), x-major and y ascending.  The pair (x, y) is cell
    first[x] + rank[y], rank[y] counting the cells before y with the same
    image under g."""

    def __init__(self, fx, gy, zsize):
        self.fx, self.gy = fx, gy
        order = np.argsort(gy, kind="stable")
        by_value = np.bincount(gy, minlength=zsize)
        starts = np.cumsum(by_value) - by_value
        per_x = by_value[fx]
        _guard_level(int(per_x.sum()))
        self.xs, self.ys = _expand(order, starts[fx], per_x)
        self.first = np.cumsum(per_x) - per_x
        self.rank = np.empty(len(gy), dtype=np.int64)
        self.rank[order] = np.arange(len(gy), dtype=np.int64) - starts[gy[order]]

    def locate(self, x, y, what):
        """The cells of the pairs (x[k], y[k]), which must all exist."""
        if not np.array_equal(self.fx[x], self.gy[y]):
            raise IndexOutOfRange("%s leaves the fiber product" % what)
        return self.first[x] + self.rank[y]


def fiber_product(f, g):
    """The level-wise pullback of f: X -> Z and g: Y -> Z, with its two
    projections.  Cells of level n are the pairs (x, y) with f(x) = g(y),
    x-major and y ascending.

    When f and g have bases of one truncation, P is built on the fiber
    product of the bases, kept on f's base, and the projections on its
    projections.  When the bases' product raises IndexOutOfRange, P is
    built from level 0, so that the error names the first table in
    _table_keys order that leaves the fiber product."""
    check_instance(f, SimplicialMap, "f")
    check_instance(g, SimplicialMap, "g")
    _check_same_set(f.dst, g.dst, "maps have different codomains")
    return _fiber_product(f, g)[:3]


def _fiber_product(f, g):
    """fiber_product(f, g) and its pair levels."""
    X, Y = f.src, g.src
    N = X.truncation
    try:
        based = _on_bases("fiber product", _fiber_product, f, g)
    except IndexOutOfRange:
        based = None  # built from level 0 below, so that the first failure is reported
    base_p, base_x, base_y, pairs = based or (None, None, None, [])
    low = len(pairs)
    pairs = pairs + [
        _PairLevel(f.components[n], g.components[n], f.dst._sizes[n]) for n in range(low, N + 1)
    ]
    tables = {"face": {}, "degeneracy": {}}
    for kind, n, i, m in _table_keys(N, low):
        tables[kind][(n, i)] = pairs[m].locate(
            X.tables[kind][(n, i)][pairs[n].xs], Y.tables[kind][(n, i)][pairs[n].ys],
            "%s (%d,%d)" % (kind, n, i),
        )
    own = pairs[low:]
    P = TruncatedSSet(N, [pl.xs for pl in own], tables["face"], tables["degeneracy"], base_p)
    proj_x = SimplicialMap(P, X, [pl.xs for pl in own], base_x)
    proj_y = SimplicialMap(P, Y, [pl.ys for pl in own], base_y)
    return P, proj_x, proj_y, pairs


def mediating_map(P, proj_x, proj_y, p, q):
    """The unique map into the fiber product P induced by p: T -> X and
    q: T -> Y with matching composites: t goes to the cell of P that the
    projections send to (p(t), q(t)).  When p, q and the projections have
    bases of one truncation and P's tower holds a set of that truncation,
    the map is built on the mediating map of the bases, kept on p's base,
    as fiber_product is."""
    check_instance(P, TruncatedSSet, "the fiber product")
    for f, what in ((proj_x, "proj_x"), (proj_y, "proj_y"), (p, "p"), (q, "q")):
        check_instance(f, SimplicialMap, what)
    _check_same_set(p.src, q.src, "p and q have different domains")
    return _mediating_map(P, p, q, proj_x, proj_y)


def _mediating_map(P, p, q, proj_x, proj_y):
    N = p.src.truncation
    t = _low(p.base) - 1
    lower = _lower(P, t)
    base = None
    if P.truncation == N and lower.truncation == t:
        # levels are built in ascending order, so bases that fail raise the
        # first failure, as the map from level 0 would
        base = _on_bases(("mediating map", lower), functools.partial(_mediating_map, lower),
                         p, q, proj_x, proj_y)
    comps = []
    for n in range(_low(base), N + 1):
        ysize = proj_y.dst.size(n)
        cells = proj_x.components[n] * ysize + proj_y.components[n]
        order = np.argsort(cells, kind="stable")
        ordered = cells[order]
        want = p.components[n] * ysize + q.components[n]
        pos = np.minimum(np.searchsorted(ordered, want), max(len(ordered) - 1, 0))
        if len(want) and (not len(ordered) or not np.array_equal(ordered[pos], want)):
            raise IndexOutOfRange("(p, q) leaves the fiber product at level %d" % n)
        comps.append(order[pos])
    return SimplicialMap(p.src, P, comps, base)


# ---------------------------------------------------------------------------
# horns and the Kan condition


class Horn:
    """A compatible horn: faces[j] for j != missing at level n-1."""

    def __init__(self, n, missing, faces):
        check_instance(faces, Mapping, "the horn's faces")
        if not all(map(is_integer, (n, missing, *faces, *faces.values()))):
            raise ShapeMismatch("a horn's dimension, missing index and faces must be integers")
        if not 0 <= missing <= n:
            raise IndexOutOfRange("missing index out of range")
        if sorted(faces) != [j for j in range(n + 1) if j != missing]:
            raise ShapeMismatch("horn must supply every face except the missing one")
        # Python ints, so that to_json is plain JSON whatever integers came in
        self.n = int(n)
        self.missing = int(missing)
        self.faces = {int(j): int(x) for j, x in faces.items()}

    def key(self):
        return tuple(self.faces[j] for j in sorted(self.faces))

    def to_json(self):
        return {
            "n": self.n,
            "missing": self.missing,
            "faces": {str(k): v for k, v in sorted(self.faces.items())},
        }


def _slots(n, missing):
    return [j for j in range(n + 1) if j != missing]


def _ranks(keys):
    """The sorted distinct values of keys and the rank of each key among
    them."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return ordered[new], rank


class _FillerIndex:
    """The ascending keys of the level-n cells of X by their faces other
    than missing.

    A cell's signature is its face tuple in slot order, and its key the
    mixed-radix code of the signature in radix size(n-1), so keys sort like
    signatures.  Where appending a face could take a code past CODE_BOUND,
    the codes so far are first replaced by their ranks among the distinct
    codes (kept in steps), which preserves the order.  Ranks keep distinct
    signatures apart, so distinct, the number of distinct keys, is the
    number of distinct signatures.
    """

    def __init__(self, X, n, missing):
        self.radix = X.size(n - 1)
        self.steps = {}
        key = np.zeros(X.size(n), dtype=np.int64)
        bound = 1
        for t, j in enumerate(_slots(n, missing)):
            if bound * self.radix > CODE_BOUND:
                self.steps[t], key = _ranks(key)
                bound = len(self.steps[t])
            key = key * self.radix + X.faces[(n, j)]
            bound *= self.radix
        keys = self.sorted_keys = np.sort(key)
        self.distinct = int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)

    def horn_keys(self, cols):
        """The keys a filler of each horn would have, -1 where none can
        exist; the horns are given by one array of level-(n-1) cells per
        slot."""
        key = np.zeros(len(cols[0]), dtype=np.int64)
        found = np.ones(len(key), dtype=bool)
        for t, col in enumerate(cols):
            uniq = self.steps.get(t)
            if uniq is not None:
                found &= _among(uniq, key)
                key = np.searchsorted(uniq, key)
            key = key * self.radix + col
        key[~found] = -1
        return key

    def counts(self, cols):
        """The number of fillers of each horn."""
        key = self.horn_keys(cols)
        return (np.searchsorted(self.sorted_keys, key, "right")
                - np.searchsorted(self.sorted_keys, key, "left"))


def _among(ordered, key):
    """Whether each entry of key occurs in the ascending array ordered."""
    if not len(ordered):
        return np.zeros(len(key), dtype=bool)
    pos = np.searchsorted(ordered, key)
    np.minimum(pos, len(ordered) - 1, out=pos)
    return ordered[pos] == key


def _filler_index(X, n, missing):
    return _on_owner(X, n, ("fillers", n, missing), lambda O: _FillerIndex(O, n, missing))


def _face_groups(X, n, i):
    """Level-n cells grouped by d_i: the cells with d_i = v are
    order[starts[v]:starts[v] + counts[v]], ascending."""

    def build(O):
        tab = O.faces[(n, i)]
        counts = np.bincount(tab, minlength=O.size(n - 1))
        return np.argsort(tab, kind="stable"), np.cumsum(counts) - counts, counts

    return _on_owner(X, n, ("groups", n, i), build)


def _check_horn_type(X, n, missing):
    check_instance(X, TruncatedSSet, "the simplicial set")
    if not 1 <= n <= X.truncation:
        raise DimensionBound(
            "horns have dimension 1..%d here, got %d" % (X.truncation, n)
        )
    if not 0 <= missing <= n:
        raise IndexOutOfRange("missing face %d of a %d-horn" % (missing, n))


def fillers(X, horn):
    """All cells whose faces extend the horn, ascending."""
    check_instance(horn, Horn, "the horn")
    _check_horn_type(X, horn.n, horn.missing)
    outside = [c for c in horn.faces.values() if not 0 <= c < X.size(horn.n - 1)]
    if outside:
        raise IndexOutOfRange("horn face %r is not a cell of level %d" % (outside[0], horn.n - 1))
    extends = np.ones(X.size(horn.n), dtype=bool)
    for j, c in horn.faces.items():
        extends &= X.faces[(horn.n, j)] == c
    return np.flatnonzero(extends).tolist()


def _block_spans(counts, limit):
    """Consecutive (start, stop) ranges of counts, each summing to at most
    limit unless it holds a single entry."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, base + limit, "right")), start + 1)
        yield start, stop
        start = stop


def _horn_rows(X, n, missing):
    """All compatible (n, missing)-horns in blocks, each block a list of
    int64 arrays, one per face slot (increasing face index), listing its
    horns in lexicographic order.

    This is the order of a depth-first search that fills slots in
    increasing face index with candidates in increasing cell index.  Every
    filled slot j is below the next slot k and imposes
    d_j(x_k) = d_{k-1}(x_j); the first such constraint is a join on the
    cells grouped by their face in slot 0, the others filter the joined
    horns.  Each step works on at most HORN_BLOCK horns at a time, so
    memory stays bounded however many horns there are.
    """
    slots = _slots(n, missing)
    size = X.size(n - 1)
    if n >= 2:
        F = [X.faces[(n - 1, i)] for i in range(n)]
        order, starts, counts_by_face = _face_groups(X, n - 1, slots[0])

    def extend(cols, depth):
        if depth == len(slots):
            yield cols
            return
        Fk = F[slots[depth] - 1]
        want = Fk[cols[0]]
        lo, counts = starts[want], counts_by_face[want]
        needs = [(F[slots[d]], Fk[cols[d]]) for d in range(1, depth)]
        for a, b in _block_spans(counts, HORN_BLOCK):
            parent, z = _expand(order, lo[a:b], counts[a:b])
            parent += a
            if needs:
                keep = np.ones(len(z), dtype=bool)
                for Fj, need in needs:
                    keep &= Fj[z] == need[parent]
                parent, z = parent[keep], z[keep]
            if len(z):
                yield from extend([c[parent] for c in cols] + [z], depth + 1)

    for a in range(0, size, HORN_BLOCK):
        yield from extend([np.arange(a, min(size, a + HORN_BLOCK), dtype=np.int64)], 1)


def _horn(n, missing, cols, x):
    return Horn(n, missing, {j: int(c[x]) for j, c in zip(_slots(n, missing), cols)})


def enumerate_horns(X, n, missing):
    """All compatible (n, missing)-horns, in the lexicographic order of
    their faces in increasing face index."""
    _check_horn_type(X, n, missing)
    return [
        _horn(n, missing, cols, x)
        for cols in _horn_rows(X, n, missing)
        for x in range(len(cols[0]))
    ]


def filler_counts(X, n, missing):
    """The number of fillers of every compatible (n, missing)-horn, in
    enumerate_horns order, as an int64 array: a copy of the counts kept on
    _lower(X, n)."""
    _check_horn_type(X, n, missing)

    def build(O):
        index = _filler_index(O, n, missing)
        blocks = [index.counts(cols) for cols in _horn_rows(O, n, missing)]
        return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)

    return _on_owner(X, n, ("filler counts", n, missing), build).copy()


def _first_unfilled(X, n, missing):
    """The first compatible (n, missing)-horn without a filler, or None,
    kept on _lower(X, n).

    In a set whose simplicial identities hold, the faces of every cell form
    a compatible horn, so every horn has a filler exactly when the filler
    keys take as many values as there are horns.  The horns are counted
    once on _lower(X, n - 1), which every set on it shares, and the count
    stops once it passes MAX_CELLS_PER_LEVEL.  A set that fails validation,
    a count that differs or one that stopped walks the horns in blocks, and
    that walk alone finds the witness."""

    def count_horns(B):
        count = 0
        for cols in _horn_rows(B, n, missing):
            count += len(cols[0])
            if count > MAX_CELLS_PER_LEVEL:
                break
        return count

    def build(O):
        index = _filler_index(O, n, missing)
        if validate_simplicial(O)[0] and index.distinct == _on_owner(
                O, n - 1, ("horn count", n, missing), count_horns) <= MAX_CELLS_PER_LEVEL:
            return None
        for cols in _horn_rows(O, n, missing):
            hit = _among(index.sorted_keys, index.horn_keys(cols))
            if not hit.all():
                return _horn(n, missing, cols, hit.argmin())
        return None

    return _on_owner(X, n, ("unfilled", n, missing), build)


def is_kan(X, up_to=None):
    """Check that every compatible horn realizable within the truncation
    has at least one filler.  Returns (True, None) or (False, horn) with
    the first unfilled horn in enumerate_horns order, n and missing
    ascending.  up_to, when given, must be at least 1: a sweep over no level
    would pass vacuously."""
    check_instance(X, TruncatedSSet, "the simplicial set")
    if up_to is not None and not (is_integer(up_to) and up_to >= 1):
        raise DimensionBound("is_kan checks levels 1..up_to, got up_to = %r" % (up_to,))
    N = up_to if up_to is not None else X.truncation
    for n in range(1, min(N, X.truncation) + 1):
        for missing in range(n + 1):
            horn = _first_unfilled(X, n, missing)
            if horn is not None:
                return False, Horn(n, missing, horn.faces)
    return True, None
