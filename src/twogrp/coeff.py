"""Finite abelian coefficient groups in invariant-factor form.

Elements are plain tuples of residues, one per invariant factor, written
additively.  The empty factor list gives the trivial group and the empty
tuple its only element.
"""

import math

import numpy as np

from .errors import InvalidFactor, ParseError, ShapeMismatch, SizeBound

# Largest coefficient group any constructor builds.  Residues stay below
# 2^24, so a product of two stays below 2^48 and sums of many such products
# (Smith's row updates, class coordinates) stay inside int64.
MAX_COEFF_ORDER = 2**24


class AbelianGroup:
    """A finite abelian group presented as Z_{m1} x ... x Z_{mk}."""

    def __init__(self, invariant_factors):
        try:
            factors = tuple(invariant_factors)
        except TypeError:
            raise InvalidFactor("invariant factors must be a sequence of integers, got %r"
                                % (invariant_factors,)) from None
        for m in factors:
            if not is_integer(m) or m < 2:
                raise InvalidFactor("invariant factors must be integers >= 2, got %r" % (m,))
        factors = tuple(map(int, factors))
        order = math.prod(factors)
        if order > MAX_COEFF_ORDER:
            raise SizeBound("coefficient order %d exceeds bound %d"
                            % (order, MAX_COEFF_ORDER))
        self.invariant_factors = factors
        self.order = order
        self.zero = (0,) * len(factors)
        # element residues r sit at index r @ weights in elements() order
        self.moduli = _frozen(factors)
        self.weights = _frozen([math.prod(factors[t + 1:]) for t in range(len(factors))])
        self._elements = None
        self._add = self._neg = self._sub = None

    def __repr__(self):
        return "AbelianGroup(%s)" % list(self.invariant_factors)

    def __eq__(self, other):
        return (
            isinstance(other, AbelianGroup)
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self):
        return hash(self.invariant_factors)

    def check(self, x):
        try:
            count = len(x)
        except TypeError:
            raise ShapeMismatch("element %r is not a sequence of residues" % (x,)) from None
        if count != len(self.invariant_factors):
            raise ShapeMismatch(
                "element %r has %d residues, group has %d factors"
                % (x, count, len(self.invariant_factors))
            )
        for r, m in zip(x, self.invariant_factors):
            if not is_integer(r):
                raise ShapeMismatch("residue %r is not an integer" % (r,))
            if not 0 <= r < m:
                raise ShapeMismatch("residue %r out of range for factor %d" % (r, m))

    # Arithmetic assumes operands are valid elements (checked on entry into
    # the library via check()); keeping the hot paths bare matters for the
    # cell-level scans.

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.invariant_factors))

    def neg(self, x):
        return tuple((-a) % m for a, m in zip(x, self.invariant_factors))

    def sub(self, x, y):
        return tuple((a - b) % m for a, b, m in zip(x, y, self.invariant_factors))

    def scale(self, n, x):
        return tuple((n * a) % m for a, m in zip(x, self.invariant_factors))

    def _residue_grid(self):
        """All elements as an |A| x k int64 array of residues, in
        elements() order."""
        k = len(self.moduli)
        return np.indices(self.invariant_factors).reshape(k, self.order).T

    def elements(self):
        """All elements in lexicographic order, zero first, as a list of
        residue tuples decoded once by rows_as_tuples."""
        if self._elements is None:
            self._elements = list(rows_as_tuples(self._residue_grid()))
        return self._elements

    def index(self, x):
        self.check(x)
        return int(np.asarray(x, dtype=np.int64) @ self.weights)

    # The tables are built on first use and kept as plain attributes
    # (functools.cached_property would materialize the instance __dict__,
    # which slows every attribute read on the object).

    @property
    def add_array(self):
        """Read-only |A| x |A| int64 table of element-index sums."""
        if self._add is None:
            R = self._residue_grid()
            self._add = _frozen((R[:, None] + R) % self.moduli @ self.weights)
        return self._add

    @property
    def neg_array(self):
        """Read-only int64 table of element-index negatives."""
        if self._neg is None:
            self._neg = _frozen(-self._residue_grid() % self.moduli @ self.weights)
        return self._neg

    @property
    def sub_array(self):
        """Read-only |A| x |A| int64 table of element-index differences."""
        if self._sub is None:
            self._sub = _frozen(self.add_array[:, self.neg_array])
        return self._sub

    def to_json(self):
        return {"invariant_factors": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, obj):
        """Parse the to_json format; anything but a list of integers raises
        ParseError."""
        factors = obj.get("invariant_factors") if isinstance(obj, dict) else None
        if not isinstance(factors, list) or not all(type(m) is int for m in factors):
            raise ParseError("invariant_factors must be a list of integers, got %r"
                             % (factors,))
        return cls(factors)


def is_integer(x):
    """Whether x is a Python or numpy integer; bools are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_instance(x, cls, what):
    """Refuse with ShapeMismatch, naming what, unless x is an instance of cls."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ShapeMismatch("%s must be %s %s, got %s"
                            % (what, article, cls.__name__, type(x).__name__))


def rows_as_tuples(arr):
    """The rows of a 2-d integer array as a tuple of int tuples.  The array
    is decoded one column at a time, so no Python list is built per row; an
    array with no columns gives one () per row."""
    if not arr.shape[1]:
        return ((),) * len(arr)
    return tuple(zip(*arr.T.tolist()))


def _frozen(table):
    arr = np.array(table, dtype=np.int64)
    arr.flags.writeable = False
    return arr

