"""Skeletal 2-groups from normalized 3-cocycles.

A skeleton has objects the elements of a finite group G, only identity
1-morphisms, and 2-morphism data in an abelian group A; the associator is a
normalized 3-cochain alpha.  Coherence is checked by evaluating both routes
around each diagram at every cell at once, as gathers over alpha's residue
array with G's multiplication table, and reporting the lexicographically
first cell where they differ.  The pentagon sums its five terms in one
array over G^4: each product is a gather of alpha along one axis through
G's flat table, each other term a broadcast of alpha.  The checks never
call coboundary or is_cocycle and read no nerve table or cache, so the two
certificates stay independent.
"""

import numpy as np

from .cochain import Cochain, _check_cells, is_cocycle
from .coeff import check_instance, rows_as_tuples
from .errors import DegreeMismatch, NotACocycle, NotNormalized, SizeBound

# duality_data lists up to |A| pairs; 2^16 of them take about 25 MiB
MAX_DUALITY_PAIRS = 2**16


class TwoGroupSkeleton:
    """G_alpha: group of objects, coefficient group of 2-cell data, and the
    associator cochain."""

    def __init__(self, alpha):
        _check_associator(alpha)
        witness = alpha.normalization_witness()
        if witness is not None:
            raise NotNormalized(witness)
        ok, witness = is_cocycle(alpha)
        if not ok:
            raise NotACocycle(witness)
        self.group = alpha.group
        self.coeffs = alpha.coeffs
        self.alpha = alpha

    def associator(self, x, y, z):
        return self.alpha.value((x, y, z))

    def __repr__(self):
        return "TwoGroupSkeleton(|G|=%d, A=%s)" % (
            self.group.order,
            list(self.coeffs.invariant_factors),
        )


def _first_nonzero(residues):
    """(True, None) if residues, one row of residues per cell along the
    last axis, vanish at every cell, else (False, the first cell in
    lexicographic order where they do not)."""
    bad = np.flatnonzero(residues.any(axis=-1))
    if not bad.size:
        return True, None
    return False, tuple(int(i) for i in np.unravel_index(bad[0], residues.shape[:-1]))


def _first_mismatch(lhs, rhs, A):
    """(True, None) if lhs == rhs in A at every cell, else (False, the
    first cell in lexicographic order where they differ)."""
    return _first_nonzero((lhs - rhs) % A.moduli)


def _check_associator(alpha):
    check_instance(alpha, Cochain, "the associator")
    if alpha.degree != 3:
        raise DegreeMismatch("associator must be a degree-3 cochain")


def check_pentagon(alpha):
    """Evaluate both reassociation routes ((wx)y)z ~> w(x(yz)).

    Route A goes through (wx)(yz) in two steps; route B goes through
    (w(xy))z and w((xy)z) in three.  Returns (True, None) or (False,
    (w, x, y, z)) for the lexicographically first mismatch.
    """
    _check_associator(alpha)
    G, A = alpha.group, alpha.coeffs
    N, k = G.order, len(A.moduli)
    _check_cells(N**4, "the pentagon grid")
    # the defect alpha(wx,y,z) + alpha(w,x,yz) - alpha(w,x,y) - alpha(w,xy,z)
    # - alpha(x,y,z) at every (w, x, y, z); each product is a gather along
    # one axis through the flat table T, each other term a broadcast
    T, R, cells = G.table_array.ravel(), alpha.residues, (N,) * 4 + (k,)
    defect = R.reshape(N, N * N, k)[T].reshape(cells)
    defect += R.reshape(N * N, N, k)[:, T].reshape(cells)
    defect -= R.reshape(N, N, N, 1, k)
    defect -= R.reshape(N, N, N, k)[:, T].reshape(cells)
    defect -= R.reshape(1, N, N, N, k)
    defect %= A.moduli
    return _first_nonzero(defect)


def check_triangle(alpha):
    """The unit coherence (x . e) . y ~> x . (e . y): both whiskered unitor
    routes agree iff alpha(x, e, y) vanishes."""
    _check_associator(alpha)
    unit_cells = alpha.cube()[:, 0, :]
    return _first_mismatch(unit_cells, 0, alpha.coeffs)


def check_zigzag(alpha, x, ev, coev):
    """Whether (ev, coev) in A^2 make the element x dualizable with dual
    x^{-1}: both snake composites must reduce to identity 2-cells.

    The left snake (id_x . ev) o (coev . id_x) picks up the associator
    alpha(x, x^{-1}, x); the right snake picks up alpha(x^{-1}, x, x^{-1})
    with the opposite orientation.
    """
    _check_associator(alpha)
    G, A = alpha.group, alpha.coeffs
    A.check(ev)
    A.check(coev)
    xbar = G.inv(x)
    zero = A.zero
    left = A.add(A.add(coev, alpha.value((x, xbar, x))), ev)
    right = A.add(A.sub(coev, alpha.value((xbar, x, xbar))), ev)
    return left == zero and right == zero


def duality_data(alpha, x):
    """All (ev, coev) pairs witnessing duality of x against x^{-1}, ev in
    A.elements() order.  The two zigzags of check_zigzag force
    ev + coev = -alpha(x, x^{-1}, x) and ev + coev = alpha(x^{-1}, x, x^{-1}),
    so pairs exist iff these agree, and then coev = that sum - ev.  Refused
    with SizeBound when |A| exceeds MAX_DUALITY_PAIRS."""
    _check_associator(alpha)
    A = alpha.coeffs
    if A.order > MAX_DUALITY_PAIRS:
        raise SizeBound("duality data has up to |A| = %d pairs, above the bound %d"
                        % (A.order, MAX_DUALITY_PAIRS))
    xbar = alpha.group.inv(x)
    left = alpha.residues[alpha.flat_index((x, xbar, x))]
    right = alpha.residues[alpha.flat_index((xbar, x, xbar))]
    if ((left + right) % A.moduli).any():
        return []
    evs = A.elements()
    coevs = right - np.array(evs, dtype=np.int64).reshape(A.order, len(A.moduli))
    return list(zip(evs, rows_as_tuples(coevs % A.moduli)))


def check_duality(alpha):
    """Every object of a skeletal 2-group is dualizable; verify that each x
    admits at least one (ev, coev) pair.  Returns (ok, witness_object)."""
    _check_associator(alpha)
    for x in range(alpha.group.order):
        if not duality_data(alpha, x):
            return False, x
    return True, None


def monoidal_functor_check(alpha_src, alpha_dst, j):
    """Whether the 2-cochain j makes the identity-on-objects functor
    monoidal from G_{alpha_src} to G_{alpha_dst}.

    The hexagon for the structure cells reads, additively,
        j(x, y) + j(xy, z) + alpha_dst(x, y, z)
            = alpha_src(x, y, z) + j(y, z) + j(x, yz).
    Returns (True, None) or (False, (x, y, z)).
    """
    _check_associator(alpha_src)
    alpha_src._compat(alpha_dst)
    check_instance(j, Cochain, "the structure cells")
    if j.degree != 2 or j.group != alpha_src.group or j.coeffs != alpha_src.coeffs:
        raise DegreeMismatch("structure cells must form a degree-2 cochain")
    T, J = j.group.table_array, j.cube()
    x, y, z = np.ogrid[(slice(0, j.group.order),) * 3]
    lhs = J[x, y] + J[T[x, y], z] + alpha_dst.cube()
    rhs = alpha_src.cube() + J[y, z] + J[x, T[y, z]]
    return _first_mismatch(lhs, rhs, j.coeffs)
