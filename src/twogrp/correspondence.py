"""The correspondence between the Duskin nerve of a skeletal 2-group and
the homotopy-fiber model of its associator.

Both sides are built as truncated simplicial sets: the Duskin nerve from
coherence data of G_alpha, the fiber model both explicitly (with the cells
and face values of the pullback of the cocycle map along the decalage) and
generically (as a level-wise fiber product).  The canonical isomorphism is
produced in coordinates and machine-checked, along with simplicial
validity, agreement of the two pullback constructions, and the Kan
property of the nerve.

Alpha enters only level 3 of the two models (d_0 there), and levels 0-2
read only the nerve of G and the order of A, so they are built once per
nerve object and |A| as a 2-truncated frame (_frame, kept on the nerve),
and each model is a 3-truncated set on that base (simplicial.TruncatedSSet
with base=).  Every map here is built by simplicial._map_by_levels, whose
alpha-free levels 0-2 form a base map built once and kept on levels 0-2 of
its source: the canonical iso shares the frame's identity, and the
model's projections to the nerve and to W sit on maps from the frame.
The fiber product, its projections, the inverse and the mediating map
follow their bases, and the round trip and the two composites compare
levels 0-2 once per set of bases (simplicial._composites_agree).
Checks keep their results on the object that owns the arrays they read
(simplicial._lower, and the base maps), so verify_theorem checks the
frame, the base maps and the cached nerve, W, Wbar and decalage for every
alpha but does that work once per frame or per cached object, with the
same witnesses; each class checks and compares only its own level 3.

Cells are mixed-radix codes of their coordinates in the order the
docstrings list them (elements of G, then element indices of A), so a
model's cell is a cell of the nerve of G with A's coordinates appended as
the least significant digits: a 2-cell is the nerve's 2-cell times |A| plus
a, a 3-cell the nerve's 3-cell times |A|^3 plus the code of its three
A-coordinates.  Every table reads G's part off the cached nerve_bg(G, 3),
whose face rule is the one in simplicial.nerve_face, and computes A's part
with A's addition and subtraction tables and alpha's value indices; no
table here multiplies through G's table.
"""

import numpy as np

from .cochain import Cochain
from .coeff import AbelianGroup, check_instance
from .errors import DegreeMismatch, IndexOutOfRange, ShapeMismatch
from .group import FiniteGroup
from .simplicial import (
    Horn,
    TruncatedSSet,
    _cached,
    _composites_agree,
    _guard_level,
    _map_by_levels,
    cocycle_as_map,
    decalage_map,
    encode,
    fiber_product,
    filler_counts,
    identity_map,
    inverse_map,
    is_isomorphism,
    is_kan,
    mediating_map,
    nerve_bg,
    validate_simplicial,
    w_b2a,
    wbar_b2a,
)
from .twogroup import TwoGroupSkeleton


def _frame(NG, na):
    """Levels 0-2 of both models, which alpha does not enter: levels 0 and
    1 of the nerve NG of G, and 2-cells (f, g, a), the nerve's 2-cell
    (f, g) followed by the digit a in range(na), with faces g, fg, f.  Kept
    on the nerve object, the one thing it reads besides na."""

    def build():
        levels = [NG.levels[0], NG.levels[1], range(NG.size(2) * na)]
        faces = {(1, i): NG.faces[(1, i)] for i in range(2)}
        faces.update({(2, i): np.repeat(NG.faces[(2, i)], na) for i in range(3)})
        degeneracies = {(0, 0): NG.degeneracies[(0, 0)]}
        degeneracies.update({(1, i): NG.degeneracies[(1, i)] * na for i in range(2)})
        return TruncatedSSet(2, levels, faces, degeneracies)

    return _cached(NG, ("frame", na), build)


def _model(G, A, faces3, degeneracies3):
    """A 3-truncated model shaped like the nerve of G with coordinates in A
    carried along: the shared frame of (G, A) below level 3, and the
    tables of the 3-cells, whose coordinates are (f, g, h) in G^3 and three
    in A."""
    level3 = range(G.order**3 * A.order**3)
    frame = _frame(nerve_bg(G, 3), A.order)
    return TruncatedSSet(3, [level3], faces3, degeneracies3, base=frame)


def _model_on_nerve(G, A, face_digits, degeneracy_digits):
    """_model with G's coordinates read off the nerve of G and A's appended
    as the least significant digits: d_i of the 3-cell (fgh, x1, x2, x3) is
    the nerve's d_i of fgh and the digit face_digits(fgh, x1, x2, x3)[i], and
    s_i of the 2-cell (fg, t) the nerve's s_i of fg and the three digits
    degeneracy_digits(t)[i].  A table is the outer sum of a column of the
    nerve's cells, scaled, and a row of digits: fgh and fg are columns of
    the nerve's cells, x1, x2, x3 the digit rows of the codes of A^3 and t
    the row of A's elements."""
    NG, na = nerve_bg(G, 3), A.order
    fgh, fg = (np.arange(NG.size(n), dtype=np.int64)[:, None] for n in (3, 2))
    x, t = _digit_rows(na, 3), np.arange(na, dtype=np.int64)
    digits3, digits2 = face_digits(fgh, *x), degeneracy_digits(t)
    faces3 = {(3, i): (NG.faces[(3, i)][fgh] * na + digits3[i]).ravel() for i in range(4)}
    degeneracies3 = {(2, i): (NG.degeneracies[(2, i)][fg] * na**3
                              + encode(digits2[i], (na,) * 3)).ravel() for i in range(3)}
    return _model(G, A, faces3, degeneracies3)


def _digit_rows(na, k):
    """The k digits of the codes range(na**k), most significant first, as
    k rows."""
    return np.unravel_index(np.arange(na**k, dtype=np.int64), (na,) * k)


def duskin_nerve(skeleton):
    """The Duskin nerve of G_alpha, truncated at level 3.

    Cells: one point; 1-cells the objects of G; 2-cells (f, g, t) with edge
    01 = f, edge 12 = g, edge 02 = fg and interior 2-morphism t in A;
    3-cells (f, g, h, t0, t1, t2, t3) carrying one 2-morphism per face,
    subject to the compositor identity

        t0 + t2 = alpha(f, g, h) + t1 + t3,

    the two routes through the interior of the tetrahedron.  A 3-cell is
    indexed by (f, g, h, t1, t2, t3); t0 is solved for.
    """
    check_instance(skeleton, TwoGroupSkeleton, "the skeleton")
    G, A, alpha = skeleton.group, skeleton.coeffs, skeleton.alpha
    _guard_level(G.order**3 * A.order**3)
    Add, Sub = A.add_array, A.sub_array
    V = alpha.index_array()

    def faces(fgh, t1, t2, t3):
        return Sub[Add[V[fgh], Add[t1, t3]], t2], t1, t2, t3

    # s_i(f, g, t) is (0, f, g, t, t, 0, 0), (f, 0, g, 0, t, t, 0) or
    # (f, g, 0, 0, 0, t, t); its t0 is as listed because alpha is normalized
    return _model_on_nerve(G, A, faces, lambda t: ((t, 0, 0), (t, t, 0), (0, t, t)))


def pullback_model(skeleton):
    """The explicit homotopy-fiber model: one point, 1-cells the elements
    of G, 2-cells (f, g, a), and 3-cells (f, g, h, a, b, c) whose faces
    carry a+d, a+b, b+c and c with d = alpha(f, g, h)."""
    check_instance(skeleton, TwoGroupSkeleton, "the skeleton")
    G, A, alpha = skeleton.group, skeleton.coeffs, skeleton.alpha
    _guard_level(G.order**3 * A.order**3)
    Add = A.add_array
    V = alpha.index_array()

    def faces(fgh, a, b, c):
        return Add[a, V[fgh]], Add[a, b], Add[b, c], c

    return _model_on_nerve(G, A, faces, lambda a: ((a, 0, 0), (0, a, 0), (0, 0, a)))


def canonical_iso(duskin, pullback, coeffs):
    """The coordinate isomorphism from the Duskin nerve to the explicit
    pullback model: identity below level 3, and on 3-cells

        a = t1 - t2 + t3,  b = t2 - t3,  c = t3.
    """
    check_instance(duskin, TruncatedSSet, "the Duskin nerve")
    check_instance(pullback, TruncatedSSet, "the pullback model")
    check_instance(coeffs, AbelianGroup, "the coefficients")
    A = coeffs
    ng, na = duskin.size(1), A.order
    if duskin.size(3) != ng**3 * na**3:
        raise ShapeMismatch("%d level-3 cells, not |G|^3 |A|^3 = %d for A = %r"
                            % (duskin.size(3), ng**3 * na**3, A))
    Add, Sub = A.add_array, A.sub_array
    t1, t2, t3 = _digit_rows(na, 3)
    a = Add[Sub[t1, t2], t3]
    b = Sub[t2, t3]
    level3 = np.add.outer(np.arange(ng**3, dtype=np.int64) * na**3,
                          encode((a, b, t3), (na,) * 3)).ravel()
    # on the identity of the models' shared frame, or from level 0
    return _map_by_levels(duskin, pullback, 2, "identity", lambda n: level3 if n == 3
                          else np.arange(duskin.size(n), dtype=np.int64))


class TheoremReport:
    """Per-stage outcome of the end-to-end verification."""

    def __init__(self, group, coeffs):
        check_instance(group, FiniteGroup, "the group")
        check_instance(coeffs, AbelianGroup, "the coefficients")
        self.group = group
        self.coeffs = coeffs
        self.stages = []
        self.counts = {}

    @property
    def ok(self):
        return all(st["ok"] for st in self.stages)

    def record(self, name, ok, witness=None):
        self.stages.append(
            {"name": name, "ok": bool(ok), "witness": _plainify(witness)}
        )
        return ok

    def to_json(self):
        return {
            "group": {"name": self.group.name, "order": self.group.order},
            "coeffs": list(self.coeffs.invariant_factors),
            "ok": self.ok,
            "stages": self.stages,
            "counts": self.counts,
        }


def _plainify(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Horn):
        return obj.to_json()
    if isinstance(obj, (tuple, list)):
        return [_plainify(x) for x in obj]
    return repr(obj)


def verify_theorem(alpha):
    """Machine-check that the Duskin nerve of G_alpha is isomorphic to the
    pullback of the cocycle map along the decalage, stage by stage."""
    check_instance(alpha, Cochain, "the associator")
    if alpha.degree != 3:
        raise DegreeMismatch("expected a degree-3 cochain")
    G, A = alpha.group, alpha.coeffs
    # the models' level 3 is refused before the skeleton checks alpha over G^4
    _guard_level(G.order**3 * A.order**3)
    report = TheoremReport(G, A)

    # construction: skeleton validation plus all simplicial objects
    skeleton = TwoGroupSkeleton(alpha)
    duskin = duskin_nerve(skeleton)
    model = pullback_model(skeleton)
    NG = nerve_bg(G, 3)
    W = w_b2a(A, 3)
    Wb = wbar_b2a(A, 3)
    dec = decalage_map(A, 3)
    amap = cocycle_as_map(alpha, 3)
    report.record("construction", True)
    for X, tag in ((duskin, "duskin"), (model, "pullback"), (W, "w"), (Wb, "wbar")):
        report.counts["%s_levels" % tag] = [X.size(n) for n in range(4)]

    # simplicial validity of every object and map involved
    for X, tag in ((duskin, "duskin"), (model, "pullback"), (NG, "nerve"), (W, "w"),
                   (Wb, "wbar")):
        ok, witness = validate_simplicial(X)
        report.record("simplicial:%s" % tag, ok, witness)
    ok, witness = dec.validate()
    report.record("map:decalage", ok, witness)
    ok, witness = amap.validate()
    report.record("map:cocycle_map", ok, witness)
    amap4 = cocycle_as_map(alpha, 4)
    ok, witness = amap4.validate()
    report.record("map:cocycle_map_level4", ok, witness)

    # the canonical isomorphism and its inverse
    iso = canonical_iso(duskin, model, A)
    ok, witness = iso.validate()
    report.record("iso:forward", ok, witness)
    report.record("iso:bijective", is_isomorphism(iso))
    inv = inverse_map(iso)
    ok, witness = inv.validate()
    report.record("iso:backward", ok, witness)
    ident = identity_map(duskin)
    report.record("iso:round_trip", _composites_agree(inv, iso, ident, ident))

    # the explicit model agrees with the generic fiber product; when a map
    # leaves it, the stages that need it fail with the error as witness
    to_ng = _model_to_nerve(model, NG, skeleton)
    to_w = _model_to_w(model, W, skeleton)
    fiber = med = None
    try:
        P, proj_ng, proj_w = fiber_product(amap, dec)
    except IndexOutOfRange as exc:
        error = str(exc)
    else:
        report.counts["fiber_product_levels"] = [P.size(n) for n in range(4)]
        fiber = validate_simplicial(P)
        try:
            med = mediating_map(P, proj_ng, proj_w, to_ng, to_w)
        except IndexOutOfRange as exc:
            error = str(exc)
    ok, witness = fiber or (False, error)
    report.record("simplicial:fiber_product", ok, witness)
    for f, tag in ((to_ng, "model_to_nerve"), (to_w, "model_to_w")):
        ok, witness = f.validate()
        report.record("map:%s" % tag, ok, witness)
    report.record("agreement:composites_match", _composites_agree(amap, to_ng, dec, to_w))
    if med is None:
        report.record("agreement:mediating_map", False, error)
        report.record("agreement:bijective", False, error)
    else:
        ok, witness = med.validate()
        report.record("agreement:mediating_map", ok, witness)
        report.record("agreement:bijective", is_isomorphism(med))

    # the Kan property of the nerve, with filler counts in degree 2
    ok, witness = is_kan(duskin)
    report.record("kan:duskin", ok, witness)
    counts = [c for missing in range(3) for c in filler_counts(duskin, 2, missing).tolist()]
    report.counts["duskin_degree2_filler_counts"] = sorted(set(counts))
    report.record("kan:degree2_filler_count", all(c == A.order for c in counts))
    return report


def _model_to_nerve(model, NG, skeleton):
    """Forget the A-coordinates of the explicit model: they are the least
    significant digits of its cells."""
    na = skeleton.coeffs.order

    def level(n):
        if n < 3:
            return np.arange(model.size(n), dtype=np.int64) // (na if n == 2 else 1)
        return np.repeat(np.arange(model.size(3) // na**3, dtype=np.int64), na**3)

    return _map_by_levels(model, NG, 2, ("to nerve", na), level)


def _model_to_w(model, W, skeleton):
    """Project the explicit model onto its W(B^2 A) coordinates: (f, g, a)
    goes to ((a,), (), ()) and (f, g, h, a, b, c) to ((a, b, c), (d,), (), ())
    with d = alpha(f, g, h)."""
    na = skeleton.coeffs.order
    values = skeleton.alpha.index_array()

    def level(n):
        if n < 2:
            return np.zeros(model.size(n), dtype=np.int64)
        if n == 2:
            return np.arange(model.size(2), dtype=np.int64) % na
        return np.add.outer(values, np.arange(na**3, dtype=np.int64) * na).ravel()

    return _map_by_levels(model, W, 2, ("to w", na), level)
