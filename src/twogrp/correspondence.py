"""The correspondence between the Duskin nerve of a skeletal 2-group and
the homotopy-fiber model of its associator.

Both sides are built as truncated simplicial sets: the Duskin nerve from
coherence data of G_alpha, the fiber model both explicitly (with the cells
and face values of the pullback of the cocycle map along the decalage) and
generically (as a level-wise fiber product).  The canonical isomorphism is
produced in coordinates and machine-checked, along with simplicial
validity, agreement of the two pullback constructions, and the Kan
property of the nerve.

Alpha enters only level 3 of the two models (d_0 there), so levels 0-2
are built once per (G, A) as a 2-truncated frame (_frame, an lru_cache),
and each model is a 3-truncated set on that base (simplicial.TruncatedSSet
with base=).  Checks keep their results on the object that owns the
arrays they read (simplicial._owner), so verify_theorem checks the frame
and the cached nerve, W, Wbar and decalage for every alpha but does that
work once per (G, A), with the same witnesses.

Cells are mixed-radix codes of their coordinates in the order the
docstrings list them (elements of G, then element indices of A), so every
table and map component here is one gather over an open index grid of
(f, g, h, t1, t2, t3) with G's multiplication table, A's addition,
subtraction tables and alpha's value indices.
"""

import functools

import numpy as np

from .errors import DegreeMismatch, IndexOutOfRange
from .simplicial import (
    CACHE_SIZE,
    Horn,
    SimplicialMap,
    TruncatedSSet,
    _guard_level,
    cocycle_as_map,
    decalage_map,
    encode,
    fiber_product,
    filler_counts,
    flat,
    grid,
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


def _code2(G, A, f, g, a):
    """The index of the 2-cell (f, g, a) of either model."""
    return encode((f, g, a), (G.order, G.order, A.order))


def _code3(G, A, f, g, h, a, b, c):
    """The index of the 3-cell of either model with coordinates
    (f, g, h, a, b, c) in G^3 x A^3."""
    return encode((f, g, h, a, b, c), (G.order,) * 3 + (A.order,) * 3)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _frame(G, A):
    """Levels 0-2 of both models, which alpha does not enter: one point,
    the elements of G, and 2-cells (f, g, a) with faces g, fg, f."""
    ng, na = G.order, A.order
    shape2 = (ng, ng, na)
    f, g, _a = grid(shape2)
    f1 = np.arange(ng, dtype=np.int64)
    levels = [range(1), range(ng), range(ng * ng * na)]
    faces = {
        (1, 0): np.zeros(ng, dtype=np.int64),
        (1, 1): np.zeros(ng, dtype=np.int64),
        (2, 0): flat(g, shape2),
        (2, 1): flat(G.table_array[f, g], shape2),
        (2, 2): flat(f, shape2),
    }
    degeneracies = {
        (0, 0): np.zeros(1, dtype=np.int64),
        (1, 0): _code2(G, A, 0, f1, 0),
        (1, 1): _code2(G, A, f1, 0, 0),
    }
    return TruncatedSSet(2, levels, faces, degeneracies)


def _model(G, A, faces3, degeneracies3):
    """A 3-truncated model shaped like the nerve of G with coordinates in A
    carried along: the shared frame of (G, A) below level 3, and the
    tables of the 3-cells, whose coordinates are (f, g, h) in G^3 and three
    in A."""
    level3 = range(G.order**3 * A.order**3)
    return TruncatedSSet(3, [level3], faces3, degeneracies3, base=_frame(G, A))


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
    G, A, alpha = skeleton.group, skeleton.coeffs, skeleton.alpha
    ng, na = G.order, A.order
    _guard_level(ng**3 * na**3)
    T, Add, Sub = G.table_array, A.add_array, A.sub_array
    V = alpha.index_array().reshape((ng,) * 3)
    shape3 = (ng, ng, ng, na, na, na)
    f, g, h, t1, t2, t3 = grid(shape3)
    t0 = Sub[Add[V[f, g, h], Add[t1, t3]], t2]
    faces3 = {
        (3, 0): flat(_code2(G, A, g, h, t0), shape3),
        (3, 1): flat(_code2(G, A, T[f, g], h, t1), shape3),
        (3, 2): flat(_code2(G, A, f, T[g, h], t2), shape3),
        (3, 3): flat(_code2(G, A, f, g, t3), shape3),
    }
    # s_i(f, g, t) is (0, f, g, t, t, 0, 0), (f, 0, g, 0, t, t, 0) or
    # (f, g, 0, 0, 0, t, t); its t0 is as listed because alpha is normalized
    shape2 = (ng, ng, na)
    f, g, t = grid(shape2)
    degeneracies3 = {
        (2, 0): flat(_code3(G, A, 0, f, g, t, 0, 0), shape2),
        (2, 1): flat(_code3(G, A, f, 0, g, t, t, 0), shape2),
        (2, 2): flat(_code3(G, A, f, g, 0, 0, t, t), shape2),
    }
    return _model(G, A, faces3, degeneracies3)


def pullback_model(skeleton):
    """The explicit homotopy-fiber model: one point, 1-cells the elements
    of G, 2-cells (f, g, a), and 3-cells (f, g, h, a, b, c) whose faces
    carry a+d, a+b, b+c and c with d = alpha(f, g, h)."""
    G, A, alpha = skeleton.group, skeleton.coeffs, skeleton.alpha
    ng, na = G.order, A.order
    _guard_level(ng**3 * na**3)
    T, Add = G.table_array, A.add_array
    V = alpha.index_array().reshape((ng,) * 3)
    shape3 = (ng, ng, ng, na, na, na)
    f, g, h, a, b, c = grid(shape3)
    faces3 = {
        (3, 0): flat(_code2(G, A, g, h, Add[a, V[f, g, h]]), shape3),
        (3, 1): flat(_code2(G, A, T[f, g], h, Add[a, b]), shape3),
        (3, 2): flat(_code2(G, A, f, T[g, h], Add[b, c]), shape3),
        (3, 3): flat(_code2(G, A, f, g, c), shape3),
    }
    shape2 = (ng, ng, na)
    f, g, a = grid(shape2)
    degeneracies3 = {
        (2, 0): flat(_code3(G, A, 0, f, g, a, 0, 0), shape2),
        (2, 1): flat(_code3(G, A, f, 0, g, 0, a, 0), shape2),
        (2, 2): flat(_code3(G, A, f, g, 0, 0, 0, a), shape2),
    }
    return _model(G, A, faces3, degeneracies3)


def canonical_iso(duskin, pullback, coeffs):
    """The coordinate isomorphism from the Duskin nerve to the explicit
    pullback model: identity below level 3, and on 3-cells

        a = t1 - t2 + t3,  b = t2 - t3,  c = t3.
    """
    A = coeffs
    ng, na = duskin.size(1), A.order
    Add, Sub = A.add_array, A.sub_array
    shape3 = (ng**3, na, na, na)
    fgh, t1, t2, t3 = grid(shape3)
    a = Add[Sub[t1, t2], t3]
    b = Sub[t2, t3]
    comps = [
        np.zeros(1, dtype=np.int64),
        np.arange(duskin.size(1), dtype=np.int64),
        np.arange(duskin.size(2), dtype=np.int64),
        flat(encode((fgh, a, b, t3), shape3), shape3),
    ]
    return SimplicialMap(duskin, pullback, comps)


class TheoremReport:
    """Per-stage outcome of the end-to-end verification."""

    def __init__(self, group, coeffs):
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
    round_trip = inv.compose(iso)
    report.record(
        "iso:round_trip",
        all(
            np.array_equal(a, b)
            for a, b in zip(round_trip.components, identity_map(duskin).components)
        ),
    )

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
    same_composite = all(
        np.array_equal(
            amap.components[n][to_ng.components[n]],
            dec.components[n][to_w.components[n]],
        )
        for n in range(4)
    )
    report.record("agreement:composites_match", same_composite)
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
    cells = [np.arange(model.size(n), dtype=np.int64) for n in range(4)]
    comps = [cells[0], cells[1], cells[2] // na, cells[3] // na**3]
    return SimplicialMap(model, NG, comps)


def _model_to_w(model, W, skeleton):
    """Project the explicit model onto its W(B^2 A) coordinates: (f, g, a)
    goes to ((a,), (), ()) and (f, g, h, a, b, c) to ((a, b, c), (d,), (), ())
    with d = alpha(f, g, h)."""
    na = skeleton.coeffs.order
    values = skeleton.alpha.index_array()
    cells2 = np.arange(model.size(2), dtype=np.int64)
    cells3 = np.arange(model.size(3), dtype=np.int64)
    comps = [
        np.zeros(1, dtype=np.int64),
        np.zeros(model.size(1), dtype=np.int64),
        cells2 % na,
        (cells3 % na**3) * na + values[cells3 // na**3],
    ]
    return SimplicialMap(model, W, comps)
