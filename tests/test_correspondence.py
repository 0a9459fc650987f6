import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from twogrp import correspondence
from twogrp.coeff import AbelianGroup
from twogrp.cochain import Cochain, coboundary, cohomology
from twogrp.correspondence import (
    TheoremReport,
    _frame,
    canonical_iso,
    duskin_nerve,
    pullback_model,
    verify_theorem,
)
from twogrp.errors import DegreeMismatch, DimensionBound, ShapeMismatch
from twogrp.group import cyclic, dihedral, group_construct, symmetric
from twogrp import simplicial
from twogrp.simplicial import (
    SimplicialMap,
    TruncatedSSet,
    decalage_map,
    filler_counts,
    identity_map,
    is_isomorphism,
    is_kan,
    nerve_bg,
    validate_simplicial,
    w_b2a,
    wbar_b2a,
)
from twogrp.twogroup import TwoGroupSkeleton

from oracles import brute_first_unfilled_horn

C2 = cyclic(2)
Z2 = AbelianGroup([2])


def c2_nontrivial():
    return Cochain.from_function(
        C2, Z2, 3, lambda a, b, c: (1,) if a == b == c == 1 else (0,)
    )


def radices(sk, n):
    """The radices of the level-n cells (n = 2, 3) of either model, in the
    order the docstrings list the coordinates: (f, g, a) and
    (f, g, h, a, b, c), the A-coordinates as element indices."""
    return (sk.group.order,) * n + (sk.coeffs.order,) * {2: 1, 3: 3}[n]


def decode(sk, n, x):
    """The coordinates of cell x of level n, A-coordinates as elements."""
    digits = [int(d) for d in np.unravel_index(x, radices(sk, n))]
    els = sk.coeffs.elements()
    return tuple(digits[:n]) + tuple(els[d] for d in digits[n:])


def encode(sk, n, coords):
    """The cell of level n with the given coordinates, A-coordinates as
    elements."""
    digits = tuple(coords[:n]) + tuple(sk.coeffs.index(e) for e in coords[n:])
    return int(np.ravel_multi_index(digits, radices(sk, n)))


def s3_nonzero():
    """A nonzero class of H^3(S3, Z3): G is not abelian and a != -a in A."""
    res = cohomology(symmetric(3), AbelianGroup([3]), 3)
    return res.lex_minimal_representative(res.cochain_from_coordinates((1,)))


def identity_of(G):
    """The identity of G, found through G.mul: its only idempotent."""
    return next(x for x in range(G.order) if G.mul(x, x) == x)


def test_duskin_nerve_sizes_and_validity():
    sk = TwoGroupSkeleton(c2_nontrivial())
    X = duskin_nerve(sk)
    assert [X.size(n) for n in range(4)] == [1, 2, 8, 64]
    ok, why = validate_simplicial(X)
    assert ok, why


def test_duskin_compositor_constraint():
    for alpha in (c2_nontrivial(), s3_nonzero()):
        check_duskin_cells(TwoGroupSkeleton(alpha))


def check_duskin_cells(sk):
    X = duskin_nerve(sk)
    G, A, alpha = sk.group, sk.coeffs, sk.alpha
    for x in range(X.size(3)):
        # a 3-cell is coded by (f, g, h, t1, t2, t3); t0 is read off d0
        f, g, h, t1, t2, t3 = decode(sk, 3, x)
        g0, h0, t0 = decode(sk, 2, X.face(3, 0, x))
        lhs = A.add(t0, t2)
        rhs = A.add(alpha.value((f, g, h)), A.add(t1, t3))
        assert lhs == rhs
        # each face extracts the 2-morphism attached to it
        assert (g0, h0) == (g, h)
        assert decode(sk, 2, X.face(3, 1, x)) == (G.mul(f, g), h, t1)
        assert decode(sk, 2, X.face(3, 2, x)) == (f, G.mul(g, h), t2)
        assert decode(sk, 2, X.face(3, 3, x)) == (f, g, t3)
    # s_i inserts the identity and repeats t on the faces next to it; the
    # solved t0 of s_i(f, g, t) is t, 0 and 0
    e, zero = identity_of(G), A.zero
    for x in range(X.size(2)):
        f, g, t = decode(sk, 2, x)
        degenerate = [X.degeneracy(2, i, x) for i in range(3)]
        assert [decode(sk, 3, y) for y in degenerate] == [
            (e, f, g, t, zero, zero), (f, e, g, t, t, zero), (f, g, e, zero, t, t)]
        assert [decode(sk, 2, X.face(3, 0, y))[2] for y in degenerate] == [t, zero, zero]


def test_pullback_model_faces():
    for alpha in (c2_nontrivial(), s3_nonzero()):
        check_pullback_cells(TwoGroupSkeleton(alpha))


def check_pullback_cells(sk):
    X = pullback_model(sk)
    G, A, alpha = sk.group, sk.coeffs, sk.alpha
    n, m = G.order, A.order
    assert [X.size(k) for k in range(4)] == [1, n, n**2 * m, n**3 * m**3]
    for x in range(X.size(3)):
        f, g, h, a, b, c = decode(sk, 3, x)
        d = alpha.value((f, g, h))
        assert decode(sk, 2, X.face(3, 0, x)) == (g, h, A.add(a, d))
        assert decode(sk, 2, X.face(3, 1, x)) == (G.mul(f, g), h, A.add(a, b))
        assert decode(sk, 2, X.face(3, 2, x)) == (f, G.mul(g, h), A.add(b, c))
        assert decode(sk, 2, X.face(3, 3, x)) == (f, g, c)
    # s_i(f, g, a) inserts the identity and puts a in slot i
    e, zero = identity_of(G), A.zero
    for x in range(X.size(2)):
        f, g, a = decode(sk, 2, x)
        assert [decode(sk, 3, X.degeneracy(2, i, x)) for i in range(3)] == [
            (e, f, g, a, zero, zero), (f, e, g, zero, a, zero), (f, g, e, zero, zero, a)]


def test_canonical_iso_round_trip_labels():
    sk = TwoGroupSkeleton(c2_nontrivial())
    D = duskin_nerve(sk)
    P = pullback_model(sk)
    iso = canonical_iso(D, P, sk.coeffs)
    ok, why = iso.validate()
    assert ok, why
    assert is_isomorphism(iso)
    A = sk.coeffs
    for x in range(D.size(3)):
        f, g, h, t1, t2, t3 = decode(sk, 3, x)
        fp, gp, hp, a, b, c = decode(sk, 3, iso(3, x))
        assert (fp, gp, hp) == (f, g, h)
        # invert the coordinate change
        assert c == t3
        assert A.add(b, c) == t2
        assert A.add(a, b) == t1


def test_compose_refuses_models_of_other_classes():
    # P0 and P1 share their frame and level sizes but not d0 on level 3, so
    # no map into P1 composes with a map out of P0
    sk0 = TwoGroupSkeleton(Cochain.zero(C2, Z2, 3))
    sk1 = TwoGroupSkeleton(c2_nontrivial())
    P0, P1 = pullback_model(sk0), pullback_model(sk1)
    iso1 = canonical_iso(duskin_nerve(sk1), P1, Z2)
    with pytest.raises(ShapeMismatch):
        identity_map(P0).compose(iso1)
    # a copy of P1 with equal tables is the same set
    copy = TruncatedSSet.from_json(P1.to_json())
    composed = identity_map(copy).compose(iso1)
    assert composed.validate() == (True, None)


@pytest.mark.parametrize(
    "G,factors",
    [(C2, [2]), (cyclic(3), [3]), (dihedral(3), [2]), (cyclic(4), [2, 2])],
)
def test_verify_theorem_all_classes(G, factors):
    A = AbelianGroup(factors)
    res = cohomology(G, A, 3)
    for coords in res.all_class_coordinates():
        alpha = res.lex_minimal_representative(res.cochain_from_coordinates(coords))
        report = verify_theorem(alpha)
        assert report.ok, [s for s in report.stages if not s["ok"]]
        n3 = G.order**3 * A.order**3
        assert report.counts["duskin_levels"] == [1, G.order, G.order**2 * A.order, n3]
        assert report.counts["pullback_levels"] == report.counts["duskin_levels"]
        assert report.counts["fiber_product_levels"] == report.counts["duskin_levels"]
        assert report.counts["duskin_degree2_filler_counts"] == [A.order]


STAGE_NAMES = [
    "construction", "simplicial:duskin", "simplicial:pullback", "simplicial:nerve",
    "simplicial:w", "simplicial:wbar", "map:decalage", "map:cocycle_map",
    "map:cocycle_map_level4", "iso:forward", "iso:bijective", "iso:backward",
    "iso:round_trip", "simplicial:fiber_product", "map:model_to_nerve", "map:model_to_w",
    "agreement:composites_match", "agreement:mediating_map", "agreement:bijective",
    "kan:duskin", "kan:degree2_filler_count",
]


def test_report_shape():
    report = verify_theorem(c2_nontrivial())
    obj = report.to_json()
    assert obj["ok"] is True
    assert [s["name"] for s in obj["stages"]] == STAGE_NAMES
    assert obj["coeffs"] == [2]


def test_verify_theorem_rejects_wrong_degree():
    with pytest.raises(DegreeMismatch):
        verify_theorem(Cochain.zero(C2, Z2, 2))


def pullback_twist(sk_src, sk_dst, beta):
    """The isomorphism of explicit models induced by alpha' = alpha + d(beta):
    identity on edges, (f, g, a) -> (f, g, a + beta(f, g)) on 2-cells."""
    A = sk_src.coeffs
    src = pullback_model(sk_src)
    dst = pullback_model(sk_dst)
    mul = sk_src.group.table

    def b(x, y):
        return beta.value((x, y))

    level2 = []
    for x in range(src.size(2)):
        f, g, a = decode(sk_src, 2, x)
        level2.append(encode(sk_dst, 2, (f, g, A.add(a, b(f, g)))))
    level3 = []
    for x in range(src.size(3)):
        f, g, h, a, bb, c = decode(sk_src, 3, x)
        cp = A.add(c, b(f, g))
        bp = A.add(bb, A.sub(b(f, mul[g][h]), b(f, g)))
        ap = A.add(a, A.add(A.sub(b(mul[f][g], h), b(f, mul[g][h])), b(f, g)))
        level3.append(encode(sk_dst, 3, (f, g, h, ap, bp, cp)))
    comps = [[0], list(range(src.size(1))), level2, level3]
    return SimplicialMap(src, dst, comps)


def test_cohomologous_cocycles_give_isomorphic_models():
    G, A = cyclic(4), AbelianGroup([4])
    res = cohomology(G, A, 3)
    alpha = res.representatives[0]
    beta = Cochain.from_function(
        G, A, 2, lambda x, y: (0,) if 0 in (x, y) else ((x * y + x) % 4,)
    )
    alpha2 = alpha.add(coboundary(beta))
    f = pullback_twist(TwoGroupSkeleton(alpha), TwoGroupSkeleton(alpha2), beta)
    ok, why = f.validate()
    assert ok, why
    assert is_isomorphism(f)


# ---------------------------------------------------------------------------
# the shared 2-truncated frame


def lex_reps(G, A):
    res = cohomology(G, A, 3)
    return [res.lex_minimal_representative(res.cochain_from_coordinates(c))
            for c in res.all_class_coordinates()]


def moved(X, rng, kind, key):
    """A copy of X on X's frame with one seeded entry of a level-3 table
    moved to another in-range cell."""
    faces = {k: v for k, v in X.faces.items() if k[0] == 3}
    degs = {k: v for k, v in X.degeneracies.items() if k[0] == 2}
    tables, bound = (faces, X.size(2)) if kind == "face" else (degs, X.size(3))
    tab = tables[key] = tables[key].copy()
    x = rng.randrange(len(tab))
    tab[x] = (tab[x] + rng.randrange(1, bound)) % bound
    return TruncatedSSet(3, [X.levels[3]], faces, degs, base=X.base)


FRAME_STRATA = [(C2, Z2), (cyclic(3), AbelianGroup([3])), (dihedral(3), Z2)]
CORRUPTIONS = [("face", (3, 0)), ("face", (3, 2)), ("degeneracy", (2, 1))]


def frame_corruptions():
    """Seeded level-3 corruptions of Duskin nerves and pullback models, all
    of one stratum on one frame, so the frame's caches carry over from one
    to the next; the first of each stratum moves a d0 entry of a Duskin
    nerve."""
    rng = random.Random(20261018)
    for G, A in FRAME_STRATA:
        first = True
        for alpha in lex_reps(G, A)[:2]:
            sk = TwoGroupSkeleton(alpha)
            for X in (duskin_nerve(sk), pullback_model(sk)):
                for kind, key in CORRUPTIONS:
                    yield first, X, moved(X, rng, kind, key)
                    first = False


def kan_answer(X):
    ok, horn = is_kan(X)
    return ok, horn and (horn.n, horn.missing, horn.key())


def answers(X):
    return kan_answer(X), validate_simplicial(X)


def test_frame_is_shared():
    sk = TwoGroupSkeleton(c2_nontrivial())
    X, Y = duskin_nerve(sk), pullback_model(sk)
    assert X.base is Y.base and X.base.truncation == 2
    for n in range(3):
        assert X.levels[n] is X.base.levels[n]
    for k, v in X.base.faces.items():
        assert X.faces[k] is v and Y.faces[k] is v
    for k, v in X.base.degeneracies.items():
        assert X.degeneracies[k] is v
    assert X.to_json() == TruncatedSSet.from_json(X.to_json()).to_json()
    # the frame reads only G and |A|: Z4 and Z2^2 share it
    G = cyclic(2)
    over_z4, over_v4 = (duskin_nerve(TwoGroupSkeleton(Cochain.zero(G, AbelianGroup(f), 3)))
                        for f in ([4], [2, 2]))
    assert over_z4.base is over_v4.base is _frame(nerve_bg(G, 3), 4)
    # the identity and the iso sit on the frame's identity, and every class
    # of a stratum gets the model's projection to the nerve on one base;
    # Z4 and Z2^2 share the frame but not W, so not the projection to W
    first, second = (TwoGroupSkeleton(alpha) for alpha in lex_reps(G, AbelianGroup([4]))[:2])
    duskin, model = duskin_nerve(first), pullback_model(first)
    ident = identity_map(duskin)
    assert ident.base is canonical_iso(duskin, model, first.coeffs).base
    assert ident.base.src is duskin.base and ident.base is identity_map(duskin_nerve(second)).base
    NG = nerve_bg(G, 3)
    to_ng = [correspondence._model_to_nerve(pullback_model(sk), NG, sk) for sk in (first, second)]
    assert to_ng[0].base is to_ng[1].base is not None
    to_w = []
    for A in (AbelianGroup([4]), AbelianGroup([2, 2])):
        sk = TwoGroupSkeleton(Cochain.zero(G, A, 3))
        W = w_b2a(A, 3)
        to_w.append(correspondence._model_to_w(pullback_model(sk), W, sk))
        assert to_w[-1].base.src is duskin.base and to_w[-1].base.dst is simplicial._lower(W, 2)
        assert verify_theorem(sk.alpha).ok
    assert to_w[0].base is not to_w[1].base


def test_frame_never_changes_an_answer():
    total = non_kan = invalid = 0
    for first, X, Y in frame_corruptions():
        obj = Y.to_json()
        Z = TruncatedSSet.from_json(obj)
        assert Z.base is None and Y.base is X.base
        got, valid = answers(Y)
        assert (got, valid) == answers(Z)
        sizes = obj["levels"]
        faces = {tuple(map(int, k.split(","))): v for k, v in obj["faces"].items()}
        # the oracle scans level 3 cell by cell: 3 s for one D3/Z2 horn type
        if first or sizes[3] <= 64:
            want = brute_first_unfilled_horn(faces, sizes, 3)
            assert got == (want is None, want)
        for n in range(1, 4):
            for missing in range(n + 1):
                assert np.array_equal(filler_counts(Y, n, missing),
                                      filler_counts(Z, n, missing))
        total += 1
        non_kan += not got[0]
        invalid += not valid[0]
    assert non_kan > total // 3 and invalid > total // 2


@pytest.mark.parametrize("bad_first", [False, True])
def test_classes_of_one_stratum_get_their_own_answers(bad_first):
    # a fresh frame, then a Kan class and a Kan-breaking one on it, in
    # either order
    simplicial._nerve.cache_clear()
    G, A = cyclic(3), AbelianGroup([3])
    good = duskin_nerve(TwoGroupSkeleton(lex_reps(G, A)[1]))
    bad = moved(good, random.Random(7), "face", (3, 0))
    want = {name: answers(TruncatedSSet.from_json(X.to_json()))
            for name, X in (("good", good), ("bad", bad))}
    assert want["good"] == ((True, None), (True, None))
    assert not want["bad"][0][0] and not want["bad"][1][0]
    order = [("bad", bad), ("good", good)] if bad_first else [("good", good), ("bad", bad)]
    for name, X in order:
        assert answers(X) == want[name]


def test_alpha_free_work_runs_once_per_stratum(monkeypatch):
    # fresh frame, nerve, W, Wbar and decalage for C3/Z3
    for cached in (simplicial._nerve, simplicial._wbar):
        cached.cache_clear()
    calls = []

    def spy(name, real):
        def wrapper(obj, *args):
            calls.append((name, obj))
            return real(obj, *args)
        return wrapper

    monkeypatch.setattr(simplicial, "_horn_rows", spy("horns", simplicial._horn_rows))
    monkeypatch.setattr(simplicial, "_FillerIndex", spy("fillers", simplicial._FillerIndex))
    monkeypatch.setattr(simplicial, "_failed_identity",
                        spy("identities", simplicial._failed_identity))
    monkeypatch.setattr(SimplicialMap, "_failed_commutation",
                        spy("commutation", SimplicialMap._failed_commutation))
    G, A = cyclic(3), AbelianGroup([3])
    first, second = lex_reps(G, A)[1:3]
    frame = _frame(nerve_bg(G, 3), A.order)
    static = {"frame": frame, "nerve": nerve_bg(G, 3), "w": w_b2a(A, 3),
              "wbar": wbar_b2a(A, 3), "dec": decalage_map(A, 3)}

    def work_on(obj):
        return {name for name, X in calls if X is obj}

    assert verify_theorem(first).ok
    assert work_on(frame) == {"horns", "fillers", "identities"}
    assert all(work_on(static[k]) == {"identities"} for k in ("nerve", "w", "wbar"))
    assert work_on(static["dec"]) == {"commutation"}
    calls.clear()
    assert verify_theorem(second).ok
    assert all(not work_on(obj) for obj in static.values())
    # the second class checks its own level 3, reading the 3-horns as
    # codes kept on the frame
    names = {name for name, _ in calls}
    assert names == {"fillers", "identities", "commutation"}


def test_a_warm_class_checks_only_its_level_3(monkeypatch):
    # after one V4/Z2^2 class, every map and set that a second class checks
    # sits on a base that passed, so no check reads only levels 0-2
    for cached in (simplicial._nerve, simplicial._wbar):
        cached.cache_clear()
    G, A = group_construct("product:cyclic:2,cyclic:2"), AbelianGroup([2, 2])
    first, second = lex_reps(G, A)[1:3]
    assert verify_theorem(first).ok
    lows, mismatches = [], 0
    real_identity, real_mismatch = simplicial._failed_identity, simplicial._first_mismatch
    real_keys = simplicial._table_keys

    def identity(X, low):
        lows.append(("identities", X.truncation, low))
        return real_identity(X, low)

    def keys(truncation, low=0):
        lows.append(("tables", truncation, low))
        return real_keys(truncation, low)

    def mismatch(lhs, rhs):
        nonlocal mismatches
        mismatches += 1
        return real_mismatch(lhs, rhs)

    # the lengths of the components that the round trip and the two
    # composites compare
    compared, inside = [], []
    real_agree, real_equal = correspondence._composites_agree, np.array_equal

    def agree(*maps):
        inside.append(True)
        try:
            return real_agree(*maps)
        finally:
            inside.pop()

    def equal(lhs, rhs, *args, **kwargs):
        if inside:
            compared.append(len(lhs))
        return real_equal(lhs, rhs, *args, **kwargs)

    monkeypatch.setattr(simplicial, "_failed_identity", identity)
    monkeypatch.setattr(simplicial, "_table_keys", keys)
    monkeypatch.setattr(simplicial, "_first_mismatch", mismatch)
    monkeypatch.setattr(correspondence, "_composites_agree", agree)
    monkeypatch.setattr(np, "array_equal", equal)
    assert verify_theorem(second).ok
    # the two models, the fiber product and the six maps of truncation 3
    # (cocycle map, iso, inverse, the model's two projections, mediating
    # map) and the level-4 cocycle map, all from level 3; tables are also
    # walked to build the level-3 tables of the models and of P
    assert sorted(set(lows)) == [("identities", 3, 3), ("tables", 3, 3), ("tables", 4, 3)]
    assert lows.count(("identities", 3, 3)) == 3
    # 21 identities touch level 3, 7 tables of a 3-truncated map and 16 of
    # a 4-truncated one: 3 * 21 + 6 * 7 + 16 = 121 checks, against 189 when
    # each map and P checked levels 0-2 as well
    assert mismatches == 121
    # the bases' answers are kept from the first class, so the round trip
    # and the composites each compare level 3 alone
    assert compared == [G.order**3 * A.order**3] * 2


# SHA-256 of the sorted-key JSON of the reports below, recorded before
# levels 0-2 were shared between classes: a corrupted d0 entry must be
# caught at the same stages with the same witnesses.
CORRUPT_D0_DIGEST = "ac948fe8f65369608615392370d2c026c4ff48d4778b59f2c80fa7d9a76d654f"


def test_corrupted_d0_fails_the_same_stages(monkeypatch):
    real = correspondence.duskin_nerve
    rng = random.Random(20261019)

    def corrupted(skeleton):
        X = real(skeleton)
        faces = {k: v for k, v in X.faces.items() if k[0] == 3}
        degs = {k: v for k, v in X.degeneracies.items() if k[0] == 2}
        d0 = faces[(3, 0)].copy()
        x = rng.randrange(len(d0))
        d0[x] = (d0[x] + rng.randrange(1, X.size(2))) % X.size(2)
        faces[(3, 0)] = d0
        return TruncatedSSet(3, [X.levels[3]], faces, degs, base=X.base)

    monkeypatch.setattr(correspondence, "duskin_nerve", corrupted)
    reports = []
    for G, A in FRAME_STRATA + [(group_construct("product:cyclic:2,cyclic:2"),
                                 AbelianGroup([2, 2]))]:
        for alpha in lex_reps(G, A)[:3]:
            report = verify_theorem(alpha).to_json()
            failed = [st["name"] for st in report["stages"] if not st["ok"]]
            assert "simplicial:duskin" in failed and "kan:duskin" in failed
            reports.append(report)
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORRUPT_D0_DIGEST


def shift_cell(f, n, x):
    """f with level-n cell x sent to the next cell of the target."""
    comps = [c.copy() for c in f.components]
    comps[n][x] = (comps[n][x] + 1) % f.dst.size(n)
    return SimplicialMap(f.src, f.dst, comps)


def shift_on_base(f, n, x):
    """f with level-n cell x sent to the next cell of the target, still on
    a base: f's own when n is above it, else the base with that cell
    shifted."""
    t = f.base.src.truncation
    comps = [c.copy() for c in f.components]
    comps[n][x] = (comps[n][x] + 1) % f.dst.size(n)
    base = f.base if n > t else SimplicialMap(f.base.src, f.base.dst, comps[:t + 1])
    return SimplicialMap(f.src, f.dst, comps[t + 1:], base)


def failed_stages(report):
    return [(st["name"], st["witness"]) for st in report.stages if not st["ok"]]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name, n, stage", [
    ("_model_to_w", 3, "agreement:composites_match"),
    ("_model_to_w", 2, "agreement:mediating_map"),
    ("inverse_map", 1, "iso:round_trip"),
], ids=["model-to-w-level3", "model-to-w-base", "inverse-base"])
def test_kept_base_answers_hide_no_wrong_map(monkeypatch, warm, name, n, stage):
    # a map with one cell shifted, on a base, must get the report of the
    # same components without a base, also after a first class has kept
    # the answers of the real bases.  Only level 3 can break the composites:
    # Wbar's levels 0-2 are points
    for cached in (simplicial._nerve, simplicial._wbar):
        cached.cache_clear()
    first, second = lex_reps(cyclic(3), AbelianGroup([3]))[1:3]
    if warm:
        assert verify_theorem(first).ok
    real = getattr(correspondence, name)
    monkeypatch.setattr(correspondence, name, lambda *args: shift_on_base(real(*args), n, 1))
    got = failed_stages(verify_theorem(second))
    monkeypatch.setattr(correspondence, name, lambda *args: shift_cell(real(*args), n, 1))
    assert got == failed_stages(verify_theorem(second))
    assert stage in dict(got)


def test_map_off_the_fiber_product_keeps_the_report(monkeypatch):
    # model_to_w no longer lands where the cocycle map does, so no mediating
    # map into the fiber product exists
    real = correspondence._model_to_w
    monkeypatch.setattr(correspondence, "_model_to_w",
                        lambda *args: shift_cell(real(*args), 3, 0))
    report = verify_theorem(Cochain.zero(C2, Z2, 3))
    leaves = "(p, q) leaves the fiber product at level 3"
    assert not report.ok
    assert [st["name"] for st in report.stages] == STAGE_NAMES
    assert failed_stages(report) == [
        ("map:model_to_w", "face (3,0) not preserved at cell 0"),
        ("agreement:composites_match", None),
        ("agreement:mediating_map", leaves),
        ("agreement:bijective", leaves),
    ]


def test_cocycle_map_off_the_fiber_product_keeps_the_report(monkeypatch):
    # the degenerate 3-cell (0, 0, 0) of the nerve no longer goes to a
    # degenerate cell, so the fiber product has no degeneracy s_0 there
    real = correspondence.cocycle_as_map

    def shifted(alpha, truncation=3):
        f = real(alpha, truncation)
        return shift_cell(f, 3, 0) if truncation == 3 else f

    monkeypatch.setattr(correspondence, "cocycle_as_map", shifted)
    report = verify_theorem(Cochain.zero(C2, Z2, 3))
    leaves = "degeneracy (2,0) leaves the fiber product"
    assert not report.ok
    assert [st["name"] for st in report.stages] == STAGE_NAMES
    assert "fiber_product_levels" not in report.counts
    assert failed_stages(report) == [
        ("map:cocycle_map", "degeneracy (2,0) not preserved at cell 0"),
        ("simplicial:fiber_product", leaves),
        ("agreement:composites_match", None),
        ("agreement:mediating_map", leaves),
        ("agreement:bijective", leaves),
    ]


def corrupted_pullback(rng):
    """pullback_model with one seeded entry of its level-3 face d_2 moved to
    another 2-cell, rebuilt on the model's frame."""
    real = correspondence.pullback_model

    def build(skeleton):
        X = real(skeleton)
        faces = {k: v for k, v in X.faces.items() if k[0] == 3}
        degs = {k: v for k, v in X.degeneracies.items() if k[0] == 2}
        d2 = faces[(3, 2)] = faces[(3, 2)].copy()
        x = rng.randrange(len(d2))
        d2[x] = (d2[x] + rng.randrange(1, X.size(2))) % X.size(2)
        return TruncatedSSet(3, [X.levels[3]], faces, degs, base=X.base)

    return "pullback_model", build


def shifted_model_to_nerve(rng):
    """_model_to_nerve with one seeded level-3 cell shifted."""
    real = correspondence._model_to_nerve
    return "_model_to_nerve", lambda *args: shift_cell(
        real(*args), 3, rng.randrange(args[0].size(3)))


def shifted_level4_cocycle_map(rng):
    """cocycle_as_map with one seeded level-4 cell shifted at truncation 4."""
    real = correspondence.cocycle_as_map

    def build(alpha, truncation=3):
        f = real(alpha, truncation)
        return shift_cell(f, 4, rng.randrange(f.src.size(4))) if truncation == 4 else f

    return "cocycle_as_map", build


def with_entry_moved(X, kind, key, x, rng):
    """A copy of X, a set on no base, with entry x of one table moved to
    another in-range cell."""
    tables = {k: dict(X.tables[k]) for k in ("face", "degeneracy")}
    tab = tables[kind][key] = tables[kind][key].copy()
    bound = X.size(key[0] - 1 if kind == "face" else key[0] + 1)
    tab[x] = (tab[x] + rng.randrange(1, bound)) % bound
    return TruncatedSSet(X.truncation, X.levels, tables["face"], tables["degeneracy"])


def moved_w_face(rng):
    """w_b2a with one seeded face of a degenerate 3-cell moved.  W's level
    1 is a point, so no identity reads the faces of the other 3-cells."""
    real = correspondence.w_b2a

    def build(A, truncation=3):
        W = real(A, truncation)
        x = int(W.degeneracies[(2, rng.randrange(3))][rng.randrange(W.size(2))])
        return with_entry_moved(W, "face", (3, rng.randrange(4)), x, rng)

    return "w_b2a", build


def moved_wbar_degeneracy(rng):
    """wbar_b2a with one seeded degeneracy of its one 2-cell moved.  Every
    face of a 3-cell lands on that 2-cell, so no identity reads them."""
    real = correspondence.wbar_b2a
    return "wbar_b2a", lambda A, truncation=3: with_entry_moved(
        real(A, truncation), "degeneracy", (2, rng.randrange(3)), 0, rng)


def shifted_decalage(rng):
    """decalage_map with one seeded degenerate 3-cell shifted.  Wbar's
    levels 0-2 are points, so only a degeneracy sees a 3-cell move."""
    real = correspondence.decalage_map

    def build(A, truncation=3):
        f = real(A, truncation)
        x = int(f.src.degeneracies[(2, rng.randrange(3))][rng.randrange(f.src.size(2))])
        return shift_cell(f, 3, x)

    return "decalage_map", build


def moved_nerve_face(rng):
    """nerve_bg with one seeded level-3 face entry moved, one corrupted
    nerve per group, which the models then read G's coordinates off."""
    real, corrupted = correspondence.nerve_bg, {}

    def build(G, truncation=3):
        if (G, truncation) not in corrupted:
            NG = real(G, truncation)
            corrupted[G, truncation] = with_entry_moved(
                NG, "face", (3, rng.randrange(4)), rng.randrange(NG.size(3)), rng)
        return corrupted[G, truncation]

    return "nerve_bg", build


def moved_nerve_level2_face(rng):
    """nerve_bg with one seeded level-2 face entry moved, one corrupted
    nerve per group.  The models' frame reads its level 2 off the nerve, so
    the models see the move only if the frame is kept per nerve object."""
    real, corrupted = correspondence.nerve_bg, {}

    def build(G, truncation=3):
        if (G, truncation) not in corrupted:
            NG = real(G, truncation)
            corrupted[G, truncation] = with_entry_moved(
                NG, "face", (2, rng.randrange(3)), rng.randrange(NG.size(2)), rng)
        return corrupted[G, truncation]

    return "nerve_bg", build


def zeroing_model(pullback, coeffs):
    """The endomorphism of a pullback model that zeroes every A-coordinate
    (the least significant digits of its cells): valid when alpha is zero,
    and not a bijection."""
    na = coeffs.order
    return SimplicialMap(pullback, pullback, [
        np.arange(pullback.size(n)) // na**k * na**k for n, k in enumerate((0, 0, 1, 3))])


def zeroed_iso(rng):
    """canonical_iso followed by zeroing_model."""
    real = correspondence.canonical_iso
    return "canonical_iso", lambda duskin, pullback, coeffs: zeroing_model(
        pullback, coeffs).compose(real(duskin, pullback, coeffs))


def control_classes():
    """The first two classes of each stratum of the negative controls."""
    return [alpha for G, A in FRAME_STRATA + [(symmetric(3), AbelianGroup([3]))]
            for alpha in lex_reps(G, A)[:2]]


def zero_classes():
    """The zero classes of C2/Z2 and C3/Z3, where zeroing_model is valid."""
    return [Cochain.zero(G, A, 3) for G, A in FRAME_STRATA[:2]]


# SHA-256 of the sorted-key JSON of the reports of each negative control
# below.  The first three were recorded before the models and the level-4
# cocycle map read G's coordinates off nerve_bg, the others before W and the
# decalage were read off Wbar: every verdict and witness must stay as it was.
LEVEL2_NERVE_DIGEST = "26e7b02ce474978894a60982269ab035d595bc2009d6696c26dfcf9dbbb6a162"

NEGATIVE_CONTROLS = [
    (corrupted_pullback, "simplicial:pullback", control_classes,
     "b140c2f7d4f213d8eec0bb64c1a4b952b61f67ee0e86c409941ec0a1d0de50d7"),
    (shifted_model_to_nerve, "map:model_to_nerve", control_classes,
     "87e4a680df993b4a1bedcdb499e18cd1b066a63ac0d63df57a7578d00700f30f"),
    (shifted_level4_cocycle_map, "map:cocycle_map_level4", control_classes,
     "40a1f9a6dcc0141547304631f873583834a7ebac023875d270281e6950c618cc"),
    (moved_w_face, "simplicial:w", control_classes,
     "7902189a2b8afd9f84dedf19228b41866ee59470d25aedfd0e9e4a6e589ee33f"),
    (moved_wbar_degeneracy, "simplicial:wbar", control_classes,
     "4d990fd8452002b6d91adc2853e2a4b0fc5fe8274c120e0d469574f52c1678e4"),
    (shifted_decalage, "map:decalage", control_classes,
     "f82f1d35a206a5ec37f2f2776747cc796e6e1c6dfabdff27bd429e3c0d6b9685"),
    (moved_nerve_face, "simplicial:nerve", control_classes,
     "1ab85391585dd0c74cec0a2405b08b0744d03642e232ec9d76fdbea3473f6192"),
    (zeroed_iso, "iso:bijective", zero_classes,
     "dd74ebb88fc888c5139564d18a5c8a2d2cf46d78916bde492b510745f89f6d92"),
    # recorded in fresh processes, where the frame is first built from the
    # moved nerve; a frame kept per group served the real nerve's level 2
    # once it was warm, and only simplicial:nerve and map:model_to_nerve failed
    (moved_nerve_level2_face, "simplicial:duskin", control_classes,
     LEVEL2_NERVE_DIGEST),
]


@pytest.mark.parametrize("patch, stage, classes, digest", NEGATIVE_CONTROLS,
                         ids=[stage for _, stage, _, _ in NEGATIVE_CONTROLS])
def test_negative_controls_fail_the_same_stages(monkeypatch, patch, stage, classes, digest):
    name, replacement = patch(random.Random(20261020))
    monkeypatch.setattr(correspondence, name, replacement)
    reports = []
    for alpha in classes():
        report = verify_theorem(alpha).to_json()
        assert stage in [st["name"] for st in report["stages"] if not st["ok"]]
        reports.append(report)
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_moved_level2_nerve_face_reads_the_same_warm_or_cold(monkeypatch, warm):
    # cold: no frame kept yet; warm: every control class verified on the
    # real nerve first, so that its frames are kept
    simplicial._nerve.cache_clear()
    if warm:
        for alpha in control_classes():
            assert verify_theorem(alpha).ok
    name, replacement = moved_nerve_level2_face(random.Random(20261020))
    monkeypatch.setattr(correspondence, name, replacement)
    reports = [verify_theorem(alpha).to_json() for alpha in control_classes()]
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LEVEL2_NERVE_DIGEST


def test_a_valid_non_bijective_iso_fails_from_bijective_on(monkeypatch):
    monkeypatch.setattr(correspondence, "canonical_iso", zeroed_iso(None)[1])
    report = verify_theorem(Cochain.zero(C2, Z2, 3))
    assert [name for name, _ in failed_stages(report)] == [
        "iso:bijective", "iso:backward", "iso:round_trip"]
    assert dict(failed_stages(report))["iso:backward"] == "face (2,0) not preserved at cell 3"


def test_one_wrong_filler_count_fails_its_stage_alone(monkeypatch):
    # over Z3 every 2-horn has three fillers; a count of 2 is wrong although
    # it is at least 1
    real = correspondence.filler_counts

    def corrupted(X, n, missing):
        counts = real(X, n, missing).copy()
        if missing == 0:
            counts[0] = 2
        return counts

    monkeypatch.setattr(correspondence, "filler_counts", corrupted)
    report = verify_theorem(Cochain.zero(cyclic(3), AbelianGroup([3]), 3))
    assert failed_stages(report) == [("kan:degree2_filler_count", None)]
    assert report.counts["duskin_degree2_filler_counts"] == [2, 3]


def test_wrong_inverse_fails_only_the_round_trip(monkeypatch):
    # over C2/Z3 with alpha = 0, negating every A-coordinate of the Duskin
    # nerve is a simplicial automorphism, so the inverse followed by it is a
    # valid map from the model to the nerve that is not the inverse
    G, A = C2, AbelianGroup([3])
    sk = TwoGroupSkeleton(Cochain.zero(G, A, 3))
    neg = [np.arange(duskin_nerve(sk).size(n)) for n in range(4)]
    for n in (2, 3):
        neg[n] = np.array([encode(sk, n, decode(sk, n, x)[:n] + tuple(
            A.neg(a) for a in decode(sk, n, x)[n:])) for x in neg[n]])
    real = correspondence.inverse_map

    def negated(f):
        inv = real(f)
        return SimplicialMap(inv.src, inv.dst,
                             [flip[c] for flip, c in zip(neg, inv.components)])

    monkeypatch.setattr(correspondence, "inverse_map", negated)
    report = verify_theorem(Cochain.zero(G, A, 3))
    assert [st["name"] for st in report.stages] == STAGE_NAMES
    assert failed_stages(report) == [("iso:round_trip", None)]


C6_Z17 = TwoGroupSkeleton(Cochain.zero(cyclic(6), AbelianGroup([17]), 3))


def models(alpha):
    sk = TwoGroupSkeleton(alpha)
    return duskin_nerve(sk), pullback_model(sk)


@pytest.mark.parametrize("call, error, match", [
    # each used to raise an AttributeError
    (lambda: duskin_nerve(5), ShapeMismatch, "skeleton must be a TwoGroupSkeleton, got int"),
    (lambda: pullback_model(c2_nontrivial()), ShapeMismatch,
     "skeleton must be a TwoGroupSkeleton, got Cochain"),
    (lambda: canonical_iso(1, 2, Z2), ShapeMismatch,
     "Duskin nerve must be a TruncatedSSet, got int"),
    # used to build A's 2^48-entry addition table and escape with MemoryError
    (lambda: canonical_iso(*models(c2_nontrivial()), AbelianGroup([2**24])), ShapeMismatch,
     "64 level-3 cells, not"),
    # used to raise an AttributeError in to_json
    (lambda: TheoremReport(5, 5).to_json(), ShapeMismatch, "group must be a FiniteGroup, got int"),
    (lambda: TheoremReport(C2, [2]), ShapeMismatch,
     "coefficients must be an AbelianGroup, got list"),
    # (6 * 17)^3 = 1061208 level-3 cells, refused without verify_theorem's
    # guard in front
    (lambda: duskin_nerve(C6_Z17), DimensionBound, "1061208"),
    (lambda: pullback_model(C6_Z17), DimensionBound, "1061208"),
], ids=["duskin-int", "pullback-cochain", "iso-int", "iso-other-coefficients",
        "report-int", "report-list-coefficients", "duskin-oversized", "pullback-oversized"])
def test_malformed_model_arguments_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_level_bound_comes_before_the_skeleton(monkeypatch):
    # 32^3 * 4^3 = 2^21 level-3 cells: refused before the skeleton checks
    # alpha over all of C32^4
    def skeleton(alpha):
        raise AssertionError("skeleton built before the level bound")

    monkeypatch.setattr(correspondence, "TwoGroupSkeleton", skeleton)
    with pytest.raises(DimensionBound, match="2097152"):
        verify_theorem(Cochain.zero(cyclic(32), AbelianGroup([4]), 3))
