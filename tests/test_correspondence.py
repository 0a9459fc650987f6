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
from twogrp.group import cyclic, dihedral, group_construct
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


def test_duskin_nerve_sizes_and_validity():
    sk = TwoGroupSkeleton(c2_nontrivial())
    X = duskin_nerve(sk)
    assert [X.size(n) for n in range(4)] == [1, 2, 8, 64]
    ok, why = validate_simplicial(X)
    assert ok, why


def test_duskin_compositor_constraint():
    sk = TwoGroupSkeleton(c2_nontrivial())
    X = duskin_nerve(sk)
    A, alpha = sk.coeffs, sk.alpha
    for x in range(X.size(3)):
        # a 3-cell is coded by (f, g, h, t1, t2, t3); t0 is read off d0
        f, g, h, t1, t2, t3 = decode(sk, 3, x)
        g0, h0, t0 = decode(sk, 2, X.face(3, 0, x))
        lhs = A.add(t0, t2)
        rhs = A.add(alpha.value((f, g, h)), A.add(t1, t3))
        assert lhs == rhs
        # each face extracts the 2-morphism attached to it
        assert (g0, h0) == (g, h)
        assert decode(sk, 2, X.face(3, 1, x)) == (C2.mul(f, g), h, t1)
        assert decode(sk, 2, X.face(3, 2, x)) == (f, C2.mul(g, h), t2)
        assert decode(sk, 2, X.face(3, 3, x)) == (f, g, t3)


def test_pullback_model_faces():
    sk = TwoGroupSkeleton(c2_nontrivial())
    X = pullback_model(sk)
    A, alpha = sk.coeffs, sk.alpha
    assert [X.size(n) for n in range(4)] == [1, 2, 8, 64]
    for x in range(X.size(3)):
        f, g, h, a, b, c = decode(sk, 3, x)
        d = alpha.value((f, g, h))
        assert decode(sk, 2, X.face(3, 0, x)) == (g, h, A.add(a, d))
        assert decode(sk, 2, X.face(3, 1, x)) == (C2.mul(f, g), h, A.add(a, b))
        assert decode(sk, 2, X.face(3, 2, x)) == (f, C2.mul(g, h), A.add(b, c))
        assert decode(sk, 2, X.face(3, 3, x)) == (f, g, c)


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
    _frame.cache_clear()
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
    for cached in (_frame, nerve_bg, w_b2a, wbar_b2a, decalage_map):
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
    frame = _frame(G, A)
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
        return correspondence._model(skeleton.group, skeleton.coeffs, faces, degs)

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


def shift_level3_cell(f, x):
    """f with level-3 cell x sent to the next cell of the target."""
    comps = [c.copy() for c in f.components]
    comps[3][x] = (comps[3][x] + 1) % f.dst.size(3)
    return SimplicialMap(f.src, f.dst, comps)


def failed_stages(report):
    return [(st["name"], st["witness"]) for st in report.stages if not st["ok"]]


def test_map_off_the_fiber_product_keeps_the_report(monkeypatch):
    # model_to_w no longer lands where the cocycle map does, so no mediating
    # map into the fiber product exists
    real = correspondence._model_to_w
    monkeypatch.setattr(correspondence, "_model_to_w",
                        lambda *args: shift_level3_cell(real(*args), 0))
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
        return shift_level3_cell(f, 0) if truncation == 3 else f

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


def test_level_bound_comes_before_the_skeleton(monkeypatch):
    # 32^3 * 4^3 = 2^21 level-3 cells: refused before the skeleton checks
    # alpha over all of C32^4
    def skeleton(alpha):
        raise AssertionError("skeleton built before the level bound")

    monkeypatch.setattr(correspondence, "TwoGroupSkeleton", skeleton)
    with pytest.raises(DimensionBound, match="2097152"):
        verify_theorem(Cochain.zero(cyclic(32), AbelianGroup([4]), 3))
