import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from twogrp.coeff import AbelianGroup
from twogrp.cochain import Cochain, coboundary, cohomology, is_cocycle
from twogrp.errors import (
    DegreeMismatch,
    DimensionBound,
    IndexOutOfRange,
    NotACocycle,
    ParseError,
    ShapeMismatch,
    TruncationMismatch,
)
from twogrp.group import cyclic, dihedral, symmetric
from twogrp import simplicial
from twogrp.simplicial import (
    Horn,
    SimplicialMap,
    TruncatedSSet,
    cocycle_as_map,
    decalage_map,
    enumerate_horns,
    fiber_product,
    filler_counts,
    fillers,
    gamma_a2,
    identity_map,
    inverse_map,
    is_isomorphism,
    is_kan,
    mediating_map,
    nerve_bg,
    surjections_to_2,
    validate_simplicial,
    w_b2a,
    wbar_b2a,
)

from oracles import B2AOracle, brute_compatible_horns, brute_first_unfilled_horn

C2 = cyclic(2)
Z2 = AbelianGroup([2])


def same_components(f, g):
    return len(f.components) == len(g.components) and all(
        np.array_equal(a, b) for a, b in zip(f.components, g.components)
    )


def cell(coords, radices):
    """The cell with the given mixed-radix coordinates."""
    return int(np.ravel_multi_index(coords, radices))


def coords(x, radices):
    """The mixed-radix coordinates of cell x."""
    return tuple(int(d) for d in np.unravel_index(x, radices))


def c2_nontrivial():
    return Cochain.from_function(
        C2, Z2, 3, lambda a, b, c: (1,) if a == b == c == 1 else (0,)
    )


def test_surjections_to_2():
    assert surjections_to_2(1) == []
    assert surjections_to_2(2) == [(0, 1, 2)]
    assert surjections_to_2(3) == [(0, 0, 1, 2), (0, 1, 1, 2), (0, 1, 2, 2)]
    assert len(surjections_to_2(4)) == 6


@pytest.mark.parametrize("A", [Z2, AbelianGroup([3]), AbelianGroup([2, 2])])
def test_constructors_validate(A):
    objects = [
        nerve_bg(dihedral(3), 3),
        nerve_bg(C2, 4),
        gamma_a2(A, 4),
        w_b2a(A, 3),
        wbar_b2a(A, 3),
        wbar_b2a(A, 4),
    ]
    if A.order <= 3:  # W at truncation 4 holds |A|^10 top cells
        objects.append(w_b2a(A, 4))
    for X in objects:
        ok, why = validate_simplicial(X)
        assert ok, why


@pytest.mark.parametrize("A", [Z2, AbelianGroup([4]), AbelianGroup([2, 2])])
def test_level_sizes(A):
    m = A.order
    gamma = gamma_a2(A, 4)
    assert [gamma.size(n) for n in range(5)] == [1, 1, m, m**3, m**6]
    wbar = wbar_b2a(A, 4)
    assert [wbar.size(n) for n in range(5)] == [1, 1, 1, m, m**4]
    w = w_b2a(A, 3)
    assert [w.size(n) for n in range(4)] == [1, 1, m, m**4]
    ng = nerve_bg(C2, 3)
    assert [ng.size(n) for n in range(4)] == [1, 2, 4, 8]


def test_nerve_faces():
    G = dihedral(3)
    X = nerve_bg(G, 3)
    g, h, k = 1, 3, 4
    # level n is G^n, coded over radices (|G|,) * n
    r2, r3 = (G.order,) * 2, (G.order,) * 3
    x = cell((g, h, k), r3)
    assert coords(X.face(3, 0, x), r2) == (h, k)
    assert coords(X.face(3, 1, x), r2) == (G.mul(g, h), k)
    assert coords(X.face(3, 2, x), r2) == (g, G.mul(h, k))
    assert coords(X.face(3, 3, x), r2) == (g, h)
    assert coords(X.degeneracy(2, 1, cell((g, h), r2)), r3) == (g, 0, h)


def test_nerves_share_the_face_rows_of_each_level():
    # one array per face of each level, whichever truncation reads it
    for G in (C2, dihedral(3)):
        for N in (3, 4):
            X = nerve_bg(G, N)
            for n in range(1, N + 1):
                rows = simplicial._face_rows(G, n)
                assert len(rows) == n + 1
                for i in range(n + 1):
                    assert X.faces[(n, i)] is rows[i]
                    assert not rows[i].flags.writeable


def test_w_face_values():
    A = AbelianGroup([4])
    els = A.elements()
    W = w_b2a(A, 3)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        # the W_3 cell ((a, b, c), (d,), (), ()) is coded by its copies of
        # A, first most significant; a W_2 cell is one copy of A
        x = cell((a, b, c, d), (A.order,) * 4)
        got = [els[W.face(3, i, x)] for i in range(4)]
        assert got == [((a + d) % 4,), ((a + b) % 4,), ((b + c) % 4,), (c,)]


def test_wbar_level4_face_values():
    A = AbelianGroup([4])
    els = A.elements()
    Wb = wbar_b2a(A, 4)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        # the Wbar_4 cell ((a, b, c), (d,), (), ()) is coded like a W_3
        # cell; a Wbar_3 cell is one copy of A
        x = cell((a, b, c, d), (A.order,) * 4)
        got = [els[Wb.face(4, i, x)][0] for i in range(5)]
        assert got == [d, (a + d) % 4, (a + b) % 4, (b + c) % 4, c]


@pytest.mark.parametrize("factors", [[2], [3], [4], [2, 2]])
def test_b2a_objects_match_the_definitions(factors):
    # Gamma(A[2]), Wbar, W and the decalage built from their definitions
    # in tests/oracles.py, compared table by table through to_json() and
    # the decalage's components
    A, oracle = AbelianGroup(factors), B2AOracle(factors)
    for trunc in range(5):
        assert gamma_a2(A, trunc).to_json() == oracle.to_json("gamma", trunc)
        assert wbar_b2a(A, trunc).to_json() == oracle.to_json("wbar", trunc)
        if trunc < 4 or A.order <= 3:  # W at truncation 4 holds |A|^10 top cells
            assert w_b2a(A, trunc).to_json() == oracle.to_json("w", trunc)
            got = [c.tolist() for c in decalage_map(A, trunc).components]
            assert got == oracle.decalage(trunc)


def test_w_and_the_decalage_are_read_off_wbar():
    # W is Dec_0 Wbar: its d_i and s_i on level n are Wbar's d_{i+1} and
    # s_{i+1} on level n+1, and dec on level n is Wbar's d_0 there
    for A in (Z2, AbelianGroup([3]), AbelianGroup([2, 2])):
        for trunc in range(5 if A.order <= 3 else 4):
            W, Wb = w_b2a(A, trunc), simplicial._wbar(A, trunc + 1)
            for kind, n, i, _ in simplicial._table_keys(trunc):
                assert W.tables[kind][(n, i)] is Wb.tables[kind][(n + 1, i + 1)]
            dec = decalage_map(A, trunc)
            assert dec.dst is wbar_b2a(A, trunc)
            assert all(c is Wb.faces[(n + 1, 0)] for n, c in enumerate(dec.components))


def test_builders_cache_one_object_per_integer_value():
    for build, arg in ((nerve_bg, C2), (gamma_a2, Z2), (wbar_b2a, Z2), (w_b2a, Z2),
                       (decalage_map, Z2)):
        assert build(arg, np.int64(3)) is build(arg, 3)


TOWERS = [(nerve_bg, C2), (gamma_a2, Z2), (wbar_b2a, Z2), (w_b2a, Z2)]


@pytest.mark.parametrize("build, arg", TOWERS, ids=["nerve", "gamma", "wbar", "w"])
def test_each_truncation_sits_on_the_one_below(build, arg):
    # an n-truncation is the restriction of the (n+1)-truncation: the set of
    # truncation N holds level N's tables alone, on the cached N - 1
    assert build(arg, 0).base is None
    for N in range(1, 5):
        X = build(arg, N)
        assert X.base is build(arg, N - 1) is simplicial._lower(X, N - 1)
        own = {(kind, n, i) for kind, n, i, _ in simplicial._table_keys(N, N)}
        assert {(kind, n, i) for kind in X.tables for n, i in X.tables[kind]
                if X.tables[kind][(n, i)] is not X.base.tables[kind].get((n, i))} == own


def test_negative_truncations_are_refused_without_recursing(monkeypatch):
    for cached in (simplicial._nerve, simplicial._gamma, simplicial._wbar):
        cached.cache_clear()
    calls = []

    def spy(name):
        real = getattr(simplicial, name)

        def wrapper(arg, N):
            calls.append((name, N))
            return real(arg, N)
        return wrapper

    for name in ("_nerve", "_gamma", "_wbar", "_w"):
        monkeypatch.setattr(simplicial, name, spy(name))
    for build, arg in TOWERS + [(decalage_map, Z2)]:
        for N in (-1, -2):
            with pytest.raises(TruncationMismatch, match="^truncation must be >= 0, got %d$" % N):
                build(arg, N)
    assert calls == []
    # a fresh tower recurses down to truncation 0 and no further
    for build, arg in TOWERS:
        build(arg, 2)
    assert sorted(set(calls)) == [(name, N) for name in ("_gamma", "_nerve", "_w", "_wbar")
                                  for N in range(4 if name == "_wbar" else 3)]


@pytest.mark.parametrize("build, message", [
    # the nerve guards its own level before its base, so it is refused at
    # its top level, as when it was built whole
    (lambda: nerve_bg(cyclic(128), 4), "level would hold 268435456 cells"),
    (lambda: nerve_bg(cyclic(128), 3), "level would hold 2097152 cells"),
    # Gamma and Wbar guard their base first: the lowest level too large
    (lambda: gamma_a2(AbelianGroup([1025]), 4), "level would hold 1076890625 cells"),
    (lambda: w_b2a(AbelianGroup([33]), 4), "level would hold 1185921 cells"),
], ids=["nerve-4", "nerve-3", "gamma-4", "w-4"])
def test_too_large_towers_are_refused_at_the_same_level(build, message):
    with pytest.raises(DimensionBound, match="^%s$" % message):
        build()


def flat_copy(X):
    """X read back from JSON: the same tables, on no base."""
    return TruncatedSSet.from_json(X.to_json())


def test_sets_on_no_base_get_maps_built_whole():
    # maps of towers are built on maps of their lower truncations; maps
    # between sets on no base, or from a tower to a set on no base, are
    # built whole, with the same components and verdicts
    from twogrp.correspondence import canonical_iso, duskin_nerve, pullback_model
    from twogrp.twogroup import TwoGroupSkeleton

    sk = TwoGroupSkeleton(c2_nontrivial())
    X, Y = duskin_nerve(sk), pullback_model(sk)
    NG, Wb = nerve_bg(C2, 3), wbar_b2a(Z2, 3)
    amap = cocycle_as_map(c2_nontrivial(), 3)

    def by_levels(src, dst, shift):
        # levels 0..2 kept as one rule per shifted level, so no base is
        # shared with another rule
        def level(n):
            comp = identity_map(NG).components[n]
            return np.roll(comp, 1) if n == shift else comp
        return simplicial._map_by_levels(src, dst, 2, ("shifted", shift), level)

    iso = canonical_iso(X, Y, Z2)
    P, px, py = fiber_product(amap, decalage_map(Z2, 3))
    pairs = [
        (identity_map(NG), [identity_map(flat_copy(NG))]),
        (iso, [canonical_iso(flat_copy(X), flat_copy(Y), Z2), canonical_iso(X, flat_copy(Y), Z2),
               canonical_iso(flat_copy(X), Y, Z2)]),
        (amap, [simplicial._map_by_levels(flat_copy(NG), flat_copy(Wb), 2, "zero map",
                                          lambda n: amap.components[n]),
                simplicial._map_by_levels(NG, flat_copy(Wb), 2, "zero map",
                                          lambda n: amap.components[n])]),
        (by_levels(NG, NG, 3), [by_levels(flat_copy(NG), flat_copy(NG), 3)]),
        (by_levels(NG, NG, 1), [by_levels(NG, flat_copy(NG), 1)]),
        (mediating_map(P, px, py, px, py), [mediating_map(flat_copy(P), px, py, px, py)]),
    ]
    verdicts = set()
    for tower, wholes in pairs:
        assert tower.base is not None
        for whole in wholes:
            assert whole.base is None and same_components(tower, whole)
            assert tower.validate() == whole.validate()
        verdicts.add(tower.validate())
    # a shifted level 1 breaks the base, and the first failure is above it
    assert verdicts == {(True, None), (False, "face (3,0) not preserved at cell 0"),
                        (False, "face (2,0) not preserved at cell 0")}


def test_cocycle_maps_of_both_truncations_check_one_base(monkeypatch):
    # nerve_bg(G, 3) is levels 0..3 of nerve_bg(G, 4), so the alpha-free
    # levels 0-2 of the cocycle maps of truncations 3 and 4 are one zero map,
    # built and checked once per (G, A)
    for cached in (simplicial._nerve, simplicial._wbar):
        cached.cache_clear()
    G, A = cyclic(3), AbelianGroup([3])
    res = cohomology(G, A, 3)
    alpha = res.lex_minimal_representative(res.cochain_from_coordinates((1,)))
    checked = []
    real = SimplicialMap._failed_commutation

    def spy(f):
        checked.append(f.src.truncation)
        return real(f)

    monkeypatch.setattr(SimplicialMap, "_failed_commutation", spy)
    f3, f4 = cocycle_as_map(alpha, 3), cocycle_as_map(alpha, 4)
    assert f3.base is f4.base is not None
    assert f3.base.src is nerve_bg(G, 2) and f3.base.dst is wbar_b2a(A, 2)
    assert f3.validate() == f4.validate() == (True, None)
    assert checked == [3, 2, 4]


def test_decalage_validates():
    for A in (Z2, AbelianGroup([3])):
        for trunc in (3, 4):
            dec = decalage_map(A, trunc)
            ok, why = dec.validate()
            assert ok, why


def test_cocycle_as_map():
    alpha = c2_nontrivial()
    for trunc in (3, 4):
        f = cocycle_as_map(alpha, trunc)
        ok, why = f.validate()
        assert ok, why
    # the 3-cell component reads off alpha
    f = cocycle_as_map(alpha, 3)
    # a Wbar_3 cell is one copy of A
    x = cell((1, 1, 1), (2, 2, 2))
    assert Z2.elements()[f(3, x)] == (1,)


def test_level4_extension_iff_cocycle():
    # over Z4 on C2 the normalized 3-cochains split into cocycles and
    # non-cocycles; level-4 extension succeeds exactly on the former
    Z4 = AbelianGroup([4])
    for v in range(4):
        alpha = Cochain.from_function(
            C2, Z4, 3, lambda a, b, c: (v,) if a == b == c == 1 else (0,)
        )
        ok, witness = is_cocycle(alpha)
        if ok:
            f = cocycle_as_map(alpha, 4)
            okv, why = f.validate()
            assert okv, why
        else:
            with pytest.raises(NotACocycle) as err:
                cocycle_as_map(alpha, 4)
            assert err.value.witness == witness


def test_level4_witness_is_the_first_failing_tuple_over_s3():
    # seeded normalized cochains over S3 with Z3: cocycles extend to level
    # 4, and every other cochain is refused at the first 4-tuple where its
    # coboundary is nonzero, also when a single value breaks a cocycle
    G, A = symmetric(3), AbelianGroup([3])
    rng = random.Random(20261021)
    els = A.elements()

    def normalized(degree, value):
        return Cochain.from_function(G, A, degree, lambda *a: A.zero if 0 in a else value(a))

    rep = cohomology(G, A, 3).representatives[0]
    cochains = [normalized(3, lambda a: rng.choice(els)) for _ in range(4)]
    for k in range(3):
        beta = normalized(2, lambda a: rng.choice(els))
        cocycle = rep.scale(k).add(coboundary(beta))
        cochains.append(cocycle)
        broken = rng.choice(list(itertools.product(range(1, 6), repeat=3)))
        cochains.append(normalized(3, lambda a: A.add(cocycle.value(a), els[1])
                                   if a == broken else cocycle.value(a)))
    outcomes = set()
    for alpha in cochains:
        ok, witness = is_cocycle(alpha)
        outcomes.add(ok)
        if ok:
            assert cocycle_as_map(alpha, 4).validate() == (True, None)
        else:
            with pytest.raises(NotACocycle) as err:
                cocycle_as_map(alpha, 4)
            assert err.value.witness == witness
    assert outcomes == {True, False}


def test_fiber_product_and_mediating():
    alpha = c2_nontrivial()
    f = decalage_map(Z2, 3)
    g = cocycle_as_map(alpha, 3)
    P, px, py = fiber_product(f, g)
    ok, why = validate_simplicial(P)
    assert ok, why
    for proj in (px, py):
        ok, why = proj.validate()
        assert ok, why
    # composites agree by construction
    assert same_components(f.compose(px), g.compose(py))
    # mediating map against the projections themselves is the identity
    med = mediating_map(P, px, py, px, py)
    assert same_components(med, identity_map(P))


def test_simplicial_map_helpers():
    X = nerve_bg(C2, 3)
    ident = identity_map(X)
    ok, _ = ident.validate()
    assert ok and is_isomorphism(ident)
    assert same_components(inverse_map(ident), ident)
    # a misshapen map is rejected
    with pytest.raises(ShapeMismatch):
        SimplicialMap(X, X, [[0], [0, 1]])
    # a non-commuting map is caught by validate
    comps = [list(range(X.size(n))) for n in range(4)]
    comps[3][cell((1, 1, 1), (2, 2, 2))] = cell((0, 0, 0), (2, 2, 2))
    bad = SimplicialMap(X, X, comps)
    ok, why = bad.validate()
    assert not ok and "face" in why


def test_is_isomorphism_refuses_valid_non_bijections():
    # the trivial homomorphisms C2 -> C2 and C3 -> C1 induce valid maps of
    # nerves: one is not injective, the other joins levels of other sizes
    for src, dst in ((C2, C2), (cyclic(3), cyclic(1))):
        X, Y = nerve_bg(src, 3), nerve_bg(dst, 3)
        f = SimplicialMap(X, Y, [np.zeros(X.size(n), dtype=np.int64) for n in range(4)])
        assert f.validate() == (True, None)
        assert not is_isomorphism(f)


def test_validate_catches_broken_identity():
    X = nerve_bg(C2, 2)
    faces = {k: list(v) for k, v in X.faces.items()}
    # corrupt d1 on the degenerate cell s0(g): d1 s0 = id must now fail;
    # level 1 is G, coded by the element indices
    faces[(2, 1)][X.degeneracy(1, 0, cell((1,), (2,)))] = cell((0,), (2,))
    Y = TruncatedSSet(2, X.levels, faces, X.degeneracies)
    ok, why = validate_simplicial(Y)
    assert not ok and "identity" in why


def nerve_c2_with(part, key, edit):
    """The 2-truncated nerve of C2 rebuilt with one table edited, or
    dropped when edit is None."""
    X = nerve_bg(C2, 2)
    tables = {"faces": dict(X.faces), "degeneracies": dict(X.degeneracies)}
    if edit is None:
        del tables[part][key]
    else:
        tables[part][key] = edit(tables[part][key].copy())
    return TruncatedSSet(2, X.levels, tables["faces"], tables["degeneracies"])


def set_entry(x, value):
    def edit(tab):
        tab[x] = value
        return tab
    return edit


def nerve_c2_map_with(truncation, n, x, y):
    """The identity of the nerve of C2 with cell x of level n sent to y."""
    X = nerve_bg(C2, truncation)
    comps = [np.arange(X.size(k)) for k in range(truncation + 1)]
    comps[n][x] = y
    return SimplicialMap(X, X, comps)


def point_and_edge(faces, degeneracies):
    return TruncatedSSet(1, [range(1), range(2)], {(1, 0): [0, 0], (1, 1): [0, 0], **faces},
                         {(0, 0): [0], **degeneracies})


@pytest.mark.parametrize("build, error, message", [
    (lambda: nerve_c2_with("faces", (2, 1), None),
     ShapeMismatch, "missing or misshapen face table (2,1)"),
    (lambda: nerve_c2_with("degeneracies", (1, 1), lambda tab: tab[:1]),
     ShapeMismatch, "missing or misshapen degeneracy table (1,1)"),
    (lambda: nerve_c2_with("faces", (2, 0), set_entry(3, 7)),
     IndexOutOfRange, "face (2,0) hits cell 7"),
    (lambda: nerve_c2_with("degeneracies", (1, 0), set_entry(1, 9)),
     IndexOutOfRange, "degeneracy (1,0) hits cell 9"),
    (lambda: point_and_edge({(7, 3): [5]}, {}),
     ShapeMismatch, "no place for a face table (7,3) in levels 0..1"),
    (lambda: point_and_edge({}, {(1, 0): [0, 0]}),
     ShapeMismatch, "no place for a degeneracy table (1,0) in levels 0..1"),
    (lambda: nerve_c2_map_with(3, 3, 7, 0).validate(),
     None, "face (3,0) not preserved at cell 7"),
    (lambda: nerve_c2_map_with(1, 1, 0, 1).validate(),
     None, "degeneracy (0,0) not preserved at cell 0"),
    (lambda: fiber_product(identity_map(nerve_bg(C2, 2)), nerve_c2_map_with(2, 1, 1, 0)),
     IndexOutOfRange, "face (2,0) leaves the fiber product"),
    (lambda: fiber_product(identity_map(nerve_bg(C2, 1)), nerve_c2_map_with(1, 1, 0, 1)),
     IndexOutOfRange, "degeneracy (0,0) leaves the fiber product"),
], ids=["missing-face", "misshapen-degeneracy", "face-out-of-range",
        "degeneracy-out-of-range", "stray-face", "stray-degeneracy", "map-face",
        "map-degeneracy", "fiber-product-face", "fiber-product-degeneracy"])
def test_table_messages(build, error, message):
    # the exact text of the first failing table, which the walk over the
    # table keys must keep
    if error is None:
        assert build() == (False, message)
    else:
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def monoid_nerve(table):
    """The 3-truncated nerve of a finite monoid with identity 0, given by
    its multiplication table, built like nerve_bg."""
    T = np.array(table)
    k = len(table)
    tables = {"face": {}, "degeneracy": {}}
    for kind, n, i, m in simplicial._table_keys(3):
        g = simplicial.grid((k,) * n)
        parts = simplicial.nerve_face(T, g, i) if kind == "face" else g[:i] + [0] + g[i:]
        tables[kind][(n, i)] = simplicial.flat(simplicial.encode(parts, (k,) * m), (k,) * n)
    return TruncatedSSet(3, [range(k**n) for n in range(4)], tables["face"],
                         tables["degeneracy"])


def on_base(X, t):
    """X, a set on no base, as a set on a set of its levels 0..t."""

    def levels(low, high, base):
        tables = {"face": {}, "degeneracy": {}}
        for kind, n, i, _ in simplicial._table_keys(high, low):
            tables[kind][(n, i)] = X.tables[kind][(n, i)]
        return TruncatedSSet(high, X.levels[low:high + 1], tables["face"],
                             tables["degeneracy"], base=base)

    return levels(t + 1, X.truncation, levels(0, t, None))


def to_idempotent(top):
    """The point's n-cell sent to (g, ..., g) in the nerve of {e, g} with
    g g = g, except that its 3-cell goes to top (a code of 3 digits).  Every
    face is preserved below level 3 and no degeneracy is: s_0 of the point
    goes to e, not g.  Returns the map with no base and the same map on a
    base of levels 0..2."""
    point, M = on_base(monoid_nerve([[0]]), 2), on_base(monoid_nerve([[0, 1], [1, 1]]), 2)
    comps = [[0], [1], [3], [top]]
    base = SimplicialMap(point.base, M.base, comps[:3])
    return SimplicialMap(point, M, comps), SimplicialMap(point, M, comps[3:], base)


# the 3-cell (g, g, g) keeps every face; (g, g, e) moves d_0
ALL_G, LAST_E = 7, 6


@pytest.mark.parametrize("top, first", [
    (LAST_E, "face (3,0) not preserved at cell 0"),
    (ALL_G, "degeneracy (0,0) not preserved at cell 0"),
], ids=["level3-face-first", "base-alone"])
def test_a_map_on_a_base_reports_the_first_failure_of_its_components(top, first):
    # the base fails degeneracy (0,0); a face of level 3 comes before it in
    # key order, so a base that fails must not end the check
    plain, based = to_idempotent(top)
    assert based.base.validate() == (False, "degeneracy (0,0) not preserved at cell 0")
    assert plain.validate() == based.validate() == (False, first)


@pytest.mark.parametrize("top, first", [
    (LAST_E, "face (3,0) leaves the fiber product"),
    (ALL_G, "degeneracy (0,0) leaves the fiber product"),
], ids=["level3-face-first", "base-alone"])
def test_fiber_product_on_bases_raises_the_first_failure(top, first):
    # pairs (point, y) with y the image of the point: the point's
    # degeneracies land on e, where the second factor does not follow
    plain, based = to_idempotent(top)
    ident = identity_map(based.dst)
    assert ident.base is identity_map(based.dst).base is not None
    with pytest.raises(IndexOutOfRange, match=r"degeneracy \(0,0\)"):
        fiber_product(based.base, ident.base)
    for f, g in ((plain, ident), (based, ident)):
        with pytest.raises(IndexOutOfRange) as info:
            fiber_product(f, g)
        assert str(info.value) == first


def test_mediating_map_on_bases_raises_the_first_failure():
    # P is the diagonal of the idempotent nerve; (f, e) with e the degenerate
    # map leaves it at level 1, in the base
    _, based = to_idempotent(ALL_G)
    ident = identity_map(based.dst)
    P, px, py = fiber_product(ident, ident)
    assert P.base is not None and px.base is not None
    point = based.src
    degenerate = SimplicialMap(point, based.dst, [[0]], SimplicialMap(
        point.base, based.dst.base, [[0], [0], [0]]))
    plain = [SimplicialMap(h.src, h.dst, h.components) for h in (based, degenerate)]
    for p, q in ((based, degenerate), plain):
        with pytest.raises(IndexOutOfRange) as info:
            mediating_map(P, px, py, p, q)
        assert str(info.value) == "(p, q) leaves the fiber product at level 1"


def test_maps_on_bases_match_the_maps_without():
    # the Duskin nerve and the pullback model of one class share a frame,
    # and the maps built on it agree with the same components built whole
    from twogrp.correspondence import canonical_iso, duskin_nerve, pullback_model
    from twogrp.twogroup import TwoGroupSkeleton

    sk = TwoGroupSkeleton(c2_nontrivial())
    X, Y = duskin_nerve(sk), pullback_model(sk)
    iso = canonical_iso(X, Y, Z2)
    plain = SimplicialMap(X, Y, iso.components)
    assert iso.base is identity_map(X).base is not None and plain.base is None
    inv, plain_inv = inverse_map(iso), inverse_map(plain)
    # the base's inverse and composite are kept on the base
    assert inv.base is inverse_map(iso).base is not None
    assert inv.compose(iso).base is inv.compose(iso).base is not None
    for f, g in ((iso, plain), (inv, plain_inv), (inv.compose(iso), plain_inv.compose(plain)),
                 (identity_map(X), SimplicialMap(X, X, identity_map(X).components))):
        assert same_components(f, g)
        assert f.validate() == g.validate() == (True, None)
        assert is_isomorphism(f) and is_isomorphism(g)
    P, px, py = fiber_product(cocycle_as_map(c2_nontrivial(), 3), decalage_map(Z2, 3))
    Q, qx, qy = fiber_product(*(SimplicialMap(f.src, f.dst, f.components) for f in (
        cocycle_as_map(c2_nontrivial(), 3), decalage_map(Z2, 3))))
    assert P.base is not None and Q.base is None
    assert P.to_json() == Q.to_json()
    assert same_components(px, qx) and same_components(py, qy)
    assert validate_simplicial(P) == validate_simplicial(Q) == (True, None)


@pytest.mark.parametrize("base, error, message", [
    (lambda X: 5, ShapeMismatch, "base must be a SimplicialMap, got int"),
    (lambda X: identity_map(TruncatedSSet.from_json(nerve_bg(C2, 2).to_json())), ShapeMismatch,
     "the base is not a map of levels 0..2 of the source and target"),
    (lambda X: identity_map(X), TruncationMismatch, "base truncation 3 is not below 3"),
    (lambda X: identity_map(simplicial._lower(X, 1)), ShapeMismatch,
     "need one component per level"),
], ids=["not-a-map", "other-sets", "truncation-not-below", "truncation-too-low"])
def test_bad_bases_are_refused(base, error, message):
    # a copy of nerve_bg(C2, 2) read from JSON has the tables of levels 0..2
    # of the nerve, but it is not the set that the map's base must be
    X = nerve_bg(C2, 3)
    with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
        SimplicialMap(X, X, [np.arange(X.size(3))], base(X))


def test_a_map_of_a_tower_sits_on_a_map_of_its_lower_truncation():
    # nerve_bg(C2, 2) is levels 0..2 of nerve_bg(C2, 3), so its identity is
    # a base for a map of the 3-truncation
    X = nerve_bg(C2, 3)
    f = SimplicialMap(X, X, [np.arange(X.size(3))], identity_map(nerve_bg(C2, 2)))
    assert same_components(f, identity_map(X))
    assert f.validate() == (True, None) and is_isomorphism(f)


def test_horns_and_fillers_nerve():
    X = nerve_bg(dihedral(3), 3)
    obj = X.to_json()
    faces = {tuple(map(int, k.split(","))): v for k, v in obj["faces"].items()}
    for n in (2, 3):
        for missing in range(n + 1):
            horns = enumerate_horns(X, n, missing)
            # the nerve of a group has unique fillers at every level >= 2,
            # so compatible horns biject with the cells they bound
            assert len(horns) == X.size(n)
            assert [h.key() for h in horns] == brute_compatible_horns(
                faces, obj["levels"], n, missing)
            for horn in horns:
                assert len(fillers(X, horn)) == 1
    ok, bad = is_kan(X)
    assert ok and bad is None


def test_inner_horn_filler_counts_wbar():
    for A in (Z2, AbelianGroup([3])):
        Wb = wbar_b2a(A, 3)
        for missing in range(3):
            horns = enumerate_horns(Wb, 2, missing)
            assert len(horns) == 1
            assert len(fillers(Wb, horns[0])) == 1
        for missing in range(4):
            for horn in enumerate_horns(Wb, 3, missing):
                assert len(fillers(Wb, horn)) >= 1
        ok, _ = is_kan(Wb)
        assert ok


def test_non_kan_example():
    # nerve of the multiplicative monoid {1, 0}: the outer horn with
    # d1 = (1), d2 = (0) needs y with 0 * y = 1 and has no filler
    M = [[0, 1], [1, 1]]  # index 0 is the unit, index 1 absorbs

    def mul(x, y):
        return M[x][y]

    levels = [[()], [(x,) for x in range(2)],
              [(x, y) for x in range(2) for y in range(2)]]
    index = [{c: i for i, c in enumerate(lv)} for lv in levels]
    faces = {
        (1, 0): [0, 0],
        (1, 1): [0, 0],
        (2, 0): [index[1][(y,)] for x, y in levels[2]],
        (2, 1): [index[1][(mul(x, y),)] for x, y in levels[2]],
        (2, 2): [index[1][(x,)] for x, y in levels[2]],
    }
    degeneracies = {
        (0, 0): [index[1][(0,)]],
        (1, 0): [index[2][(0, x)] for (x,) in levels[1]],
        (1, 1): [index[2][(x, 0)] for (x,) in levels[1]],
    }
    X = TruncatedSSet(2, levels, faces, degeneracies)
    ok, why = validate_simplicial(X)
    assert ok, why
    ok, bad = is_kan(X)
    assert not ok
    assert not fillers(X, bad)
    assert bad.key() in brute_compatible_horns(faces, [1, 2, 4], bad.n, bad.missing)


def test_horn_validation():
    X = nerve_bg(C2, 3)
    with pytest.raises(ShapeMismatch):
        Horn(2, 1, {0: 0})
    with pytest.raises(IndexOutOfRange):
        Horn(2, 5, {0: 0, 1: 0})


def test_horn_of_numpy_integers_is_plain_json():
    # a horn keeps its dimension, missing index and faces as Python ints, so
    # one built from numpy integers writes the same JSON as a plain one
    horn = Horn(np.int64(2), np.int64(0), {np.int64(1): np.int64(0), 2: 0})
    assert json.dumps(horn.to_json()) == json.dumps(Horn(2, 0, {1: 0, 2: 0}).to_json())
    assert horn.key() == (0, 0) and all(type(x) is int for x in horn.key())


@pytest.mark.parametrize("n, missing, error", [
    (0, 0, DimensionBound), (4, 0, DimensionBound), (5, 0, DimensionBound),
    (-1, 0, DimensionBound), (2, 9, IndexOutOfRange), (2, -1, IndexOutOfRange),
    (1, 2, IndexOutOfRange),
])
def test_horn_type_out_of_range(n, missing, error):
    X = nerve_bg(C2, 3)
    with pytest.raises(error):
        filler_counts(X, n, missing)
    with pytest.raises(error):
        enumerate_horns(X, n, missing)
    if 0 <= missing <= n:
        with pytest.raises(error):
            fillers(X, Horn(n, missing, {j: 0 for j in range(n + 1) if j != missing}))


@pytest.mark.parametrize("call, error, match", [
    # each used to raise an AttributeError
    (lambda: nerve_bg(5, 3), ShapeMismatch, "group must be a FiniteGroup, got int"),
    (lambda: wbar_b2a(5, 3), ShapeMismatch, "coefficients must be an AbelianGroup, got int"),
    (lambda: cocycle_as_map(5), ShapeMismatch, "associator must be a Cochain, got int"),
    (lambda: fiber_product(1, 2), ShapeMismatch, "f must be a SimplicialMap, got int"),
    (lambda: validate_simplicial(5), ShapeMismatch,
     "simplicial set must be a TruncatedSSet, got int"),
    (lambda: SimplicialMap(nerve_bg(C2, 3), 5, []), ShapeMismatch,
     "target must be a TruncatedSSet, got int"),
    # each used to raise a TypeError
    (lambda: gamma_a2(Z2, "x"), TruncationMismatch, "gamma_a2 truncation must be an integer"),
    (lambda: wbar_b2a(Z2, "x"), TruncationMismatch, "wbar_b2a truncation must be an integer"),
    (lambda: w_b2a(Z2, 2.5), TruncationMismatch, "w_b2a truncation must be an integer"),
    (lambda: is_kan(nerve_bg(C2, 3), "a"), DimensionBound, "got up_to = 'a'"),
    (lambda: Horn(2, "a", {}), ShapeMismatch, "must be integers"),
    # each used to answer with the set or map cached for truncation 1
    (lambda: (w_b2a(Z2, 1), w_b2a(Z2, True)), TruncationMismatch, "integer, got True"),
    (lambda: (decalage_map(Z2, 1), decalage_map(Z2, True)), TruncationMismatch,
     "integer, got True"),
    # used to raise a ValueError
    (lambda: TruncatedSSet("x", [], {}, {}), TruncationMismatch, "integer, got 'x'"),
    # used to answer [] for a face that level 1 does not have
    (lambda: fillers(nerve_bg(C2, 3), Horn(2, 0, {1: 0, 2: 99})), IndexOutOfRange,
     "horn face 99 is not a cell of level 1"),
    # used to raise a TypeError inside the cache
    (lambda: wbar_b2a([1], 3), ShapeMismatch, "coefficients must be an AbelianGroup, got list"),
    # each used to raise an AttributeError
    (lambda: is_kan(5), ShapeMismatch, "simplicial set must be a TruncatedSSet, got int"),
    (lambda: filler_counts(5, 2, 0), ShapeMismatch,
     "simplicial set must be a TruncatedSSet, got int"),
    (lambda: enumerate_horns(5, 2, 0), ShapeMismatch,
     "simplicial set must be a TruncatedSSet, got int"),
    (lambda: fillers(nerve_bg(C2, 3), 5), ShapeMismatch, "horn must be a Horn, got int"),
    (lambda: identity_map(5), ShapeMismatch, "simplicial set must be a TruncatedSSet, got int"),
    (lambda: inverse_map(5), ShapeMismatch, "map must be a SimplicialMap, got int"),
    (lambda: is_isomorphism(5), ShapeMismatch, "map must be a SimplicialMap, got int"),
    (lambda: identity_map(nerve_bg(C2, 3)).compose(5), ShapeMismatch,
     "other map must be a SimplicialMap, got int"),
    (lambda: mediating_map(1, 2, 3, 4, 5), ShapeMismatch,
     "fiber product must be a TruncatedSSet, got int"),
    (lambda: mediating_map(nerve_bg(C2, 3), 2, 3, 4, 5), ShapeMismatch,
     "proj_x must be a SimplicialMap, got int"),
    # each used to raise a TypeError inside the cache
    (lambda: nerve_bg([1], 3), ShapeMismatch, "group must be a FiniteGroup, got list"),
    (lambda: gamma_a2([1], 3), ShapeMismatch, "coefficients must be an AbelianGroup, got list"),
    (lambda: w_b2a([1], 3), ShapeMismatch, "coefficients must be an AbelianGroup, got list"),
    (lambda: decalage_map([1], 3), ShapeMismatch,
     "coefficients must be an AbelianGroup, got list"),
    (lambda: w_b2a(Z2, [3]), TruncationMismatch, r"integer, got \[3\]"),
    # each used to raise a TypeError
    (lambda: Horn(2, 0, 5), ShapeMismatch, "horn's faces must be a Mapping, got int"),
    (lambda: TruncatedSSet(3, 5, {}, {}), ShapeMismatch, "levels must be a sequence"),
    (lambda: TruncatedSSet(1, [[0], [0]], 5, {}), ShapeMismatch,
     "face tables must be a Mapping, got int"),
    (lambda: SimplicialMap(nerve_bg(C2, 1), nerve_bg(C2, 1), 5), ShapeMismatch,
     "components must be a sequence of tables, got int"),
    # used to raise an AttributeError
    (lambda: TruncatedSSet(3, [[0]], {}, {}, base=5), ShapeMismatch,
     "base must be a TruncatedSSet, got int"),
    # used to raise an IndexError, a KeyError, and to answer cell 7's face
    (lambda: nerve_bg(C2, 3).face(3, 0, "a"), ShapeMismatch, "must be integers"),
    (lambda: nerve_bg(C2, 3).face(9, 0, 0), IndexOutOfRange, r"no face \(9,0\) of cell 0"),
    (lambda: nerve_bg(C2, 3).face(3, 0, -1), IndexOutOfRange, r"no face \(3,0\) of cell -1"),
    # used to answer the last level's size and the last cell's image
    (lambda: nerve_bg(C2, 3).size(-1), IndexOutOfRange, "no level -1 in levels 0..3"),
    (lambda: identity_map(nerve_bg(C2, 3))(3, -1), IndexOutOfRange, "no cell -1 at level 3"),
], ids=["nerve-int", "wbar-int", "cocycle-map-int", "fiber-product-int", "validate-int",
        "map-int-target", "gamma-str-truncation", "wbar-str-truncation",
        "w-float-truncation", "kan-str-up-to", "horn-str-missing", "w-bool-truncation",
        "decalage-bool-truncation", "sset-str-truncation", "fillers-stray-face",
        "wbar-unhashable", "kan-int",
        "filler-counts-int", "enumerate-horns-int", "fillers-int-horn", "identity-int",
        "inverse-int", "is-isomorphism-int", "compose-int", "mediating-int",
        "mediating-int-projection", "nerve-unhashable", "gamma-unhashable", "w-unhashable",
        "decalage-unhashable", "w-list-truncation", "horn-int-faces", "sset-int-levels",
        "sset-int-faces", "map-int-components", "sset-int-base", "face-str-cell",
        "face-missing-level", "face-negative-cell", "size-negative-level",
        "map-negative-cell"])
def test_malformed_simplicial_arguments_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call, error, match", [
    (lambda: point_and_edge({(1, 0): [[0], [0, 1]]}, {}), ShapeMismatch,
     r"face table \(1, 0\) is not a flat integer table"),
    (lambda: point_and_edge({(1, 0): [0.5, 0.0]}, {}), ShapeMismatch,
     r"face table \(1, 0\) is not a flat integer table"),
    (lambda: TruncatedSSet(-1, [], {}, {}), TruncationMismatch, "must be >= 0, got -1"),
    (lambda: TruncatedSSet.from_json({"truncation": 1, "levels": [1, 2],
                                      "faces": {"1,0": [2**64, 0], "1,1": [0, 0]},
                                      "degeneracies": {"0,0": [0]}}),
     ParseError, "holds an entry out of range"),
    (lambda: SimplicialMap(nerve_bg(C2, 2), nerve_bg(C2, 3), []), TruncationMismatch,
     "truncations differ"),
    (lambda: SimplicialMap(nerve_bg(C2, 1), nerve_bg(C2, 1), [[0]]), ShapeMismatch,
     "one component per level"),
    (lambda: SimplicialMap(nerve_bg(C2, 1), nerve_bg(C2, 1), [[0], [0, 2]]), IndexOutOfRange,
     "component 1 hits cell 2"),
    (lambda: w_b2a(Z2, 5), DimensionBound, "w_b2a supports truncation at most 4"),
    (lambda: wbar_b2a(Z2, 5), DimensionBound, "wbar_b2a supports truncation at most 4"),
    (lambda: cocycle_as_map(Cochain.zero(C2, Z2, 2)), DegreeMismatch, "degree-3"),
], ids=["ragged-table", "float-table", "negative-truncation", "json-entry-past-int64",
        "map-truncations", "map-component-count", "map-component-range", "w-truncation-5",
        "wbar-truncation-5", "cocycle-map-degree-2"])
def test_every_refusal_is_reached(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_among_an_empty_array():
    keys = np.array([0, 3], dtype=np.int64)
    assert simplicial._among(np.zeros(0, dtype=np.int64), keys).tolist() == [False, False]


def test_index_table_shares_only_frozen_owned_arrays():
    frozen = np.arange(4, dtype=np.int64)
    frozen.flags.writeable = False
    assert simplicial._index_table(frozen, "t") is frozen
    writable = np.arange(4, dtype=np.int64)
    view = writable[:]
    view.flags.writeable = False
    for arr in (writable, view, frozen.astype(np.int32), [0, 1, 2, 3]):
        out = simplicial._index_table(arr, "t")
        assert out is not arr and not out.flags.writeable
        assert not np.shares_memory(out, writable)
    writable[0] = 9
    assert simplicial._index_table(view, "t")[0] == 9


def test_tables_and_components_are_read_only():
    # checks keep their results on the object, so nothing may swap a table
    X = nerve_bg(C2, 3)
    f = identity_map(X)
    for tables in (X.faces, X.degeneracies):
        with pytest.raises(TypeError):
            tables[(1, 0)] = tables[(1, 0)]
        with pytest.raises(TypeError):
            del tables[(1, 0)]
    assert X.tables["face"] is X.faces and X.tables["degeneracy"] is X.degeneracies
    with pytest.raises(TypeError):
        X.tables["face"] = X.degeneracies
    with pytest.raises(TypeError):
        f.components[0] = f.components[0]


def test_set_on_a_base():
    N = nerve_bg(C2, 3)
    base = TruncatedSSet(2, N.levels[:3], {k: v for k, v in N.faces.items() if k[0] <= 2},
                         {k: v for k, v in N.degeneracies.items() if k[0] <= 1})
    faces3 = {k: v for k, v in N.faces.items() if k[0] == 3}
    degs3 = {k: v for k, v in N.degeneracies.items() if k[0] == 2}
    X = TruncatedSSet(3, N.levels[3:], faces3, degs3, base=base)
    assert X.to_json() == N.to_json()
    assert all(X.faces[k] is base.faces[k] for k in base.faces)
    assert is_kan(X) == (True, None) and validate_simplicial(X) == (True, None)
    # a broken base: its witnesses are the set's, at every up_to
    non_kan = 0
    # (s0 on level 0 breaks only an identity below level 3)
    for part, key, x, value in (("faces", (2, 1), 1, 0), ("faces", (2, 0), 1, 0),
                                ("faces", (2, 2), 2, 0), ("degeneracies", (0, 0), 0, 1)):
        tables = {"faces": dict(base.faces), "degeneracies": dict(base.degeneracies)}
        tab = tables[part][key] = tables[part][key].copy()
        tab[x] = value
        broken = TruncatedSSet(2, N.levels[:3], tables["faces"], tables["degeneracies"])
        Y = TruncatedSSet(3, N.levels[3:], faces3, degs3, base=broken)
        Z = TruncatedSSet.from_json(Y.to_json())
        assert validate_simplicial(Y) == validate_simplicial(Z) != (True, None)
        for up_to in (1, 2, 3):
            got = [(ok, horn and (horn.n, horn.missing, horn.key()))
                   for ok, horn in (is_kan(Y, up_to), is_kan(Z, up_to))]
            assert got[0] == got[1]
            non_kan += not got[0][0]
    assert non_kan >= 3
    with pytest.raises(TruncationMismatch):
        TruncatedSSet(2, [], {}, {}, base=base)
    with pytest.raises(TruncationMismatch):
        TruncatedSSet(3, N.levels[2:], faces3, degs3, base=base)
    with pytest.raises(ShapeMismatch):
        TruncatedSSet(3, N.levels[3:], {**faces3, (2, 0): N.faces[(2, 0)]}, degs3,
                      base=base)
    with pytest.raises(ShapeMismatch):
        TruncatedSSet(3, N.levels[3:], faces3, {(2, 0): degs3[(2, 0)]}, base=base)
    # a table above the truncation or past face index n is refused by key
    for key in ((4, 0), (3, 4), (3, -1)):
        with pytest.raises(ShapeMismatch, match=r"face table \(%d,%d\)" % key):
            TruncatedSSet(3, N.levels[3:], {**faces3, key: faces3[(3, 0)]}, degs3,
                          base=base)
    with pytest.raises(ShapeMismatch, match=r"degeneracy table \(3,0\)"):
        TruncatedSSet(3, N.levels[3:], faces3, {**degs3, (3, 0): degs3[(2, 0)]},
                      base=base)


def test_json_round_trip():
    X = wbar_b2a(AbelianGroup([3]), 3)
    obj = X.to_json()
    assert obj["levels"] == [1, 1, 1, 3]
    Y = TruncatedSSet.from_json(obj)
    for tables, ref in ((Y.faces, X.faces), (Y.degeneracies, X.degeneracies)):
        assert sorted(tables) == sorted(ref)
        assert all(np.array_equal(tables[k], ref[k]) for k in ref)
    ok, why = validate_simplicial(Y)
    assert ok, why


def test_dimension_bounds():
    with pytest.raises(DimensionBound):
        gamma_a2(Z2, 5)
    with pytest.raises(DimensionBound):
        cocycle_as_map(c2_nontrivial(), 5)
    with pytest.raises(DimensionBound):
        nerve_bg(dihedral(4), 7)

    # every set's truncation keeps the nerve's bound
    def point(truncation):
        """The set with one cell per level."""
        faces = {(n, i): [0] for n in range(1, truncation + 1) for i in range(n + 1)}
        degs = {(n, i): [0] for n in range(truncation) for i in range(n + 1)}
        return TruncatedSSet(truncation, [range(1)] * (truncation + 1), faces, degs)

    assert point(31).size(31) == 1
    with pytest.raises(DimensionBound, match="truncation 32 exceeds bound 31"):
        point(32)


def corrupted_nerves():
    """Seeded corruptions of nerve face tables as JSON objects: one to three
    entries of face tables moved to another in-range cell."""
    rng = random.Random(20261018)
    for G, trunc in [(C2, 3), (cyclic(3), 3), (dihedral(3), 2)]:
        for _ in range(20):
            obj = nerve_bg(G, trunc).to_json()
            for _ in range(rng.randint(1, 3)):
                key = rng.choice(sorted(obj["faces"]))
                n = int(key.split(",")[0])
                table = obj["faces"][key]
                table[rng.randrange(len(table))] = rng.randrange(obj["levels"][n - 1])
            yield obj


def test_kan_witness_and_horn_order_match_oracle():
    total = non_kan = 0
    for obj in corrupted_nerves():
        X = TruncatedSSet.from_json(obj)
        sizes = obj["levels"]
        faces = {tuple(map(int, k.split(","))): v for k, v in obj["faces"].items()}
        want = brute_first_unfilled_horn(faces, sizes, obj["truncation"])
        ok, horn = is_kan(X)
        total += 1
        if want is None:
            assert ok and horn is None
        else:
            non_kan += 1
            assert not ok
            assert (horn.n, horn.missing, horn.key()) == want
            assert fillers(X, horn) == []
        for n in range(1, X.truncation + 1):
            for missing in range(n + 1):
                got = [h.key() for h in enumerate_horns(X, n, missing)]
                assert got == brute_compatible_horns(faces, sizes, n, missing)
    assert non_kan > total // 2


@pytest.mark.parametrize("code_bound", [simplicial.CODE_BOUND, 4],
                         ids=["direct-codes", "ranked-codes"])
def test_filler_counts_match_oracle(monkeypatch, code_bound):
    # a low bound makes the filler index rank its codes at every face, the
    # path that keeps codes of big levels inside int64
    monkeypatch.setattr(simplicial, "CODE_BOUND", code_bound)
    for obj in itertools.islice(corrupted_nerves(), 0, 60, 6):
        X = TruncatedSSet.from_json(obj)
        sizes = obj["levels"]
        faces = {tuple(map(int, k.split(","))): v for k, v in obj["faces"].items()}
        want = brute_first_unfilled_horn(faces, sizes, obj["truncation"])
        ok, horn = is_kan(X)
        assert (ok, horn and (horn.n, horn.missing, horn.key())) == (want is None, want)
        for n in range(1, X.truncation + 1):
            for missing in range(n + 1):
                slots = [j for j in range(n + 1) if j != missing]
                horns = brute_compatible_horns(faces, sizes, n, missing)
                cells = [
                    [z for z in range(sizes[n])
                     if all(faces[(n, j)][z] == c for j, c in zip(slots, cells))]
                    for cells in horns
                ]
                assert filler_counts(X, n, missing).tolist() == [len(c) for c in cells]
                for key, want_fillers in zip(horns, cells):
                    horn = Horn(n, missing, dict(zip(slots, key)))
                    assert fillers(X, horn) == want_fillers


def nerves_corrupted_on_top():
    """(G, N, faces, degeneracies) with the tables of level N alone: one per
    corrupted_nerves() set whose corruption lies in its top level N, then
    seeded copies of those nerves with one entry of a degeneracy table into
    level N moved to another cell, whose faces hold but whose validation
    fails."""
    groups = {G.order: G for G in (C2, cyclic(3), dihedral(3))}
    out = []
    for obj in corrupted_nerves():
        N, G = obj["truncation"], groups[obj["levels"][1]]
        faces = {tuple(map(int, k.split(","))): v for k, v in obj["faces"].items()}
        clean = nerve_bg(G, N)
        if all(faces[k] == v.tolist() for k, v in clean.faces.items() if k[0] < N):
            out.append((G, N, {k: v for k, v in faces.items() if k[0] == N},
                        {k: v for k, v in clean.degeneracies.items() if k[0] == N - 1}))
    rng = random.Random(20261022)
    for G, N in [(C2, 3), (cyclic(3), 3), (dihedral(3), 2)]:
        X = nerve_bg(G, N)
        for _ in range(3):
            degs = {k: v.copy() for k, v in X.degeneracies.items() if k[0] == N - 1}
            tab = degs[rng.choice(sorted(degs))]
            x = rng.randrange(len(tab))
            tab[x] = (tab[x] + rng.randrange(1, X.size(N))) % X.size(N)
            out.append((G, N, {k: v for k, v in X.faces.items() if k[0] == N}, degs))
    return out


def simplex(m, N):
    """The standard m-simplex truncated at N, as level N on its levels
    0..N-1: level k lists the monotone maps [k] -> [m] as value tuples,
    lexicographic.  It validates, and for m >= 1 it is not Kan."""
    cells = [list(itertools.combinations_with_replacement(range(m + 1), k + 1))
             for k in range(N + 1)]
    pos = [{c: x for x, c in enumerate(level)} for level in cells]

    def tables(low, high):
        faces = {(k, i): [pos[k - 1][c[:i] + c[i + 1:]] for c in cells[k]]
                 for k in range(max(1, low), high + 1) for i in range(k + 1)}
        degs = {(k, i): [pos[k + 1][c[:i + 1] + c[i:]] for c in cells[k]]
                for k in range(max(0, low - 1), high) for i in range(k + 1)}
        return faces, degs

    base = TruncatedSSet(N - 1, [range(len(level)) for level in cells[:N]], *tables(0, N - 1))
    return TruncatedSSet(N, [range(len(cells[N]))], *tables(N, N), base=base)


@pytest.mark.parametrize("capped", [False, True], ids=["real-cap", "low-cap"])
def test_kan_on_a_base_matches_oracle(monkeypatch, capped):
    # the horn count kept on a base decides only for sets that validate;
    # every other verdict, and every witness, comes from the block walk.
    # Under a low cap, on fresh bases, the counts stop and their types walk
    # their horns, with the same answers
    built = []
    for G, N, faces, degs in nerves_corrupted_on_top():
        base = nerve_bg(G, N - 1)
        if capped:
            base = TruncatedSSet.from_json(base.to_json())  # nothing kept on it yet
        built.append(TruncatedSSet(N, [range(G.order**N)], faces, degs, base=base))
    built += [simplex(1, 3), simplex(2, 3)]
    if capped:
        monkeypatch.setattr(simplicial, "MAX_CELLS_PER_LEVEL", 1)
        monkeypatch.setattr(simplicial, "HORN_BLOCK", 8)
    verdicts, stopped = set(), 0
    for X in built:
        N = X.truncation
        faces = {k: v.tolist() for k, v in X.faces.items()}
        sizes = [X.size(n) for n in range(N + 1)]
        want = brute_first_unfilled_horn(faces, sizes, N)
        ok, horn = is_kan(X)
        assert (ok, horn and (horn.n, horn.missing, horn.key())) == (want is None, want)
        verdicts.add((validate_simplicial(X)[0], ok))
        for n in range(1, N + 1):
            for missing in range(n + 1):
                slots = [j for j in range(n + 1) if j != missing]
                signatures = {tuple(faces[(n, j)][z] for j in slots) for z in range(sizes[n])}
                assert simplicial._filler_index(X, n, missing).distinct == len(signatures)
        counts, Y = [], X
        while Y is not None:  # the counts are kept on the sets of X's base chain
            counts += [v for k, v in Y._derived.items() if k[0] == "horn count"]
            Y = Y.base
        assert counts
        assert all(c <= simplicial.MAX_CELLS_PER_LEVEL + simplicial.HORN_BLOCK for c in counts)
        stopped += any(c > simplicial.MAX_CELLS_PER_LEVEL for c in counts)
    # sets that fail validation with and without an unfilled horn, and
    # sets that validate with one
    assert {(False, False), (False, True), (True, False)} <= verdicts
    assert stopped if capped else not stopped


def test_kan_keeps_nothing_per_horn_on_a_base():
    # a set that fails validation on a base with S^3 compatible 3-horns: its
    # verdict walks the horns in blocks, as for its from_json copy, and
    # keeps nothing per horn on the base
    S = 200
    zeros = np.zeros(S, dtype=np.int64)
    base = TruncatedSSet(2, [range(1), range(1), range(S)],
                         {(1, 0): [0], (1, 1): [0], **{(2, i): zeros for i in range(3)}},
                         {(0, 0): [0], (1, 0): [0], (1, 1): [0]})
    X = TruncatedSSet(3, [range(1)], {(3, i): [0] for i in range(4)},
                      {(2, i): zeros for i in range(3)}, base=base)
    assert validate_simplicial(base)[0] and not validate_simplicial(X)[0]
    assert len(enumerate_horns(base, 2, 0)) == 1 and filler_counts(base, 2, 0).tolist() == [S]
    want = (False, (3, 0, {1: 0, 2: 0, 3: 1}))
    tracemalloc.start()
    try:
        ok, horn = is_kan(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ok, (horn.n, horn.missing, horn.faces)) == want
    assert peak < 16 << 20
    ok, horn = is_kan(TruncatedSSet.from_json(X.to_json()))
    assert (ok, (horn.n, horn.missing, horn.faces)) == want
