import itertools
import random

import numpy as np
import pytest

from twogrp.coeff import AbelianGroup
from twogrp.cochain import Cochain, is_cocycle
from twogrp.errors import (
    DimensionBound,
    IndexOutOfRange,
    NotACocycle,
    ShapeMismatch,
    TruncationMismatch,
)
from twogrp.group import cyclic, dihedral
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

from oracles import brute_compatible_horns, brute_first_unfilled_horn

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
