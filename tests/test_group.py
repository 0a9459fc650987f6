import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twogrp.errors import (
    IndexOutOfRange,
    NotAGroup,
    ParseError,
    SizeBound,
    UnsupportedSpec,
)
from twogrp.group import (
    FiniteGroup,
    cyclic,
    dihedral,
    group_automorphisms,
    group_construct,
    product,
    symmetric,
)

import oracles


def test_cyclic_basics():
    G = cyclic(4)
    assert G.order == 4
    assert G.is_abelian()
    assert G.mul(1, 3) == 0
    assert G.inv(1) == 3
    assert G.element_order(1) == 4


def test_mul_and_inv_refuse_other_elements():
    G = cyclic(4)
    with pytest.raises(IndexOutOfRange, match=r"\(1, 4\)"):
        G.mul(1, 4)
    with pytest.raises(IndexOutOfRange, match="-1"):
        G.inv(-1)


def test_cyclic_three_inverse():
    G = cyclic(3)
    assert G.mul(1, 2) == 0


def test_dihedral():
    G = dihedral(3)
    assert G.order == 6
    assert not G.is_abelian()
    orders = sorted(G.element_order(x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    # n = 1 is the smallest family member: r is trivial and s has order 2
    G = dihedral(1)
    assert (G.order, G.name) == (2, "dihedral:1")
    assert G.table == ((0, 1), (1, 0))


def test_symmetric():
    G = symmetric(3)
    assert G.order == 6
    assert not G.is_abelian()
    with pytest.raises(UnsupportedSpec):
        symmetric(5)


def test_non_integers_are_refused():
    # no entry or family size is truncated or parsed into an integer
    for entry in (1.5, 1.0, True, "1"):
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup([[0, entry], [entry, 0]])
        assert (exc.value.reason, exc.value.witness) == ("closure", (entry,))
    # in row order: a float before a short row, a short row before a float
    for table, witness in (([[0, 1.5], [1, 0, 1]], (1.5,)), ([[0, 1, 1], [1.5, 0]], (3, 2))):
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup(table)
        assert exc.value.witness == witness
    assert FiniteGroup(np.array([[0, 1], [1, 0]], dtype=np.int32)).table == ((0, 1), (1, 0))
    for family in (cyclic, dihedral, symmetric):
        for n in (2.5, 3.0, "3", True):
            with pytest.raises(UnsupportedSpec):
                family(n)
    assert cyclic(np.int64(3)).name == "cyclic:3"


def test_product():
    G = product(cyclic(2), cyclic(2))
    assert G.order == 4
    assert all(G.element_order(x) in (1, 2) for x in range(4))


def test_spec_parsing():
    assert group_construct("cyclic:4").order == 4
    assert group_construct("dihedral:3").order == 6
    assert group_construct("product:cyclic:2,cyclic:3").order == 6
    nested = group_construct("product:product:cyclic:2,cyclic:2,cyclic:2")
    assert nested.order == 8
    for bad in ("cyclic", "cyclic:x", "frobnitz:3", "product:cyclic:2",
                "cyclic:4junk"):
        with pytest.raises((ParseError, UnsupportedSpec)):
            group_construct(bad)


def test_table_validation_witnesses():
    # identity must be index 0
    with pytest.raises(NotAGroup) as exc:
        FiniteGroup([[1, 0], [0, 1]])
    assert exc.value.reason == "identity"
    # no inverse (left-zero semigroup rows)
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1], [1, 1]])
    # broken associativity with valid identity and inverses
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup) as exc:
        FiniteGroup(table)
    assert exc.value.reason in ("associativity", "inverse")
    assert exc.value.witness is not None
    # closure: a row's length is checked before its entries, and rows in
    # order, so an entry out of range before a short row is the witness
    for table, witness in [
        ([[0, 1, 2], [1, 2, 0], [2, 0]], (2, 3)),
        ([[0, 1, 2], [1, 2], [2, 0, 7]], (2, 3)),
        ([[0, 1, 2], [1, 5, 0], [2]], (5,)),
        ([[0, 2**70], [1, 0]], (2**70,)),
        ([[0, 1], [1, -1, 0]], (3, 2)),
        ([[0, -2**70], [1]], (-2**70,)),
        ([], ()),
    ]:
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup(table)
        assert (exc.value.reason, exc.value.witness) == ("closure", witness), table


def test_group_json_round_trip():
    G = dihedral(4)
    H = FiniteGroup.from_json(G.to_json())
    assert H.table == G.table


def test_automorphism_counts():
    assert len(group_automorphisms(cyclic(2))) == 1
    assert len(group_automorphisms(cyclic(3))) == 2
    assert len(group_automorphisms(product(cyclic(2), cyclic(2)))) == 6


def test_automorphisms_of_cyclic_match_unit_count():
    for n in range(2, 13):
        count = sum(1 for k in range(1, n) if math.gcd(k, n) == 1)
        assert len(group_automorphisms(cyclic(n))) == count


def test_automorphisms_match_brute_force():
    # C2^3 is the only group here with three greedy generators
    C2 = cyclic(2)
    for G in (cyclic(1), cyclic(4), dihedral(3), product(C2, C2), dihedral(4),
              product(C2, cyclic(4)), product(product(C2, C2), C2)):
        got = [tuple(a.tolist()) for a in group_automorphisms(G)]
        want = sorted(oracles.automorphism_images(G))
        assert got == want


def test_automorphism_group_closure():
    G = dihedral(3)
    auts = group_automorphisms(G)
    # one read-only image row per automorphism, the identity first
    assert auts.dtype == np.int64 and auts.shape == (6, 6) and not auts.flags.writeable
    assert auts[0].tolist() == list(range(6))
    images = {tuple(a.tolist()) for a in auts}
    for a in auts:
        assert tuple(np.argsort(a).tolist()) in images
        for b in auts:
            assert tuple(a[b].tolist()) in images


def test_automorphism_order_bound():
    with pytest.raises(SizeBound):
        group_automorphisms(dihedral(8))


def test_table_is_one_read_only_array():
    G = dihedral(4)
    T = G.table_array
    assert T.dtype == np.int64 and T.shape == (8, 8) and not T.flags.writeable
    assert G.table == tuple(tuple(row) for row in T.tolist())
    assert all(type(x) is int for row in G.table for x in row)
    assert G.table is G.table
    # equality and hashing read the table alone
    H = FiniteGroup(G.table, name="other")
    assert H == G and hash(H) == hash(G) and H != cyclic(8)
    assert {G: 1}[H] == 1


def test_inverses_and_element_orders():
    for G in (cyclic(12), dihedral(5), symmetric(4), product(cyclic(2), dihedral(3))):
        n = G.order
        for x in range(n):
            assert G.mul(x, G.inv(x)) == 0 == G.mul(G.inv(x), x)
            y, k = x, 1
            while y != 0:
                y, k = G.mul(y, x), k + 1
            assert G.element_order(x) == k
        assert G.is_abelian() == (G.table == tuple(zip(*G.table)))
        for bad in (-1, n):
            with pytest.raises(IndexOutOfRange):
                G.element_order(bad)


def test_family_tables_follow_their_rules():
    n = 5
    D = dihedral(n)
    for i, j, k, l in np.ndindex(n, 2, n, 2):
        assert D.mul(i + n * j, k + n * l) == (i + (-1) ** j * k) % n + n * ((j + l) % 2)
    G, H = dihedral(3), cyclic(4)
    P = product(G, H)
    for x1, y1, x2, y2 in np.ndindex(6, 4, 6, 4):
        assert P.mul(x1 * 4 + y1, x2 * 4 + y2) == G.mul(x1, x2) * 4 + H.mul(y1, y2)
    S = symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    for s, t in np.ndindex(6, 6):
        composed = tuple(perms[s][perms[t][x]] for x in range(3))
        assert S.mul(s, t) == perms.index(composed)


SOURCES = [cyclic(1), cyclic(2), cyclic(5), cyclic(6), dihedral(3), dihedral(4),
           product(cyclic(2), cyclic(2)), symmetric(3)]


def _intercalate(table, n, pick):
    """Swap the two symbols of the pick-th 2x2 Latin subsquare off the
    identity row and column: a Latin square with identity, usually not
    associative."""
    quads = [(r1, r2, c1, c2)
             for r1, r2, c1, c2 in itertools.product(range(1, n), repeat=4)
             if r1 < r2 and c1 < c2
             and table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]]
    if quads:
        r1, r2, c1, c2 = quads[pick % len(quads)]
        for r in (r1, r2):
            table[r][c1], table[r][c2] = table[r][c2], table[r][c1]


@st.composite
def garbled_table(draw):
    """A family table with one to three edits: entries set to -1, n, 2**70
    or any index, rows shortened or lengthened, rows or symbols permuted,
    and Latin subsquares swapped."""
    G = draw(st.sampled_from(SOURCES))
    n = G.order
    table = [list(row) for row in G.table]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(
            ["entry", "short", "long", "swap", "relabel", "intercalate"]))
        row = table[i]
        if kind == "entry" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from([-1, n, 2**70, -2**70]) | st.integers(0, n - 1))
        elif kind == "short" and row:
            table[i] = row[:draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row.append(draw(st.sampled_from([0, n, 2**70])))
        elif kind == "swap":
            j = draw(st.integers(0, n - 1))
            table[i], table[j] = table[j], table[i]
        elif kind == "relabel":
            perm = draw(st.permutations(range(n)))
            table = [[perm[x] if 0 <= x < n else x for x in r] for r in table]
        elif kind == "intercalate" and all(len(r) == n for r in table):
            _intercalate(table, n, draw(st.integers(0, 99)))
    return table


@settings(derandomize=True, max_examples=400, deadline=None)
@given(garbled_table())
def test_validation_matches_direct_scan(table):
    want = oracles.table_violation(table)
    try:
        G = FiniteGroup(table)
    except NotAGroup as exc:
        assert (exc.reason, exc.witness) == want
    else:
        assert want is None and G.table == tuple(map(tuple, table))


def test_table_decodes_table_array():
    for spec in ("cyclic:1", "cyclic:5", "dihedral:4", "symmetric:3",
                 "product:cyclic:2,cyclic:4"):
        G = group_construct(spec)
        assert G.table == tuple(tuple(G.mul(x, y) for y in G.elements()) for x in G.elements())
        assert all(type(row) is tuple and all(type(v) is int for v in row) for row in G.table)
