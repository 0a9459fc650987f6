import itertools
import random

import pytest

from twogrp import cochain
from twogrp.coeff import AbelianGroup
from twogrp.cochain import Cochain, coboundary, cohomology, is_cocycle
from twogrp.errors import DegreeMismatch, NotACocycle, NotNormalized, SizeBound
from twogrp.group import cyclic, dihedral, group_construct, product
from twogrp.twogroup import (
    TwoGroupSkeleton,
    check_duality,
    check_pentagon,
    check_triangle,
    check_zigzag,
    duality_data,
    monoidal_functor_check,
)

from oracles import brute_pentagon

RNG = random.Random(4027)

C2 = cyclic(2)
Z2 = AbelianGroup([2])


def c2_nontrivial():
    return Cochain.from_function(
        C2, Z2, 3, lambda a, b, c: (1,) if a == b == c == 1 else (0,)
    )


def all_normalized_cochains(G, A, degree):
    coords = [
        t for t in itertools.product(range(G.order), repeat=degree) if 0 not in t
    ]
    els = A.elements()
    for assignment in itertools.product(els, repeat=len(coords)):
        table = dict(zip(coords, assignment))
        yield Cochain.from_function(
            G, A, degree, lambda *a: A.zero if 0 in a else table[a]
        )


def random_normalized_cochain(G, A, degree, rng):
    els = A.elements()
    return Cochain.from_function(
        G, A, degree,
        lambda *a: A.zero if 0 in a else rng.choice(els),
    )


def test_skeleton_construction():
    sk = TwoGroupSkeleton(c2_nontrivial())
    assert sk.group == C2 and sk.associator(1, 1, 1) == (1,)
    with pytest.raises(DegreeMismatch):
        TwoGroupSkeleton(Cochain.zero(C2, Z2, 2))
    # non-normalized associator
    bad = Cochain.from_function(C2, Z2, 3, lambda a, b, c: (1,))
    with pytest.raises(NotNormalized):
        TwoGroupSkeleton(bad)
    # normalized non-cocycle
    Z4 = AbelianGroup([4])
    bad = Cochain.from_function(
        C2, Z4, 3, lambda a, b, c: (1,) if a == b == c == 1 else (0,)
    )
    with pytest.raises(NotACocycle):
        TwoGroupSkeleton(bad)


def test_pentagon_iff_cocycle_exhaustive_c2():
    # all 2 normalized 3-cochains on C2 with Z2 coefficients, plus the same
    # shape over Z4 where genuine non-cocycles exist
    for A in (Z2, AbelianGroup([4])):
        for c in all_normalized_cochains(C2, A, 3):
            ok_pent, wit_pent = check_pentagon(c)
            ok_coc, wit_coc = is_cocycle(c)
            assert ok_pent == ok_coc
            if not ok_pent:
                assert wit_pent == wit_coc


def test_pentagon_iff_cocycle_sampled():
    C3, Z3 = cyclic(3), AbelianGroup([3])
    D3, A6 = dihedral(3), AbelianGroup([6])
    for G, A in [(C3, Z3), (D3, A6)]:
        for _ in range(300):
            c = random_normalized_cochain(G, A, 3, RNG)
            assert check_pentagon(c) == is_cocycle(c)


def test_triangle():
    ok, _ = check_triangle(c2_nontrivial())
    assert ok
    # a non-normalized cochain fails the triangle with the first witness
    bad = Cochain.from_function(C2, Z2, 3, lambda a, b, c: (1,) if b == 0 else (0,))
    ok, witness = check_triangle(bad)
    assert not ok and witness == (0, 0)


def test_duality_brute_force_c2():
    C3, Z3, Z2sq = cyclic(3), AbelianGroup([3]), AbelianGroup([2, 2])
    cases = [
        (c2_nontrivial(), [2, 2]),
        (Cochain.from_function(
            C2, Z2sq, 3, lambda a, b, c: (1, 1) if a == b == c == 1 else (0, 0)), [4, 4]),
        # the nontrivial class a * floor((b + c) / 3) of H^3(C3, Z3)
        (Cochain.from_function(C3, Z3, 3, lambda a, b, c: ((a * ((b + c) // 3)) % 3,)),
         [3, 3, 3]),
        # not a cocycle: the zigzags of x = 1 and x = 2 both read the cell
        # (1, 2, 1) and disagree, so neither has a pair
        (Cochain.from_function(
            C3, Z3, 3, lambda a, b, c: (1,) if (a, b, c) == (1, 2, 1) else (0,)), [3, 0, 0]),
    ]
    for alpha, counts in cases:
        G, A = alpha.group, alpha.coeffs
        for x in range(G.order):
            found = duality_data(alpha, x)
            # independent |A|^2-pair scan in residue arithmetic
            expect = []
            xbar = G.inv(x)
            left_cell, right_cell = alpha.value((x, xbar, x)), alpha.value((xbar, x, xbar))
            for ev in A.elements():
                for coev in A.elements():
                    left = [(c + a + e) % m for c, a, e, m
                            in zip(coev, left_cell, ev, A.invariant_factors)]
                    right = [(c - a + e) % m for c, a, e, m
                             in zip(coev, right_cell, ev, A.invariant_factors)]
                    if not any(left) and not any(right):
                        expect.append((ev, coev))
            assert found == expect
            assert len(found) == counts[x]
            assert all(check_zigzag(alpha, x, ev, coev) for ev, coev in found)
        assert check_duality(alpha) == ((True, None) if all(counts) else (False, 1))


def test_duality_trivial_cocycle_contains_zero_pair():
    for G, A in [(C2, Z2), (cyclic(3), AbelianGroup([3])), (dihedral(3), Z2)]:
        zero = Cochain.zero(G, A, 3)
        for x in range(G.order):
            pairs = duality_data(zero, x)
            assert (A.zero, A.zero) in pairs
            assert len(pairs) == A.order


def test_duality_pair_bound():
    # the pair list has |A| entries, so it is refused above the bound
    # before any of them is built; at the bound it still answers
    with pytest.raises(SizeBound):
        duality_data(Cochain.zero(C2, AbelianGroup([2**17]), 3), 1)
    pairs = duality_data(Cochain.zero(C2, AbelianGroup([2**16]), 3), 1)
    assert len(pairs) == 2**16
    assert pairs[1] == ((1,), (2**16 - 1,))


def test_zigzag_signature():
    alpha = c2_nontrivial()
    # for x = g: alpha(g, g, g) = 1, so ev + coev must equal 1 both ways
    assert check_zigzag(alpha, 1, (1,), (0,))
    assert not check_zigzag(alpha, 1, (0,), (0,))


def test_monoidal_functor():
    res = cohomology(C2, Z2, 3)
    zero = Cochain.zero(C2, Z2, 3)
    alpha = c2_nontrivial()
    # shifting by a coboundary is certified by its primitive
    beta = Cochain.from_function(C2, Z2, 2, lambda a, b: (1,) if a == b == 1 else (0,))
    shifted = alpha.add(coboundary(beta))
    ok, _ = monoidal_functor_check(alpha, shifted, beta)
    assert ok
    # no structure cells connect the trivial and nontrivial skeletons:
    # scan all |A|^|G^2| = 16 candidate 2-cochains
    for j in all_normalized_cochains(C2, Z2, 2):
        ok, witness = monoidal_functor_check(zero, alpha, j)
        assert not ok and witness is not None
    for j_vals in itertools.product(Z2.elements(), repeat=4):
        j = Cochain(C2, Z2, 2, list(j_vals))
        ok, _ = monoidal_functor_check(zero, alpha, j)
        assert not ok
    with pytest.raises(DegreeMismatch):
        monoidal_functor_check(zero, alpha, Cochain.zero(C2, Z2, 3))


@pytest.mark.parametrize("G", [dihedral(4), product(cyclic(2), cyclic(4))], ids=["D4", "C2xC4"])
def test_pentagon_matches_oracle_on_order_8(G):
    # the order-8 groups that the cochain screen times; only D4 sees a
    # product read in the wrong order
    rng = random.Random(811)
    for factors in ([2], [4], [2, 2]):
        A = AbelianGroup(factors)
        els = A.elements()
        cocycle = coboundary(Cochain(G, A, 2, [rng.choice(els) for _ in range(G.order**2)]))
        # the cocycle with its last cell moved, so that the first failure is
        # late in the grid
        moved = [list(row) for row in cocycle.values]
        moved[-1][0] = (moved[-1][0] + 1) % factors[0]
        inputs = [Cochain(G, A, 3, [rng.choice(els) for _ in range(G.order**3)]),
                  Cochain.zero(G, A, 3), cocycle, Cochain(G, A, 3, moved)]
        for alpha in inputs:
            witness = brute_pentagon(G.table, A.invariant_factors, alpha.values)
            assert check_pentagon(alpha) == (witness is None, witness)
            assert check_pentagon(alpha) == is_cocycle(alpha)
        assert check_pentagon(cocycle) == (True, None)
        ok, witness = check_pentagon(inputs[-1])
        assert not ok and witness > (0, 0, 0, 0)


def test_the_pentagon_does_not_read_the_coboundary(monkeypatch):
    # with d_1 and d_2 swapped in the face rows that the coboundary reads, a
    # cocycle over Z3 fails is_cocycle (the defect moves by twice
    # alpha(wx, y, z) - alpha(w, xy, z)); the pentagon reads G's table alone
    alpha = Cochain.from_function(cyclic(3), AbelianGroup([3]), 3,
                                  lambda a, b, c: ((a * ((b + c) // 3)) % 3,))
    assert is_cocycle(alpha) == check_pentagon(alpha) == (True, None)
    real = cochain._face_rows

    def swapped(G, n):
        rows = real(G, n)
        return rows[:1] + (rows[2], rows[1]) + rows[3:]

    monkeypatch.setattr(cochain, "_face_rows", swapped)
    assert is_cocycle(alpha)[0] is False
    assert check_pentagon(alpha) == (True, None)


def test_pentagon_grid_is_bounded():
    # C33^4 is just above the 2^20 cells a grid may hold; C32^4 is at it
    with pytest.raises(SizeBound, match="pentagon"):
        check_pentagon(Cochain.zero(cyclic(33), Z2, 3))
    assert check_pentagon(Cochain.zero(cyclic(32), Z2, 3)) == (True, None)


@pytest.mark.parametrize("spec,factors", [
    ("cyclic:2", []), ("cyclic:3", [3]), ("dihedral:3", [2, 2]), ("cyclic:4", [4, 2]),
    ("product:cyclic:2,cyclic:2", [2]),
])
def test_duality_data_lists_every_ev_with_its_coev(spec, factors):
    G, A = group_construct(spec), AbelianGroup(factors)
    for alpha in cohomology(G, A, 3).representatives + [Cochain.zero(G, A, 3)]:
        for x in G.elements():
            right = alpha.value((G.inv(x), x, G.inv(x)))
            expect = [(ev, A.sub(right, ev)) for ev in A.elements()]
            pairs = duality_data(alpha, x)
            assert pairs == expect
            assert all(type(part) is tuple and all(type(r) is int for r in part)
                       for pair in pairs for part in pair)
