import itertools
import random

import numpy as np
import pytest

from twogrp import cochain
from twogrp.coeff import MAX_COEFF_ORDER, AbelianGroup
from twogrp.cochain import (
    MAX_DEGREE,
    Cochain,
    are_cohomologous,
    bar_matrix,
    coboundary,
    cocycle_solve,
    cohomology,
    cohomology_classes_mod_aut,
    is_cocycle,
    pull_back_along_automorphism,
)
from twogrp.correspondence import verify_theorem
from twogrp.errors import (
    DegreeMismatch,
    IndexOutOfRange,
    InvalidFactor,
    NotACocycle,
    NotAnAutomorphism,
    NotNormalized,
    ParseError,
    ShapeMismatch,
    SizeBound,
    TruncationMismatch,
    UnsupportedSpec,
    WitnessMismatch,
)
from twogrp.group import (
    FiniteGroup, cyclic, dihedral, group_automorphisms, group_construct, product,
)
from twogrp.simplicial import nerve_bg
from twogrp.twogroup import (
    TwoGroupSkeleton,
    check_duality,
    check_pentagon,
    check_triangle,
    check_zigzag,
    duality_data,
    monoidal_functor_check,
)

from oracles import brute_coboundary, brute_h3_multi

RNG = random.Random(913)

C2 = cyclic(2)
C3 = cyclic(3)
Z2 = AbelianGroup([2])
Z3 = AbelianGroup([3])


def nontrivial_c2(degree=3):
    """The cochain on C2 with value 1 at (g,..,g) and 0 elsewhere."""
    return Cochain.from_function(
        C2, Z2, degree, lambda *a: (1,) if all(x == 1 for x in a) else (0,)
    )


def c3_commutator_cocycle():
    """alpha(g^a, g^b, g^c) = a * floor((b + c) / 3) mod 3."""
    return Cochain.from_function(
        C3, Z3, 3, lambda a, b, c: ((a * ((b + c) // 3)) % 3,)
    )


def random_cochain(G, A, degree, rng):
    els = A.elements()
    return Cochain(
        G, A, degree,
        [rng.choice(els) for _ in range(G.order**degree)],
    )


def test_value_indexing():
    c = Cochain.from_function(C3, Z3, 2, lambda a, b: ((a + 2 * b) % 3,))
    assert c.value((1, 2)) == ((1 + 4) % 3,)
    assert c.values[c.flat_index((2, 1))] == ((2 + 2) % 3,)
    assert c.value((np.int64(2), np.int8(1))) == ((2 + 2) % 3,)


@pytest.mark.parametrize("args,error,match", [
    # numpy's negative indexing used to read the value at (2, 0, 0)
    ((-1, 0, 0), IndexOutOfRange, "out of range: -1"),
    # flat index 15 belongs to (1, 2, 0)
    ((1, 1, 3), IndexOutOfRange, "out of range: 3"),
    # both used to read the value at (0, 0, 0)
    ((0, 0), ShapeMismatch, "takes 3 arguments, got 2"),
    ((0, 0, 0, 0), ShapeMismatch, "takes 3 arguments, got 4"),
    # used to raise a TypeError
    ((0, 1, "a"), ShapeMismatch, "'a' is not an integer"),
    ((0, 1, 1.0), ShapeMismatch, "1.0 is not an integer"),
    ((0, True, 1), ShapeMismatch, "True is not an integer"),
    (7, ShapeMismatch, "must be a sequence"),
], ids=["negative", "past-order", "short", "long", "str", "float", "bool", "not-a-sequence"])
def test_value_refuses_other_cells(args, error, match):
    alpha = cohomology(C3, Z3, 3).representatives[0]
    with pytest.raises(error, match=match):
        alpha.value(args)


def test_trivial_coefficients_give_one_empty_row_per_tuple():
    trivial = AbelianGroup([])
    for G in (C2, dihedral(3)):
        for n in range(4):
            c = Cochain.zero(G, trivial, n)
            assert c.values == ((),) * G.order**n
            assert coboundary(c).values == ((),) * G.order ** (n + 1)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        Cochain(C2, Z2, 2, [(0,)] * 3)


def test_normalization_witness():
    c = Cochain.from_function(C2, Z2, 2, lambda a, b: (1,) if b == 0 else (0,))
    assert c.normalization_witness() == (0, 0)
    assert not c.is_normalized()
    assert nontrivial_c2(2).is_normalized()


def test_coboundary_manual():
    # beta(g^a, g^b) = [a == b == 1] on C2 with Z2 coefficients is a cocycle:
    # d(beta)(x,y,z) = beta(y,z) - beta(xy,z) + beta(x,yz) - beta(x,y) == 0.
    beta = nontrivial_c2(2)
    assert coboundary(beta).is_zero()
    ok, witness = is_cocycle(beta)
    assert ok and witness is None
    # over Z4 the same table has nonzero coboundary
    Z4 = AbelianGroup([4])
    beta4 = Cochain.from_function(
        C2, Z4, 2, lambda a, b: (1,) if a == b == 1 else (0,)
    )
    d = coboundary(beta4)
    # d(beta4)(g,g,g) = beta4(g,g) - beta4(e,g) + beta4(g,e) - beta4(g,g) = 0
    # d(beta4)(e,g,g) = beta4(g,g) - beta4(g,g) + beta4(e,0) - beta4(e,g) = 0
    # actually compare against a direct loop
    for x, y, z in itertools.product(range(2), repeat=3):
        expect = (
            beta4.value((y, z))[0]
            - beta4.value((C2.mul(x, y), z))[0]
            + beta4.value((x, C2.mul(y, z)))[0]
            - beta4.value((x, y))[0]
        ) % 4
        assert d.value((x, y, z)) == (expect,)


def test_d_squared_is_zero():
    for G, A in [(C2, Z2), (C3, AbelianGroup([6])), (dihedral(3), Z2)]:
        for degree in (1, 2):
            for _ in range(5):
                c = random_cochain(G, A, degree, RNG)
                assert coboundary(coboundary(c)).is_zero()


def test_is_cocycle_examples():
    ok, _ = is_cocycle(nontrivial_c2(3))
    assert ok
    ok, _ = is_cocycle(c3_commutator_cocycle())
    assert ok
    # a non-cocycle with its witness
    Z4 = AbelianGroup([4])
    bad = Cochain.from_function(
        C2, Z4, 3, lambda a, b, c: (1,) if a == b == c == 1 else (0,)
    )
    ok, witness = is_cocycle(bad)
    assert not ok
    # first violating tuple in lexicographic order: d(bad)(g,g,g,g) = 2
    assert witness == (1, 1, 1, 1)


def test_bar_matrix_matches_coboundary():
    # D @ vec against the oracle's alternating sum, read on normalized tuples
    cases = [(C2, AbelianGroup([4]), (0, 1, 2, 3)), (C3, Z3, (0, 1, 2, 3)),
             (dihedral(3), Z2, (0, 1, 2, 3)), (dihedral(4), Z2, (3,))]
    for G, A, degrees in cases:
        m = A.invariant_factors[0]
        for degree in degrees:
            D = bar_matrix(G, degree)
            cols = list(itertools.product(range(1, G.order), repeat=degree))
            rows = list(itertools.product(range(1, G.order), repeat=degree + 1))
            assert D.shape == (len(rows), len(cols))
            for _ in range(4):
                values = {
                    args: (0,) if 0 in args else (RNG.randrange(m),)
                    for args in itertools.product(range(G.order), repeat=degree)
                }
                vec = np.array([values[t][0] for t in cols], dtype=np.int64)
                image = (D @ vec) % m
                d = dict(zip(
                    itertools.product(range(G.order), repeat=degree + 1),
                    brute_coboundary(G, A, degree, list(values.values())),
                ))
                assert [d[t] for t in rows] == [(int(x),) for x in image]


def test_cocycle_solve_counts():
    basis = cocycle_solve(C2, Z2, 3)
    assert basis.subgroup_order == 2
    for g in basis.generators:
        ok, _ = is_cocycle(g)
        assert ok and g.is_normalized()
    assert cocycle_solve(C2, Z3, 3).subgroup_order == 1
    # random combinations of generators are cocycles
    basis = cocycle_solve(dihedral(3), AbelianGroup([6]), 3)
    acc = Cochain.zero(dihedral(3), AbelianGroup([6]), 3)
    for g in basis.generators:
        acc = acc.add(g.scale(RNG.randrange(6)))
    ok, _ = is_cocycle(acc)
    assert ok


@pytest.mark.parametrize(
    "G,factors",
    [
        (C2, [2]),
        (C2, [3]),
        (C2, [4]),
        (C2, [2, 2]),
        (C3, [2]),
        (C3, [3]),
        (C3, [4]),
        (C3, [2, 3]),
    ],
)
def test_cohomology_vs_brute_force(G, factors):
    res = cohomology(G, AbelianGroup(factors), 3)
    _, chain = brute_h3_multi(G, factors)
    assert res.invariant_factors == chain
    expected = 1
    for f in chain:
        expected *= f
    assert res.class_count == expected
    for rep in res.representatives:
        ok, _ = is_cocycle(rep)
        assert ok and rep.is_normalized()


def test_known_h3_values():
    # H3(Z_n, Z_m) = Z_gcd(n,m) for cyclic groups with trivial action
    assert cohomology(C2, Z2, 3).invariant_factors == [2]
    assert cohomology(C2, Z3, 3).invariant_factors == []
    assert cohomology(cyclic(4), AbelianGroup([4]), 3).invariant_factors == [4]
    assert cohomology(cyclic(6), AbelianGroup([4]), 3).invariant_factors == [2]
    v4 = group_construct("product:cyclic:2,cyclic:2")
    assert cohomology(v4, Z2, 3).invariant_factors == [2, 2, 2, 2]


# factors and representative coordinates recorded before the summand merge
# moved into CohomologyResult; representative i is the lex-minimal cocycle
# of the class with coordinates coords[i]
@pytest.mark.parametrize("G, factors, degree, bounds, chain, coords", [
    # one coefficient factor with summands of two primes: Z2 + Z3 = Z6
    (cyclic(6), [6], 3, {}, [6], [(1, 1)]),
    (dihedral(3), [6], 3, {}, [6], [(1, 1)]),
    # summands Z2 + Z4 + Z3: the 4 and the 3 share the top factor
    (cyclic(12), [2, 12], 2, {"max_group": 12, "max_coeffs": 24}, [2, 12],
     [(1, 0, 0), (0, 1, 1)]),
    # summands Z2 + Z2 + Z4 + Z3: the earlier Z2 takes the middle factor
    (cyclic(12), [2, 2, 12], 1, {"max_group": 12, "max_coeffs": 48}, [2, 2, 12],
     [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1)]),
    (group_construct("product:cyclic:2,cyclic:4"), [4], 2, {}, [2, 2, 4],
     [(0, 1, 0), (1, 0, 0), (0, 0, 1)]),
    (C3, [2], 3, {}, [], []),
], ids=["C6-Z6", "D3-Z6", "C12-Z2xZ12", "C12-Z2xZ2xZ12", "C2xC4-Z4", "C3-Z2"])
def test_summands_merge_into_invariant_factors(G, factors, degree, bounds, chain, coords):
    res = cohomology(G, AbelianGroup(factors), degree, **bounds)
    assert res.invariant_factors == chain
    assert [res.class_coordinates(rep) for rep in res.representatives] == coords
    assert res.representatives == [res.lex_minimal_representative(res.cochain_from_coordinates(c))
                                   for c in coords]


def test_representatives_reduce_in_one_batch_per_factor(monkeypatch):
    G = dihedral(4)
    basis = cochain._boundary_basis(G, 3, 2)
    batches = []
    real = cochain.lex_reduce_mod

    def spy(b, m, vecs):
        if b is basis:
            batches.append(np.shape(vecs))
        return real(b, m, vecs)

    monkeypatch.setattr(cochain, "lex_reduce_mod", spy)
    res = cohomology(G, Z2, 3)
    assert batches == [(len(res.invariant_factors), 7**3)]
    batches.clear()
    reps, count, _res = cohomology_classes_mod_aut(G, Z2, 3)
    assert batches == [(len(res.invariant_factors), 7**3), (count, 7**3)]
    assert len(res.invariant_factors) > 1 and count > 1


def test_representatives_of_blocks_keep_the_answer(monkeypatch):
    res = cohomology(dihedral(3), AbelianGroup([6]), 3)
    rows = res.all_class_coordinates()
    whole = res.representatives_of(rows)
    assert whole == [res.lex_minimal_representative(res.cochain_from_coordinates(c))
                     for c in rows]
    # two rows of 5^3 residues per block
    monkeypatch.setattr(cochain, "MAX_CELLS_PER_LEVEL", 2 * 5**3 + 1)
    assert res.representatives_of(rows) == whole
    assert res.representatives_of([]) == []
    with pytest.raises(ShapeMismatch):
        res.representatives_of([(0, 0), (0,)])


@pytest.mark.parametrize("G, factors", [(cyclic(1), []), (dihedral(3), []), (cyclic(1), [2])])
def test_trivial_group_or_coefficients(G, factors):
    # no normalized coordinates, or no invariant factors: one class, zero
    A = AbelianGroup(factors)
    reps, count, res = cohomology_classes_mod_aut(G, A, 3)
    zero = Cochain.zero(G, A, 3)
    assert (res.invariant_factors, count, reps) == ([], 1, [zero])
    assert res.lex_minimal_representative(zero) == zero
    assert are_cohomologous(zero, zero) == Cochain.zero(G, A, 2)


def test_class_coordinates_round_trip():
    for G, A in [(dihedral(3), AbelianGroup([6])), (cyclic(4), AbelianGroup([2, 4]))]:
        res = cohomology(G, A, 3)
        for coords in res.all_class_coordinates():
            rep = res.cochain_from_coordinates(coords)
            assert res.class_coordinates(rep) == coords


def test_representative_orders_match_invariant_factors():
    # the order of a class is the least n with n * rep a coboundary; each
    # merged representative must have the order of its invariant factor
    for G, A in [(cyclic(4), AbelianGroup([2, 4])),
                 (group_construct("product:cyclic:2,cyclic:4"), AbelianGroup([4]))]:
        res = cohomology(G, A, 3)
        zero = Cochain.zero(G, A, 3)
        orders = [next(n for n in itertools.count(1)
                       if are_cohomologous(zero, rep.scale(n)) is not None)
                  for rep in res.representatives]
        assert orders == res.invariant_factors
        assert len(res.invariant_factors) > 1


def test_class_arithmetic_rejects_other_complex():
    # H^3(C2, Z2) used to give coordinates (0,) to a degree-2 cochain and to
    # Z2^2 and Z4 cochains, reduce the latter to a cochain over Z2, and
    # raise a raw ValueError on a C3 cochain
    res = cohomology(C2, Z2, 3)
    others = [
        nontrivial_c2(2),
        Cochain.zero(C2, AbelianGroup([2, 2]), 3),
        Cochain.zero(C2, AbelianGroup([4]), 3),
        c3_commutator_cocycle(),
    ]
    for c in others:
        with pytest.raises(DegreeMismatch):
            res.class_coordinates(c)
        with pytest.raises(DegreeMismatch):
            res.lex_minimal_representative(c)


def test_class_coordinates_rejects_non_cocycle():
    Z4 = AbelianGroup([4])
    res = cohomology(C2, Z4, 3)
    bad = Cochain.from_function(
        C2, Z4, 3, lambda a, b, c: (1,) if a == b == c == 1 else (0,)
    )
    with pytest.raises(NotACocycle):
        res.class_coordinates(bad)


def test_class_arithmetic_refuses_unnormalized_cochains():
    # c = d(beta) is a coboundary, but its normalized block alone reads as
    # the nontrivial class: class_coordinates used to return (1,), and
    # lex_minimal_representative a cocycle not cohomologous to c
    beta = Cochain.from_function(C2, Z2, 2, lambda x, y: (1,) if (x, y) == (1, 0) else (0,))
    c = coboundary(beta)
    assert is_cocycle(c)[0] and c.normalization_witness() is not None
    res = cohomology(C2, Z2, 3)
    for read in (res.class_coordinates, res.lex_minimal_representative):
        with pytest.raises(NotNormalized) as err:
            read(c)
        assert err.value.witness == c.normalization_witness()


def test_are_cohomologous():
    zero = Cochain.zero(C2, Z2, 3)
    alpha = nontrivial_c2(3)
    assert are_cohomologous(zero, alpha) is None
    # a cocycle minus itself is a coboundary, with witness checked inside
    beta = are_cohomologous(alpha, alpha)
    assert beta is not None and coboundary(beta).is_zero()
    # shift by an actual coboundary and recover a witness
    Z6 = AbelianGroup([6])
    G = cyclic(6)
    b = Cochain.from_function(
        G, Z6, 2, lambda a, c: (0,) if 0 in (a, c) else ((a * c) % 6,)
    )
    res = cohomology(G, Z6, 3)
    alpha = res.representatives[0]
    shifted = alpha.add(coboundary(b))
    wit = are_cohomologous(alpha, shifted)
    assert wit is not None
    assert coboundary(wit) == shifted.sub(alpha)
    # over the composite modulus 6, the generator of H^3(C6, Z6) = Z6 and its
    # multiples of order 3 and 2 are no coboundaries
    assert res.invariant_factors == [6]
    zero6 = Cochain.zero(G, Z6, 3)
    for k in (1, 2, 3):
        assert are_cohomologous(zero6, alpha.scale(k)) is None
        assert are_cohomologous(shifted, alpha.scale(k + 1)) is None
    wit = are_cohomologous(alpha.scale(2), shifted.add(alpha))
    assert wit is not None and coboundary(wit) == coboundary(b)


def test_are_cohomologous_off_the_normalized_path():
    # a difference that is not normalized has no normalized primitive
    c = Cochain.from_function(C2, Z2, 2, lambda a, b: (1,) if (a, b) == (0, 1) else (0,))
    assert are_cohomologous(Cochain.zero(C2, Z2, 2), c) is None
    # in degree 0 only equal cochains are cohomologous, through beta = 0
    zero, one = Cochain.zero(C2, Z2, 0), Cochain(C2, Z2, 0, [(1,)])
    assert are_cohomologous(one, one) == zero
    assert are_cohomologous(zero, one) is None


@pytest.mark.parametrize("call, error, match", [
    (lambda: Cochain(C2, Z2, 1, [(0,), (0, 1)]), ShapeMismatch, "has 2 residues"),
    (lambda: Cochain.zero(C2, Z2, 3).add(Cochain.zero(C2, Z2, 2)), DegreeMismatch,
     "cochains live on different complexes"),
    (lambda: cohomology(C2, Z2, 2).cochain_from_coordinates((0, 0)), ShapeMismatch,
     "expected 1 coordinates"),
], ids=["ragged-rows", "other-complex", "coordinate-count"])
def test_every_cochain_refusal_is_reached(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_mixed_numpy_integer_rows_are_accepted():
    # numpy reads rows that mix uint64 and int64 as float64; once every row
    # passes A.check, the residues are taken as the integers they are
    mixed = Cochain(C2, Z2, 1, [(np.uint64(1),), (np.int64(0),)])
    assert mixed == Cochain(C2, Z2, 1, [(1,), (0,)])
    assert mixed.residues.dtype == np.int64 and not mixed.residues.flags.writeable


def test_are_cohomologous_rejects_bad_witness(monkeypatch):
    # the self-check must survive python -O, so it cannot be an assert
    import twogrp.cochain

    def wrong_coboundary(beta):
        return Cochain.from_function(
            beta.group, beta.coeffs, beta.degree + 1, lambda *args: (1,)
        )

    monkeypatch.setattr(twogrp.cochain, "coboundary", wrong_coboundary)
    zero = Cochain.zero(C2, Z2, 3)
    with pytest.raises(WitnessMismatch):
        are_cohomologous(zero, zero)


def test_are_cohomologous_reuses_the_boundary_basis(monkeypatch):
    G, A = dihedral(2), AbelianGroup([2, 4])
    alpha = cohomology(G, A, 3).representatives[-1]
    b = Cochain.from_function(
        G, A, 2, lambda x, y: (0, 0) if 0 in (x, y) else ((x * y) % 2, (x + y) % 2))
    shifted = alpha.add(coboundary(b))
    calls = []
    real = cochain.bar_matrix
    monkeypatch.setattr(cochain, "bar_matrix",
                        lambda *args: calls.append(args) or real(*args))
    first = are_cohomologous(alpha, shifted)
    calls.clear()
    second = are_cohomologous(alpha, shifted)
    assert calls == []
    assert second == first and coboundary(second) == shifted.sub(alpha)
    # cohomology reads the same bases and its cached kernels, so it builds
    # no bar matrix either
    assert cohomology(G, A, 3).representatives[-1] == alpha
    assert calls == []


def test_cocycle_kernel_runs_once_per_key(monkeypatch):
    G = dihedral(4)
    calls = []
    real = cochain.kernel_mod_prime_power
    monkeypatch.setattr(cochain, "kernel_mod_prime_power",
                        lambda *args: calls.append(args[1:]) or real(*args))
    cochain._cocycle_kernel.cache_clear()
    # both factors of Z2^2 read the one kernel over Z_2
    assert cohomology(G, AbelianGroup([2, 2]), 3).invariant_factors == [2] * 8
    assert calls == [(2, 1)]
    assert cohomology(G, Z2, 3).invariant_factors == [2] * 4
    assert cocycle_solve(G, Z2, 3).subgroup_order == 2**45
    assert cohomology_classes_mod_aut(G, Z2)[1] == 10
    assert calls == [(2, 1)]
    # every caller shares the cached arrays, so none may write to them
    (orders, gens), (summand_orders, summands) = cochain._cocycle_kernel(G, 3, 2, 1)
    assert len(orders) == gens.shape[1] and len(summand_orders) == summands.shape[1] == 4
    for arr in (gens, summands):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1


def test_class_basis_is_built_once_per_key(monkeypatch):
    G, A = cyclic(4), AbelianGroup([2, 4])
    calls = []
    real = cochain.howell_basis
    monkeypatch.setattr(cochain, "howell_basis",
                        lambda *args: calls.append(args[1]) or real(*args))
    reps, count, res = cohomology_classes_mod_aut(G, A)
    coords = [res.class_coordinates(r) for r in reps]
    calls.clear()
    # a second result and a second classification read the bases the first
    # built, one per (G, n, m)
    assert [cohomology(G, A, 3).class_coordinates(r) for r in reps] == coords
    assert cohomology_classes_mod_aut(G, A)[:2] == (reps, count)
    assert calls == []


def test_kernel_self_check_is_an_error(monkeypatch, capsys):
    # a kernel that does not contain the image of d^(n-1) is refused with a
    # library error that survives python -O, and the CLI exits 1
    from twogrp.cli import EXIT_FAIL, main

    real = cochain.kernel_mod_prime_power

    def forgetful_kernel(mat, p, k):
        gens, orders, Vinv = real(mat, p, k)
        return gens, orders, np.eye(Vinv.shape[0], dtype=np.int64)

    cochain._cocycle_kernel.cache_clear()
    monkeypatch.setattr(cochain, "kernel_mod_prime_power", forgetful_kernel)
    with pytest.raises(WitnessMismatch, match="not contained in the computed kernel"):
        cohomology(C3, Z3, 3)
    assert main(["cohomology", "--group", "cyclic:3", "--coeffs", "3"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: image of d^2 not contained")
    # a failed build is not cached
    monkeypatch.setattr(cochain, "kernel_mod_prime_power", real)
    assert cohomology(C3, Z3, 3).invariant_factors == [3]


def test_class_enumeration_is_bounded():
    # H^3(C2^3, Z2^3) has 2^30 classes: enumerating them is refused before
    # any coordinate tuple is built, while H^3 itself is cheap
    G = group_construct("product:cyclic:2,product:cyclic:2,cyclic:2")
    res = cohomology(G, AbelianGroup([2, 2, 2]), 3)
    assert res.class_count == 2**30
    with pytest.raises(SizeBound, match="class list of H\\^3 would hold 1073741824 cells"):
        res.all_class_coordinates()
    with pytest.raises(SizeBound, match="bound 1048576"):
        cohomology_classes_mod_aut(G, AbelianGroup([2, 2, 2]))
    # 2^20 classes are exactly at the bound, so their enumeration is allowed
    assert cohomology(G, AbelianGroup([2, 2]), 3).class_count == 2**20


def test_group_power_allocations_are_bounded():
    # each of these allocated |G|^n-sized arrays of gigabytes or more
    G = cyclic(128)
    for build in (lambda: Cochain.zero(G, Z2, 5),
                  lambda: Cochain.zero(G, Z2, 3),
                  lambda: Cochain.from_function(G, Z2, 3, lambda *a: (0,)),
                  lambda: Cochain(G, Z2, 3, []),
                  lambda: bar_matrix(G, 3),
                  lambda: cohomology(G, Z2, 3, max_group=128)):
        with pytest.raises(SizeBound, match="bound 1048576"):
            build()
    c = Cochain.zero(G, Z2, 2)
    with pytest.raises(SizeBound, match="bar matrix"):
        are_cohomologous(c, c)
    with pytest.raises(SizeBound, match="coboundary"):
        is_cocycle(Cochain.zero(cyclic(33), Z2, 3))
    # numpy arrays have at most 32 axes (64 from numpy 2)
    with pytest.raises(SizeBound, match="degree"):
        Cochain.zero(cyclic(1), Z2, MAX_DEGREE + 1)
    assert Cochain.zero(cyclic(1), Z2, MAX_DEGREE).is_normalized()
    # the largest grid the bound allows still runs
    assert is_cocycle(Cochain.zero(cyclic(32), Z2, 3)) == (True, None)


def test_lex_minimal_representative():
    res = cohomology(C2, Z2, 3)
    alpha = nontrivial_c2(3)
    # the class of alpha is nontrivial, so its minimum is alpha itself
    # (only two normalized 3-cochains exist and the other is zero)
    assert res.lex_minimal_representative(alpha) == alpha
    zero = Cochain.zero(C2, Z2, 3)
    assert res.lex_minimal_representative(coboundary(nontrivial_c2(2)).add(zero)) == zero


def test_pull_back():
    G = C3
    inv = [phi for phi in group_automorphisms(G) if phi[1] == 2][0]
    alpha = c3_commutator_cocycle()
    pulled = pull_back_along_automorphism(inv, alpha)
    ok, _ = is_cocycle(pulled)
    assert ok
    for a, b, c in itertools.product(range(3), repeat=3):
        assert pulled.value((a, b, c)) == alpha.value((inv[a], inv[b], inv[c]))


@pytest.mark.parametrize("phi", [
    [0, 1],            # too short
    [0, 1, 2, 7],      # leaves the group
    [0, 0, 0, 0],      # not a bijection
    [0, 2, 1, 3],      # a bijection that is not a homomorphism
])
def test_pull_back_refuses_a_non_automorphism(phi):
    with pytest.raises(NotAnAutomorphism):
        pull_back_along_automorphism(phi, Cochain.zero(cyclic(4), Z2, 3))


def brute_orbit_count(G, A):
    """Orbit count of Aut(G) on H3, using only are_cohomologous and
    exhaustive pullbacks."""
    res = cohomology(G, A, 3)
    coords = res.all_class_coordinates()
    reps = {c: res.cochain_from_coordinates(c) for c in coords}

    def find_class(c):
        for key, rep in reps.items():
            if are_cohomologous(rep, c) is not None:
                return key
        raise AssertionError("class not found")

    auts = group_automorphisms(G)
    remaining = set(coords)
    count = 0
    while remaining:
        start = remaining.pop()
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for phi in auts:
                img = find_class(pull_back_along_automorphism(phi, reps[cur]))
                if img in remaining:
                    remaining.discard(img)
                    frontier.append(img)
        count += 1
    return count


def test_classes_mod_aut():
    reps, count, res = cohomology_classes_mod_aut(C2, Z2)
    assert count == 2  # trivial and nontrivial class, Aut(C2) trivial
    for G, A in [(C3, Z3), (cyclic(4), AbelianGroup([4])),
                 (cyclic(5), AbelianGroup([5])), (dihedral(3), AbelianGroup([6])),
                 # 16 classes in 6 orbits; Aut(V4) = S3 mixes the coordinates
                 (group_construct("product:cyclic:2,cyclic:2"), Z2),
                 # two invariant factors, so the action has two diagonal blocks
                 (cyclic(4), AbelianGroup([2, 4])),
                 # 16 classes in 7 orbits under the 8 automorphisms of C2 x C4
                 (group_construct("product:cyclic:2,cyclic:4"), Z2)]:
        reps, count, res = cohomology_classes_mod_aut(G, A)
        assert count == brute_orbit_count(G, A)
        assert len(reps) == count
        for r in reps:
            ok, _ = is_cocycle(r)
            assert ok and r.is_normalized()


def test_scale_order_bound():
    # Z_(3^25) used to wrap silently in scale (residue 515616189673, not 2);
    # it is now refused, and at the largest allowed modulus scale is exact
    m = 3**25
    with pytest.raises(SizeBound):
        Cochain(cyclic(1), AbelianGroup([m]), 0, [(m - 1,)]).scale(m - 2)
    m = MAX_COEFF_ORDER
    c = Cochain(cyclic(1), AbelianGroup([m]), 0, [(m - 1,)])
    assert c.scale(m - 2).values == ((2,),)
    assert c.scale(-(2**70) - 1).values == ((((m - 1) * (-(2**70) - 1)) % m,),)


def test_size_bounds():
    with pytest.raises(SizeBound):
        cohomology(cyclic(9), Z2, 3)
    # at degree 2 the bar matrices fit, so only the default group bound refuses
    with pytest.raises(SizeBound, match="group order 9 exceeds bound 8"):
        cohomology(cyclic(9), Z2, 2)
    with pytest.raises(SizeBound):
        cohomology(C2, AbelianGroup([9]), 3)
    with pytest.raises(SizeBound):
        cocycle_solve(C2, Z2, 4)
    with pytest.raises(DegreeMismatch, match="-1"):
        cohomology(C2, Z2, -1)
    with pytest.raises(DegreeMismatch, match="-1"):
        cocycle_solve(C2, Z2, -1)
    with pytest.raises(DegreeMismatch, match="-1"):
        Cochain(C2, Z2, -1, [])


V4 = group_construct("product:cyclic:2,cyclic:2")


@pytest.mark.parametrize("call,error,match", [
    # each used to raise a TypeError, or to answer H^1 for True
    (lambda: cohomology(V4, Z2, 2.0), DegreeMismatch, "integer, got 2.0"),
    (lambda: cohomology(V4, Z2, True), DegreeMismatch, "integer, got True"),
    (lambda: cohomology_classes_mod_aut(V4, Z2, "3"), DegreeMismatch, "integer, got '3'"),
    (lambda: cocycle_solve(V4, Z2, 2.5), DegreeMismatch, "integer, got 2.5"),
    (lambda: cohomology(V4, Z2, 3, max_group="x"), SizeBound, "max_group must be an integer"),
    (lambda: cohomology(V4, Z2, 3, max_coeffs=None), SizeBound, "max_coeffs must be an integer"),
    # used to raise a ValueError
    (lambda: cohomology(C2, Z2, 2).cochain_from_coordinates(("a",)), ShapeMismatch,
     "coordinates must be integers"),
    (lambda: cohomology(C2, Z2, 2).cochain_from_coordinates((1.0,)), ShapeMismatch,
     "coordinates must be integers"),
    (lambda: cohomology(C2, Z2, 2).representatives_of([("a",)]), ShapeMismatch,
     "coordinates must be integers"),
    # each used to raise an AttributeError
    (lambda: coboundary(5), ShapeMismatch, "cochain must be a Cochain, got int"),
    (lambda: is_cocycle("x"), ShapeMismatch, "cochain must be a Cochain, got str"),
    (lambda: check_pentagon(5), ShapeMismatch, "associator must be a Cochain"),
    (lambda: check_triangle(5), ShapeMismatch, "associator must be a Cochain"),
    (lambda: check_duality(5), ShapeMismatch, "associator must be a Cochain"),
    (lambda: duality_data(5, 0), ShapeMismatch, "associator must be a Cochain"),
    (lambda: check_zigzag(5, 0, (0,), (0,)), ShapeMismatch, "associator must be a Cochain"),
    (lambda: TwoGroupSkeleton(5), ShapeMismatch, "associator must be a Cochain"),
    (lambda: monoidal_functor_check(*[Cochain.zero(C2, Z2, 3)] * 2, [0]), ShapeMismatch,
     "structure cells must be a Cochain, got list"),
    (lambda: are_cohomologous(Cochain.zero(C2, Z2, 3), "x"), ShapeMismatch,
     "other cochain must be a Cochain, got str"),
    (lambda: are_cohomologous(None, Cochain.zero(C2, Z2, 3)), ShapeMismatch,
     "first cochain must be a Cochain, got NoneType"),
    (lambda: verify_theorem("x"), ShapeMismatch, "associator must be a Cochain, got str"),
    (lambda: Cochain(5, Z2, 3, []), ShapeMismatch,
     "cochain's group must be a FiniteGroup, got int"),
    (lambda: Cochain(C2, 5, 3, [(0,)] * 8), ShapeMismatch,
     "cochain's coefficients must be an AbelianGroup, got int"),
    (lambda: Cochain.zero(C2, [2], 3), ShapeMismatch,
     "cochain's coefficients must be an AbelianGroup, got list"),
    # used to raise a TypeError
    (lambda: nerve_bg(C2, 2.5), TruncationMismatch, "integer, got 2.5"),
    # used to answer with the nerve cached for truncation 1
    (lambda: (nerve_bg(C2, 1), nerve_bg(C2, True)), TruncationMismatch, "integer, got True"),
    # each used to raise an AttributeError
    (lambda: group_construct(5), UnsupportedSpec, "spec must be a string, got int"),
    (lambda: group_automorphisms(5), ShapeMismatch, "group must be a FiniteGroup, got int"),
    (lambda: product(5, C2), ShapeMismatch, "first factor must be a FiniteGroup, got int"),
    (lambda: cohomology(5, Z2, 3), ShapeMismatch, "group must be a FiniteGroup, got int"),
    (lambda: cohomology(C2, 5, 3), ShapeMismatch,
     "coefficients must be an AbelianGroup, got int"),
    (lambda: cocycle_solve(5, Z2, 3), ShapeMismatch, "group must be a FiniteGroup, got int"),
    (lambda: cohomology_classes_mod_aut(5, Z2), ShapeMismatch,
     "group must be a FiniteGroup, got int"),
    (lambda: cohomology(C2, Z2, 3).class_coordinates(5), ShapeMismatch,
     "cochain must be a Cochain, got int"),
    (lambda: cohomology(C2, Z2, 3).lex_minimal_representative(5), ShapeMismatch,
     "cochain must be a Cochain, got int"),
    # each used to raise a TypeError
    (lambda: Cochain.from_function(C2, Z2, 3, 5), ShapeMismatch,
     "must come from a function, got int"),
    (lambda: Cochain.from_json(5), ParseError, "must be a JSON object"),
    # used to raise a KeyError
    (lambda: Cochain.from_json({}), ParseError, "must be a JSON object with a degree and values"),
    # each used to raise a TypeError
    (lambda: FiniteGroup(5), ShapeMismatch, "sequence of sized rows"),
    (lambda: AbelianGroup(5), InvalidFactor, "must be a sequence of integers, got 5"),
    (lambda: cyclic(2).inv("a"), ShapeMismatch, "element 'a' is not an integer"),
    (lambda: cyclic(2).mul(True, 1), ShapeMismatch, r"elements must be integers, got \(True, 1\)"),
    (lambda: Cochain(C2, Z2, 3, 5), ShapeMismatch, "values must be a sequence of residue rows"),
    (lambda: Cochain.zero(C2, Z2, 3).scale("a"), ShapeMismatch, "scale factor 'a'"),
    (lambda: duality_data(Cochain.zero(C2, Z2, 3), "a"), ShapeMismatch,
     "element 'a' is not an integer"),
    (lambda: check_zigzag(Cochain.zero(C2, Z2, 3), "a", (0,), (0,)), ShapeMismatch,
     "element 'a' is not an integer"),
    (lambda: check_zigzag(Cochain.zero(C2, Z2, 3), 1, 5, (0,)), ShapeMismatch,
     "element 5 is not a sequence of residues"),
    (lambda: cohomology(C2, Z2, 3).cochain_from_coordinates(5), ShapeMismatch,
     "coordinates must be a sequence, got int"),
    (lambda: cohomology(C2, Z2, 3).representatives_of(5), ShapeMismatch,
     "coordinates must be a sequence of rows"),
    (lambda: Z2.check(5), ShapeMismatch, "element 5 is not a sequence of residues"),
    (lambda: Z2.index(5), ShapeMismatch, "element 5 is not a sequence of residues"),
    # each used to raise an IndexError
    (lambda: cyclic(2).mul(0.5, 1), ShapeMismatch, "elements must be integers"),
    (lambda: cyclic(2).element_order(1.5), ShapeMismatch, "element 1.5 is not an integer"),
    # used to raise an AttributeError
    (lambda: pull_back_along_automorphism([0, 1], 5), ShapeMismatch,
     "cochain must be a Cochain, got int"),
], ids=["float-degree", "bool-degree", "str-degree", "solve-float-degree", "str-max-group",
        "none-max-coeffs", "str-coordinate", "float-coordinate", "str-row", "coboundary-int",
        "is-cocycle-str", "pentagon-int", "triangle-int", "duality-int", "duality-data-int",
        "zigzag-int", "skeleton-int", "functor-list", "cohomologous-str", "cohomologous-none",
        "verify-str", "cochain-int-group", "cochain-int-coeffs", "zero-list-coeffs",
        "nerve-float-truncation", "nerve-bool-truncation", "group-spec-int",
        "automorphisms-int", "product-int", "cohomology-int-group", "cohomology-int-coeffs",
        "solve-int-group", "classes-int-group", "class-coordinates-int", "lex-minimal-int",
        "from-function-int", "from-json-int", "from-json-empty", "group-int-table",
        "coeffs-int-factors", "inv-str", "mul-bool", "cochain-int-values", "scale-str",
        "duality-data-str", "zigzag-str", "zigzag-int-ev", "coordinates-int", "rows-int",
        "check-int", "index-int", "mul-float", "element-order-float", "pull-back-int-cochain"])
def test_malformed_arguments_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_numpy_integer_arguments_are_accepted():
    res = cohomology(C2, Z2, np.int64(2), max_group=np.int64(2), max_coeffs=np.int8(2))
    assert res.degree == 2 and type(res.degree) is int
    assert res.cochain_from_coordinates((np.int64(1),)) == res.representatives[0]


def test_json_round_trip():
    alpha = c3_commutator_cocycle()
    obj = alpha.to_json()
    assert obj["values"][1][2][2] == [1 * ((2 + 2) // 3) % 3]
    back = Cochain.from_json(obj)
    assert back == alpha


def test_coboundary_matches_oracle():
    cases = [(dihedral(3), A, d) for A in (AbelianGroup([6]), AbelianGroup([2, 2]))
             for d in range(5)]
    cases.append((C2, Z2, 9))  # past 8 arguments, where a fixed-size index tuple overflows
    # the order-8 groups that the cochain screen times, one of them not abelian
    cases += [(G, AbelianGroup(f), d) for G in (dihedral(4), product(cyclic(2), cyclic(4)))
              for f in ([2], [4], [2, 2]) for d in range(4)]
    for G, A, degree in cases:
        inputs = [random_cochain(G, A, degree, RNG), Cochain.zero(G, A, degree)]
        if degree:
            inputs.append(coboundary(random_cochain(G, A, degree - 1, RNG)))
        for c in inputs:
            expected = brute_coboundary(G, A, degree, c.values)
            assert coboundary(c).values == tuple(expected)
            failing = [args for args, v in zip(
                itertools.product(range(G.order), repeat=degree + 1), expected
            ) if v != A.zero]
            assert is_cocycle(c) == (not failing, failing[0] if failing else None)
