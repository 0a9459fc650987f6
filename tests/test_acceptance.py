"""End-to-end acceptance checks.

Every criterion is exact: no tolerances, no skipped cases.  Oracles come
from tests/oracles.py and are independent re-derivations (direct coboundary
matrices over full argument tuples, exhaustive enumeration, annihilator
counting), never the code paths under test.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

from twogrp.coeff import AbelianGroup
from twogrp.cochain import (
    Cochain,
    are_cohomologous,
    cocycle_solve,
    cohomology,
    cohomology_classes_mod_aut,
    is_cocycle,
    pull_back_along_automorphism,
)
from twogrp.correspondence import duskin_nerve, pullback_model, verify_theorem
from twogrp.errors import NotACocycle
from twogrp.group import (
    cyclic,
    dihedral,
    group_automorphisms,
    group_construct,
)
from twogrp.simplicial import (
    cocycle_as_map,
    enumerate_horns,
    fillers,
    gamma_a2,
    validate_simplicial,
    wbar_b2a,
)
from twogrp.twogroup import (
    TwoGroupSkeleton,
    check_pentagon,
    duality_data,
    monoidal_functor_check,
)

from oracles import brute_h3_multi

COEFF_FAMILIES = [[2], [3], [4], [2, 2]]

THEOREM_GROUPS = [
    cyclic(1), cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6),
    group_construct("product:cyclic:2,cyclic:2"), dihedral(3),
]


def normalized_cochains(G, A, degree):
    coords = [
        t for t in itertools.product(range(G.order), repeat=degree) if 0 not in t
    ]
    for vals in itertools.product(A.elements(), repeat=len(coords)):
        table = dict(zip(coords, vals))
        yield Cochain.from_function(
            G, A, degree, lambda *a: A.zero if 0 in a else table[a]
        )


def random_normalized_cochain(G, A, degree, rng):
    els = A.elements()
    return Cochain.from_function(
        G, A, degree, lambda *a: A.zero if 0 in a else rng.choice(els)
    )


# 1. The solver agrees with exhaustive enumeration wherever the full module
#    of normalized 3-cochains is enumerable (at most 2^20 elements).
@pytest.mark.parametrize("G", [cyclic(1), cyclic(2), cyclic(3)])
@pytest.mark.parametrize("factors", COEFF_FAMILIES)
def test_criterion_1_oracle_agreement(G, factors):
    module_size = 1
    for m in factors:
        module_size *= m ** ((G.order - 1) ** 3)
    assert module_size <= 1 << 20
    A = AbelianGroup(factors)
    sizes, chain = brute_h3_multi(G, factors)
    basis = cocycle_solve(G, A, 3)
    assert basis.subgroup_order == math.prod(nz for nz, _ in sizes)
    res = cohomology(G, A, 3)
    assert res.invariant_factors == chain
    expected_count = 1
    for f in chain:
        expected_count *= f
    assert res.class_count == expected_count
    for rep in res.representatives:
        ok, _ = is_cocycle(rep)
        assert ok and rep.is_normalized()


# 2. The pentagon coherence of the skeletal 2-group holds exactly for the
#    cocycles: exhaustively over C2, and on at least 1000 seeded samples for
#    two larger inputs.  The two sides never consult each other.
def test_criterion_2_pentagon_iff_cocycle():
    for factors in ([2], [4]):
        A = AbelianGroup(factors)
        for c in normalized_cochains(cyclic(2), A, 3):
            assert check_pentagon(c)[0] == is_cocycle(c)[0]
    rng = random.Random(20240601)
    for G, A in [(cyclic(3), AbelianGroup([3])), (dihedral(3), AbelianGroup([2]))]:
        # uniform samples are almost surely non-cocycles for |G| = 6, so mix
        # in random elements of the cocycle subgroup to cover both outcomes
        basis = cocycle_solve(G, A, 3)
        for k in range(1000):
            if k % 4 == 0:
                c = Cochain.zero(G, A, 3)
                for gen in basis.generators:
                    c = c.add(gen.scale(rng.randrange(A.order)))
            else:
                c = random_normalized_cochain(G, A, 3, rng)
            ok_p, _ = check_pentagon(c)
            ok_c, _ = is_cocycle(c)
            assert ok_p == ok_c


# 3. The main theorem verifies end to end for every cohomology class of
#    every group of order at most 6 (plus the Klein four-group) against
#    every coefficient family of order at most 4.
@pytest.mark.parametrize("G", THEOREM_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("factors", COEFF_FAMILIES, ids=str)
def test_criterion_3_theorem_for_every_class(G, factors):
    A = AbelianGroup(factors)
    res = cohomology(G, A, 3)
    for coords in res.all_class_coordinates():
        alpha = res.lex_minimal_representative(
            res.cochain_from_coordinates(coords)
        )
        report = verify_theorem(alpha)
        assert report.ok, (
            G.name, factors, coords,
            [s for s in report.stages if not s["ok"]],
        )


# 4. Every constructor produces a valid truncated simplicial set with the
#    predicted level sizes.
@pytest.mark.parametrize("factors", COEFF_FAMILIES, ids=str)
def test_criterion_4_constructors(factors):
    A = AbelianGroup(factors)
    m = A.order
    gamma = gamma_a2(A, 4)
    ok, why = validate_simplicial(gamma)
    assert ok, why
    assert [gamma.size(n) for n in range(5)] == [1, 1, m, m**3, m**6]
    wbar = wbar_b2a(A, 3)
    ok, why = validate_simplicial(wbar)
    assert ok, why
    assert [wbar.size(n) for n in range(4)] == [1, 1, 1, m]
    for G in (cyclic(2), dihedral(3)):
        res = cohomology(G, A, 3)
        alpha = res.representatives[0] if res.representatives else Cochain.zero(G, A, 3)
        sk = TwoGroupSkeleton(alpha)
        for build in (duskin_nerve, pullback_model):
            X = build(sk)
            ok, why = validate_simplicial(X)
            assert ok, why
            assert X.size(3) == G.order**3 * m**3


# 5. A normalized 3-cochain extends to the level-4 component of the
#    classifying map exactly when it is a cocycle.
def test_criterion_5_level4_extension():
    for factors in ([2], [4]):
        A = AbelianGroup(factors)
        for c in normalized_cochains(cyclic(2), A, 3):
            ok, witness = is_cocycle(c)
            if ok:
                f = cocycle_as_map(c, 4)
                okv, why = f.validate()
                assert okv, why
            else:
                with pytest.raises(NotACocycle) as err:
                    cocycle_as_map(c, 4)
                assert err.value.witness == witness


# 6. In the Duskin nerve, every 2-horn has exactly |A| fillers and every
#    3-horn has at least one.
def test_criterion_6_horn_fillers():
    for G, factors in [(cyclic(2), [2]), (cyclic(2), [3]), (cyclic(3), [3])]:
        A = AbelianGroup(factors)
        res = cohomology(G, A, 3)
        reps = res.representatives or [Cochain.zero(G, A, 3)]
        X = duskin_nerve(TwoGroupSkeleton(reps[0]))
        for missing in range(3):
            for horn in enumerate_horns(X, 2, missing):
                assert len(fillers(X, horn)) == A.order
        for missing in range(4):
            for horn in enumerate_horns(X, 3, missing):
                assert len(fillers(X, horn)) >= 1


# 7. Monoidal functors exist exactly between cohomologous associators:
#    exhaustively over all coherence data on C2, and the orbit counts under
#    Aut(G) match a brute-force recomputation on C3 (and C5, where the
#    action is nontrivial).
def test_criterion_7_functors_and_orbits():
    G, A = cyclic(2), AbelianGroup([2])
    cocycles = [c for c in normalized_cochains(G, A, 3) if is_cocycle(c)[0]]
    assert len(cocycles) == 2
    all_j = [Cochain(G, A, 2, vals)
             for vals in itertools.product(A.elements(), repeat=4)]
    for src, dst in itertools.product(cocycles, repeat=2):
        has_functor = any(monoidal_functor_check(src, dst, j)[0] for j in all_j)
        assert has_functor == (are_cohomologous(src, dst) is not None)

    for G, A in [(cyclic(3), AbelianGroup([3])), (cyclic(5), AbelianGroup([5]))]:
        reps, count, res = cohomology_classes_mod_aut(G, A)
        # brute force: exhaust the Aut(G) action on class representatives,
        # locating images solely through are_cohomologous
        coords = res.all_class_coordinates()
        cells = {c: res.cochain_from_coordinates(c) for c in coords}

        def locate(c):
            for key, rep in cells.items():
                if are_cohomologous(rep, c) is not None:
                    return key
            raise AssertionError("class not located")

        auts = group_automorphisms(G)
        remaining = set(coords)
        brute = 0
        while remaining:
            frontier = [remaining.pop()]
            while frontier:
                cur = frontier.pop()
                for phi in auts:
                    img = locate(pull_back_along_automorphism(phi, cells[cur]))
                    if img in remaining:
                        remaining.discard(img)
                        frontier.append(img)
            brute += 1
        assert count == brute


# 8. Every object of every skeletal 2-group in the sweep is dualizable, and
#    for the trivial associator the zero pair witnesses duality.
def test_criterion_8_duality():
    for G, factors in [(cyclic(2), [2]), (cyclic(3), [3]), (dihedral(3), [2])]:
        A = AbelianGroup(factors)
        res = cohomology(G, A, 3)
        reps = res.representatives or []
        zero = Cochain.zero(G, A, 3)
        for alpha in [zero] + reps:
            for x in range(G.order):
                pairs = duality_data(alpha, x)
                assert pairs, (G.name, factors, x)
        for x in range(G.order):
            assert (A.zero, A.zero) in duality_data(zero, x)


# 9. The CLI's JSON output is byte-identical across runs.
def test_criterion_9_cli_determinism():
    argv = [
        sys.executable, "-m", "twogrp.cli", "--format", "json", "--seed", "0",
        "theorem", "verify", "--group", "cyclic:2", "--coeffs", "2",
        "--all-classes",
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["ok"] is True
