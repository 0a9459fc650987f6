"""Property tests for the residue-array cochain paths.

Every property compares twogrp against residue-by-residue arithmetic or a
per-cell oracle from tests/oracles.py, over groups of order at most 6 and
coefficients Z2, Z4, Z2^2, Z6 and Z2 x Z4 (whose factors differ).  Hypothesis runs derandomized with a
bounded number of examples, so the suite is deterministic.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from twogrp.coeff import AbelianGroup
from twogrp.cochain import (
    Cochain,
    coboundary,
    is_cocycle,
    pull_back_along_automorphism,
)
from twogrp.group import cyclic, dihedral, group_automorphisms, group_construct
from twogrp.twogroup import check_pentagon, check_triangle, monoidal_functor_check

from oracles import brute_hexagon, brute_pentagon, brute_triangle

GROUPS = [cyclic(n) for n in range(1, 7)] + [
    group_construct("product:cyclic:2,cyclic:2"), dihedral(3)]
COEFFS = [AbelianGroup(f) for f in ([2], [4], [2, 2], [6], [2, 4])]
# uniform cochains almost never satisfy a coherence law, so half of the
# associators are coboundaries, some of them broken at one cell
KINDS = ["uniform", "normalized", "coboundary", "perturbed"]

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def settings_and_rng(draw):
    return (draw(st.sampled_from(GROUPS)), draw(st.sampled_from(COEFFS)),
            random.Random(draw(st.integers(0, 2**32 - 1))))


def random_values(rng, G, A, degree, normalized=False):
    """Residue tuples of a random cochain, first argument most significant."""
    zero = A.zero
    return [
        zero if normalized and 0 in args
        else tuple(rng.randrange(m) for m in A.invariant_factors)
        for args in itertools.product(range(G.order), repeat=degree)
    ]


def perturb(rng, c):
    """c with the first residue of one random cell moved by one."""
    values = list(c.values)
    cell = rng.randrange(len(values))
    values[cell] = ((values[cell][0] + 1) % c.coeffs.invariant_factors[0],) + values[cell][1:]
    return Cochain(c.group, c.coeffs, c.degree, values)


def random_cochain(rng, G, A, degree, kind="uniform"):
    if kind in ("uniform", "normalized"):
        return Cochain(G, A, degree, random_values(rng, G, A, degree, kind == "normalized"))
    c = coboundary(random_cochain(rng, G, A, degree - 1, "normalized"))
    return perturb(rng, c) if kind == "perturbed" else c


def as_result(witness):
    return (witness is None, witness)


@PROPERTY
@given(settings_and_rng(), st.sampled_from(KINDS), st.sampled_from(KINDS))
def test_coherence_witnesses_match_oracles(setting, kind, dst_kind):
    G, A, rng = setting
    f = A.invariant_factors
    alpha = random_cochain(rng, G, A, 3, kind)
    pentagon = check_pentagon(alpha)
    assert pentagon == as_result(brute_pentagon(G.table, f, alpha.values))
    # the pentagon defect at (w, x, y, z) is d(alpha)(w, x, y, z)
    assert pentagon == is_cocycle(alpha)
    assert check_triangle(alpha) == as_result(brute_triangle(G.table, f, alpha.values))
    # alpha + d(j) is connected to alpha by j; a broken cell breaks a hexagon
    j = random_cochain(rng, G, A, 2, "uniform")
    dst = alpha.add(coboundary(j))
    if dst_kind in ("uniform", "normalized"):
        dst = random_cochain(rng, G, A, 3, dst_kind)
    elif dst_kind == "perturbed":
        dst = perturb(rng, dst)
    want = brute_hexagon(G.table, f, alpha.values, dst.values, j.values)
    assert monoidal_functor_check(alpha, dst, j) == as_result(want)


@PROPERTY
@given(settings_and_rng(), st.integers(0, 4))
def test_d_squared_is_zero(setting, degree):
    G, A, rng = setting
    c = random_cochain(rng, G, A, degree)
    dd = coboundary(coboundary(c))
    assert dd.degree == degree + 2 and dd.is_zero()
    assert dd.values == (A.zero,) * G.order ** (degree + 2)


@PROPERTY
@given(settings_and_rng(), st.integers(0, 3), st.integers(-10**20, 10**20))
def test_arithmetic_matches_residues(setting, degree, n):
    G, A, rng = setting
    f = A.invariant_factors
    a_vals = random_values(rng, G, A, degree)
    b_vals = random_values(rng, G, A, degree)
    a, b = Cochain(G, A, degree, a_vals), Cochain(G, A, degree, b_vals)

    def each(op, *rows):
        return tuple(tuple(op(*rs) % m for *rs, m in zip(*row, f)) for row in zip(*rows))

    assert a.add(b).values == each(lambda x, y: x + y, a_vals, b_vals)
    assert a.sub(b).values == each(lambda x, y: x - y, a_vals, b_vals)
    assert a.neg().values == each(lambda x: -x, a_vals)
    for s in (n, n + 2**64, -(2**70) - n):  # scales past int64 too
        assert a.scale(s).values == each(lambda x: s * x, a_vals)
    assert a == Cochain(G, A, degree, a.values) and hash(a) == hash(Cochain.from_json(a.to_json()))
    auts = group_automorphisms(G)
    phi = auts[rng.randrange(len(auts))]
    cells = list(itertools.product(range(G.order), repeat=degree))
    lookup = dict(zip(cells, a_vals))
    pulled = pull_back_along_automorphism(phi, a)
    assert pulled.values == tuple(lookup[tuple(phi[g] for g in args)] for args in cells)
