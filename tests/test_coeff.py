import itertools

import numpy as np
import pytest

from twogrp.coeff import MAX_COEFF_ORDER, AbelianGroup, rows_as_tuples
from twogrp.errors import InvalidFactor, ShapeMismatch, SizeBound


def test_trivial_group():
    A = AbelianGroup([])
    assert A.order == 1
    assert A.zero == ()
    assert A.elements() == [()]
    assert A.add((), ()) == ()


def test_check_refuses_a_non_integer_residue():
    with pytest.raises(ShapeMismatch, match="residue 0.5 is not an integer"):
        AbelianGroup([4]).check((0.5,))


def test_cyclic_arithmetic():
    A = AbelianGroup([4])
    assert A.add((3,), (2,)) == (1,)
    assert A.neg((1,)) == (3,)
    assert A.sub((0,), (3,)) == (1,)
    assert A.scale(3, (3,)) == (1,)


def test_product_arithmetic():
    A = AbelianGroup([2, 3])
    assert A.order == 6
    assert A.add((1, 2), (1, 2)) == (0, 1)
    assert A.neg((1, 1)) == (1, 2)


def test_elements_order_and_index():
    A = AbelianGroup([2, 2])
    els = A.elements()
    assert els == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, e in enumerate(els):
        assert A.index(e) == i


def test_tables_consistent():
    A = AbelianGroup([2, 3])
    els = A.elements()
    add, neg, sub = A.add_array, A.neg_array, A.sub_array
    n = len(els)
    for i in range(n):
        assert els[neg[i]] == A.neg(els[i])
        for j in range(n):
            assert els[add[i, j]] == A.add(els[i], els[j])
            assert els[sub[i, j]] == A.sub(els[i], els[j])


def test_invalid_factor_rejected():
    with pytest.raises(InvalidFactor):
        AbelianGroup([1])
    with pytest.raises(InvalidFactor):
        AbelianGroup([0, 2])
    # no factor is truncated or parsed into an integer
    for factor in (2.5, 2.0, "3", True):
        with pytest.raises(InvalidFactor):
            AbelianGroup([2, factor])
    assert AbelianGroup(np.array([2, 3])).invariant_factors == (2, 3)


def test_order_bound():
    # the bound is on the order, checked before any table is built, and
    # holds for orders too large for int64
    assert AbelianGroup([2**12, 2**12]).order == MAX_COEFF_ORDER
    for factors in ([MAX_COEFF_ORDER + 1], [2**12, 2**13], [3**25], [2**70], [2, 2**64]):
        with pytest.raises(SizeBound, match="exceeds bound %d" % MAX_COEFF_ORDER):
            AbelianGroup(factors)


def test_check_rejects_bad_elements():
    A = AbelianGroup([2, 2])
    with pytest.raises(ShapeMismatch):
        A.check((1,))
    with pytest.raises(ShapeMismatch):
        A.check((2, 0))
    with pytest.raises(ShapeMismatch):
        A.check((0, 5))
    with pytest.raises(ShapeMismatch):
        A.check((3, 0))


def test_json_round_trip():
    A = AbelianGroup([2, 4])
    assert AbelianGroup.from_json(A.to_json()) == A


@pytest.mark.parametrize("shape", [(0, 0), (1, 0), (5, 0), (0, 3), (1, 1), (7, 3), (4096, 2)])
def test_rows_as_tuples_matches_the_per_row_decode(shape):
    arr = np.random.default_rng(sum(shape)).integers(0, 2**24, size=shape)
    rows = rows_as_tuples(arr)
    assert rows == tuple(map(tuple, arr.tolist()))
    assert type(rows) is tuple and len(rows) == shape[0]
    assert all(type(row) is tuple and all(type(r) is int for r in row) for row in rows)


def test_elements_are_the_residue_tuples_in_order():
    assert AbelianGroup([]).elements() == [()]
    for factors in ([2], [6], [2, 2], [2, 4, 3]):
        A = AbelianGroup(factors)
        els = A.elements()
        assert type(els) is list
        assert els == sorted(itertools.product(*map(range, factors)))
