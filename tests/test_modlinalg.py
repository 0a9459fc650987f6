import hashlib
import itertools
import random

import numpy as np
import pytest

from twogrp.cochain import bar_matrix
from twogrp.group import group_construct
from twogrp.modlinalg import (
    howell_basis,
    kernel_mod_prime_power,
    lex_reduce_mod,
    prime_power_decomposition,
    smith_mod_prime_power,
)

RNG = random.Random(20240817)

CASES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def random_matrix(rows, cols, q):
    return np.array(
        [[RNG.randrange(q) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


def test_prime_power_decomposition():
    assert prime_power_decomposition(12) == [(2, 2), (3, 1)]
    assert prime_power_decomposition(7) == [(7, 1)]
    assert prime_power_decomposition(1) == []


def test_smith_diagonalizes():
    for p, k in CASES:
        q = p**k
        for rows, cols in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            for _ in range(8):
                M = random_matrix(rows, cols, q)
                res = smith_mod_prime_power(M, p, k, want_v=True,
                                            want_uinv=True, want_vinv=True)
                S = res["S"]
                # S must be diagonal with the reported p-power entries
                for i in range(rows):
                    for j in range(cols):
                        if i != j:
                            assert S[i, j] % q == 0
                for t, e in enumerate(res["vals"]):
                    assert S[t, t] % q == p**e % q
                # vals form a divisibility chain
                assert res["vals"] == sorted(res["vals"])
                # S is M in the bases V and Uinv: M @ V = Uinv @ S, Uinv is
                # invertible (its columns span Z_q^rows, so its Howell form
                # has a unit pivot at every coordinate), and Vinv inverts V
                assert np.array_equal((M @ res["V"]) % q, (res["Uinv"] @ S) % q)
                positions, divisors, _ = howell_basis(res["Uinv"], q)
                assert (positions, divisors) == (list(range(rows)), [1] * rows)
                assert np.array_equal(
                    (res["V"] @ res["Vinv"]) % q, np.eye(cols, dtype=np.int64)
                )


def brute_kernel(M, q):
    rows, cols = M.shape
    out = set()
    for x in itertools.product(range(q), repeat=cols):
        if not any((M @ np.array(x)) % q):
            out.add(x)
    return out


def test_kernel_matches_brute_force():
    for p, k in [(2, 1), (2, 2), (3, 1)]:
        q = p**k
        for rows, cols in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            for _ in range(6):
                M = random_matrix(rows, cols, q)
                gens, orders, _ = kernel_mod_prime_power(M, p, k)
                # every generator lies in the kernel with the right order
                for j in range(cols):
                    g = gens[:, j]
                    assert not any((M @ g) % q)
                    assert not any((orders[j] * g) % q)
                # the generated subgroup is the whole kernel
                spanned = set()
                ranges = [range(o) for o in orders]
                for coeffs in itertools.product(*ranges):
                    v = np.zeros(cols, dtype=np.int64)
                    for c, j in zip(coeffs, range(cols)):
                        v = (v + c * gens[:, j]) % q
                    spanned.add(tuple(int(x) for x in v))
                assert spanned == brute_kernel(M, q)


def test_cokernel_invariants():
    # Z_4^2 / <(2,0)> has invariants [2, 4]; cohomology reads the quotient's
    # generators off the columns of Uinv at the positive Smith valuations
    rel = np.array([[2, 4, 0], [0, 0, 4]], dtype=np.int64)
    res = smith_mod_prime_power(rel, 2, 2, want_uinv=True)
    positive = [i for i, v in enumerate(res["vals"]) if v > 0]
    orders = [2 ** res["vals"][i] for i in positive]
    gens = res["Uinv"][:, positive]
    assert sorted(orders) == [2, 4]
    # generators are independent in the quotient: brute-force the subgroup
    # they generate modulo the relations
    q = 4
    relset = set()
    for c in itertools.product(range(q), repeat=rel.shape[1]):
        relset.add(tuple(int(x) for x in (rel @ np.array(c)) % q))
    seen = set()
    for coeffs in itertools.product(*(range(o) for o in orders)):
        v = np.zeros(rel.shape[0], dtype=np.int64)
        for c, j in zip(coeffs, range(gens.shape[1])):
            v = (v + c * gens[:, j]) % q
        rep = min(
            tuple(int(x) for x in (v + np.array(r)) % q) for r in relset
        )
        assert rep not in seen
        seen.add(rep)


def brute_lex_min(gen_cols, m, vec):
    n = len(vec)
    best = None
    cols = gen_cols.shape[1] if gen_cols.size else 0
    for coeffs in itertools.product(range(m), repeat=cols):
        v = list(vec)
        for c, j in zip(coeffs, range(cols)):
            v = [(x + c * int(gen_cols[i, j])) % m for i, x in enumerate(v)]
        t = tuple(v)
        if best is None or t < best:
            best = t
    return list(best)


def test_lex_reduce_matches_brute_force():
    for m in (2, 3, 4, 6, 8):
        for _ in range(15):
            cols = RNG.randrange(5)
            n = RNG.randrange(1, 5)
            G = np.array(
                [[RNG.randrange(m) for _ in range(cols)] for _ in range(n)],
                dtype=np.int64,
            )
            vec = [RNG.randrange(m) for _ in range(n)]
            basis = howell_basis(G, m)
            rep, x = lex_reduce_mod(basis, m, vec)
            assert rep.tolist() == brute_lex_min(G, m, vec)
            # the coefficients express vec - rep in the generators
            assert np.array_equal((vec - rep) % m, (G @ x) % m)
            # a stack of vectors reduces row by row
            vecs = np.array([vec, [RNG.randrange(m) for _ in range(n)]])
            reps, xs = lex_reduce_mod(basis, m, vecs)
            assert [r.tolist() for r in reps] == [brute_lex_min(G, m, v) for v in vecs]
            assert np.array_equal((vecs - reps) % m, (xs @ G.T) % m)


# SHA-256 of (shape, int64 bytes) of each output of the Smith form of a
# degree-3 bar matrix, recorded before the valuations were kept across
# pivots: the pivot order, and with it every output, must not move
SMITH_DIGESTS = {
    ("dihedral:4", 2, 1): {
        "vals": "eaa04b46797221addce633c5d9517094bc613f5bba82f2c7edb02e6b3caf3f9c",
        "S": "184b37b3f232e46287f02be47a01ce1646ee62fc83ed8f724ee6c4b49c8456fb",
        "V": "596d30ba91cff5f0d5d1d0ee0420fbd10d6a2aab4a10ca27adaee0ab589c5e3e",
        "Uinv": "90d260725646dc72b95b988622d8d04ca93b37e17c710ccf6a0d1f4f37200bd7",
        "Vinv": "73a07e81e10732e492af2c6d70713385c681f8abd4556a7bebbecd207175e9ce",
    },
    ("dihedral:4", 2, 2): {
        "vals": "dd5f6d945c7f19681769d014799843fd12198ddab472ca4b5c1d354238beb09c",
        "S": "7ec300d5b751f3c0c373b9ceb3e6a92b43a1d5b6967420c3e62f948e609d7147",
        "V": "21ff433efca3f11e5deffd15f64ca1e37cc1cdd1e39cff230f85040ee6258899",
        "Uinv": "12df1cd635f0fc879267044b34fa21310a2c43ea18876c344dd430a831e28a64",
        "Vinv": "c23d4d39a6268ee8dfefe29b8a4b44efa014bc87e7de9bc59384a957ae4a5588",
    },
    ("product:cyclic:2,cyclic:4", 2, 3): {
        "vals": "f2e912278797e23e3051904496e59524b761ab149aae43074eeed03110d11690",
        "S": "f96cb70f1d9d475ab7cefee2644637ee6966286f102babb3fef3220fad37be85",
        "V": "2c16cd7aaa04ad936c4af37f03dcaf40c114fabcbab9227307cf4109875a109d",
        "Uinv": "e6c276b8398d3c21c93df3a92d4ecc4dbb08f3afb36be1926fbff0266c7c2fcf",
        "Vinv": "9a5a50c7ad2e45b999afb85394c06073e0d9fcfc9868fc6b22b0225e1bc73107",
    },
    ("symmetric:3", 3, 1): {
        "vals": "402e36ae254feab85df5cc98d121644db495719d0007df58f04340a48d67c848",
        "S": "62a2f7705b577c5f93841a1e2a1a551226b3d328c4f364a0ef17e6749c70e8dc",
        "V": "dbe687107cc8324ee2a4e46e3f7198342b93220ba146463998ab469aba6e1ec8",
        "Uinv": "4974205533c42241452404a9c2a36c4b93cb1d21218a510c0acdb7cf951c047a",
        "Vinv": "fa8bdb92e8997af97136b14636ad045292eba4174155ec69acbbd0110956437e",
    },
}


@pytest.mark.parametrize("spec,p,k", sorted(SMITH_DIGESTS))
def test_smith_pivot_order_is_pinned(spec, p, k):
    res = smith_mod_prime_power(bar_matrix(group_construct(spec), 3), p, k,
                                want_v=True, want_uinv=True, want_vinv=True)
    digests = {}
    for key in SMITH_DIGESTS[spec, p, k]:
        arr = np.ascontiguousarray(res[key], dtype=np.int64)
        digests[key] = hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()
    assert digests == SMITH_DIGESTS[spec, p, k]
