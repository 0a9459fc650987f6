"""Brute-force oracles for the test suite.

Everything here recomputes results from first principles (direct formula
evaluation, exhaustive enumeration, order counting) without touching the
library's solver, kernel, or normal-form code paths, so that agreement is
meaningful.
"""

import itertools

import numpy as np


def normalized_triples(order):
    return list(itertools.product(range(1, order), repeat=3))


def normalized_pairs(order):
    return list(itertools.product(range(1, order), repeat=2))


def d3_matrix(G):
    """Full coboundary of a normalized 3-cochain: rows over all of G^4,
    columns over non-identity triples, by direct evaluation of the 5-term
    alternating sum."""
    cols = {trip: i for i, trip in enumerate(normalized_triples(G.order))}
    rows = list(itertools.product(range(G.order), repeat=4))
    D = np.zeros((len(rows), len(cols)), dtype=np.int64)

    def bump(r, trip, sign):
        if 0 not in trip:
            D[r, cols[trip]] += sign

    for r, (g1, g2, g3, g4) in enumerate(rows):
        bump(r, (g2, g3, g4), 1)
        bump(r, (G.table[g1][g2], g3, g4), -1)
        bump(r, (g1, G.table[g2][g3], g4), 1)
        bump(r, (g1, g2, G.table[g3][g4]), -1)
        bump(r, (g1, g2, g3), 1)
    return D


def d2_matrix(G):
    """Coboundary of a normalized 2-cochain into normalized 3-cochain
    coordinates."""
    rows = {trip: i for i, trip in enumerate(normalized_triples(G.order))}
    cols = {pair: i for i, pair in enumerate(normalized_pairs(G.order))}
    D = np.zeros((len(rows), len(cols)), dtype=np.int64)

    def bump(r, pair, sign):
        if 0 not in pair:
            D[r, cols[pair]] += sign

    for trip, r in rows.items():
        g1, g2, g3 = trip
        bump(r, (g2, g3), 1)
        bump(r, (G.table[g1][g2], g3), -1)
        bump(r, (g1, G.table[g2][g3]), 1)
        bump(r, (g1, g2), -1)
    return D


def brute_cocycle_vectors(G, m):
    """All normalized 3-cochain coordinate vectors mod m killed by the full
    coboundary, via one batched matrix product."""
    D = d3_matrix(G)
    k = D.shape[1]
    if k == 0:
        return [()]
    vecs = np.array(
        list(itertools.product(range(m), repeat=k)), dtype=np.int64
    )
    image = vecs @ D.T % m
    keep = ~np.any(image, axis=1)
    return [tuple(int(x) for x in v) for v in vecs[keep]]


def brute_coboundary_vectors(G, m):
    """The set of coboundary coordinate vectors mod m."""
    D = d2_matrix(G)
    k = D.shape[1]
    if k == 0:
        return {(0,) * D.shape[0] if D.shape[0] else ()}
    betas = np.array(
        list(itertools.product(range(m), repeat=k)), dtype=np.int64
    )
    image = betas @ D.T % m
    return {tuple(int(x) for x in v) for v in image}


def _prime_factors(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def quotient_invariants(Z, B, m):
    """Invariant factors of the quotient of Z by B inside (Z_m)^k, from
    annihilator counts: in an abelian p-group of type lambda, the number of
    elements killed by p^j is p^(sum_i min(lambda_i, j))."""
    order = len(Z) // len(B)
    if order == 1:
        return []
    prime_powers = []
    for p, _ in _prime_factors(order).items():
        lam = []
        prev = 0
        j = 1
        while True:
            killed = sum(
                1
                for z in Z
                if tuple((p**j * x) % m for x in z) in B
            ) // len(B)
            exp = 0
            n = killed
            while n % p == 0:
                n //= p
                exp += 1
            # exp = sum_i min(lambda_i, j); the increment over the previous
            # level counts parts of size > j-1 ... > j
            parts_at_least_j = exp - prev
            if parts_at_least_j == 0:
                break
            lam.append(parts_at_least_j)
            prev = exp
            j += 1
        # lam[j-1] = number of parts >= j; convert to the partition
        partition = []
        for i in range(lam[0]):
            size = sum(1 for c in lam if c > i)
            partition.append(size)
        prime_powers.extend(p**s for s in partition)
    # merge prime powers into a divisibility chain
    by_prime = {}
    for q in prime_powers:
        p = next(iter(_prime_factors(q)))
        by_prime.setdefault(p, []).append(q)
    for p in by_prime:
        by_prime[p].sort(reverse=True)
    depth = max(len(v) for v in by_prime.values())
    chain = []
    for i in range(depth):
        f = 1
        for p in by_prime:
            if i < len(by_prime[p]):
                f *= by_prime[p][i]
        chain.append(f)
    chain.reverse()
    return chain


def brute_h3(G, m):
    """(|Z3|, |B3|, invariant factors of H3) for cyclic coefficients Z_m,
    fully by enumeration."""
    Z = brute_cocycle_vectors(G, m)
    B = brute_coboundary_vectors(G, m)
    return len(Z), len(B), quotient_invariants(Z, B, m)


def brute_h3_multi(G, factors):
    """Invariant factors of H3(G, +Z_m) for a product of cyclic factors:
    the direct sum of the per-factor answers, merged into one chain."""
    qs = []
    sizes = []
    for m in factors:
        nz, nb, chain = brute_h3(G, m)
        sizes.append((nz, nb))
        for f in chain:
            for p, e in _prime_factors(f).items():
                qs.append(p**e)
    by_prime = {}
    for q in qs:
        p = next(iter(_prime_factors(q)))
        by_prime.setdefault(p, []).append(q)
    for p in by_prime:
        by_prime[p].sort(reverse=True)
    if not by_prime:
        return sizes, []
    depth = max(len(v) for v in by_prime.values())
    chain = []
    for i in range(depth):
        f = 1
        for p in by_prime:
            if i < len(by_prime[p]):
                f *= by_prime[p][i]
        chain.append(f)
    chain.reverse()
    return sizes, chain


def automorphism_images(G):
    """All automorphisms of G as image tuples, by filtered enumeration of
    bijections fixing the identity."""
    n = G.order
    out = []
    for perm in itertools.permutations(range(1, n)):
        image = (0,) + perm
        if all(
            image[G.table[x][y]] == G.table[image[x]][image[y]]
            for x in range(n)
            for y in range(n)
        ):
            out.append(image)
    return out


def table_violation(table):
    """The first group-axiom violation of a table of Python integers, as
    (reason, witness), or None: closure row by row (a row's length before
    its entries), the identity, inverses (row i before column i), then
    associativity over (x, y, z) in lexicographic order, each by direct
    scanning."""
    n = len(table)
    if n == 0:
        return "closure", ()
    for row in table:
        if len(row) != n:
            return "closure", (len(row), n)
        for x in row:
            if not 0 <= x < n:
                return "closure", (x,)
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            return "identity", (i,)
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            return "inverse", ("row", i)
        if sorted(table[j][i] for j in range(n)) != list(range(n)):
            return "inverse", ("column", i)
    for x, y, z in itertools.product(range(n), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return "associativity", (x, y, z)
    return None


def brute_coboundary(G, A, degree, values):
    """Values of the bar coboundary of a degree-n cochain with trivial
    action, listed over G^(n+1) with the first argument most significant, by
    direct evaluation of the alternating sum residue by residue."""
    n = degree
    cochain = dict(zip(itertools.product(range(G.order), repeat=n), values))
    out = []
    for args in itertools.product(range(G.order), repeat=n + 1):
        faces = [args[1:]]
        for i in range(1, n + 1):
            merged = G.table[args[i - 1]][args[i]]
            faces.append(args[:i - 1] + (merged,) + args[i + 1:])
        faces.append(args[:-1])
        out.append(tuple(
            sum((-1) ** i * cochain[face][t] for i, face in enumerate(faces)) % m
            for t, m in enumerate(A.invariant_factors)
        ))
    return out


def brute_compatible_horns(faces, sizes, n, missing):
    """All compatible (n, missing)-horns of a simplicial set given by plain
    face tables (faces[(n, i)] a list) and level sizes, as tuples of
    level-(n-1) cells in increasing face index, lexicographic: an exhaustive
    scan of itertools.product over level-(n-1) cells, keeping the tuples
    with d_j(x_k) = d_{k-1}(x_j) for every pair of slots j < k."""
    slots = [j for j in range(n + 1) if j != missing]
    pairs = [(a, b) for b in range(len(slots)) for a in range(b)] if n >= 2 else []
    out = []
    for cells in itertools.product(range(sizes[n - 1]), repeat=len(slots)):
        if all(
            faces[(n - 1, slots[a])][cells[b]] == faces[(n - 1, slots[b] - 1)][cells[a]]
            for a, b in pairs
        ):
            out.append(cells)
    return out


def brute_first_unfilled_horn(faces, sizes, truncation):
    """(n, missing, cells) for the first compatible horn, n and missing
    ascending and cells lexicographic, that no level-n cell fills, by
    searching level n cell by cell; None when every horn has a filler."""
    for n in range(1, truncation + 1):
        for missing in range(n + 1):
            slots = [j for j in range(n + 1) if j != missing]
            for cells in brute_compatible_horns(faces, sizes, n, missing):
                if not any(
                    all(faces[(n, j)][z] == c for j, c in zip(slots, cells))
                    for z in range(sizes[n])
                ):
                    return n, missing, cells
    return None


def _first_failing(cells, lhs, rhs, factors):
    """The first cell (in the order given) where lhs and rhs, lists of
    residues, differ modulo factors; None when they agree everywhere."""
    for cell in cells:
        if any((a - b) % m for a, b, m in zip(lhs(*cell), rhs(*cell), factors)):
            return cell
    return None


def _table(order, degree, values):
    return dict(zip(itertools.product(range(order), repeat=degree), values))


def _plus(*vals):
    return [sum(rs) for rs in zip(*vals)]


def brute_pentagon(table, factors, values):
    """First (w, x, y, z), lexicographic, where the pentagon
    alpha(wx, y, z) + alpha(w, x, yz) = alpha(w, x, y) + alpha(w, xy, z)
    + alpha(x, y, z) fails for the 3-cochain with these values (residue
    tuples over G^3, first argument most significant), or None."""
    n = len(table)
    a = _table(n, 3, values)
    return _first_failing(
        itertools.product(range(n), repeat=4),
        lambda w, x, y, z: _plus(a[table[w][x], y, z], a[w, x, table[y][z]]),
        lambda w, x, y, z: _plus(a[w, x, y], a[w, table[x][y], z], a[x, y, z]),
        factors,
    )


def brute_triangle(table, factors, values):
    """First (x, y), lexicographic, with alpha(x, e, y) nonzero, or None."""
    n = len(table)
    a = _table(n, 3, values)
    return _first_failing(
        itertools.product(range(n), repeat=2),
        lambda x, y: a[x, 0, y], lambda x, y: [0] * len(factors), factors,
    )


def brute_hexagon(table, factors, src, dst, j):
    """First (x, y, z), lexicographic, where j(x, y) + j(xy, z) +
    dst(x, y, z) = src(x, y, z) + j(y, z) + j(x, yz) fails, or None."""
    n = len(table)
    s, d, c = _table(n, 3, src), _table(n, 3, dst), _table(n, 2, j)
    return _first_failing(
        itertools.product(range(n), repeat=3),
        lambda x, y, z: _plus(c[x, y], c[table[x][y], z], d[x, y, z]),
        lambda x, y, z: _plus(s[x, y, z], c[y, z], c[x, table[y][z]]),
        factors,
    )


# ---------------------------------------------------------------------------
# Gamma(A[2]), Wbar, W and the decalage from their definitions
#
# A is given by its invariant factors; its elements are the residue tuples
# in lexicographic order, numbered from 0.  Every cell is a tuple of
# element numbers (its copies of A) or a tuple of such tuples, and its code
# is the mixed-radix number of all its copies in order, first most
# significant.


def monotone_surjections(n):
    """The monotone surjections [n] ->> [2] as value tuples, lexicographic,
    by filtering all maps [n] -> [2]."""
    return [s for s in itertools.product(range(3), repeat=n + 1)
            if set(s) == {0, 1, 2} and all(a <= b for a, b in zip(s, s[1:]))]


class B2AOracle:
    """Gamma(A[2]) as a simplicial abelian group and May's Wbar and W of
    it, as Python tuples (J. P. May, Simplicial Objects in Algebraic
    Topology, 1967, section 21)."""

    def __init__(self, factors):
        elements = list(itertools.product(*(range(m) for m in factors)))
        number = {e: k for k, e in enumerate(elements)}
        self.order = len(elements)
        self.sum = [[number[tuple((x + y) % m for x, y, m in zip(a, b, factors))]
                     for b in elements] for a in elements]
        self.surjections = {}

    def surj(self, n):
        if n not in self.surjections:
            self.surjections[n] = monotone_surjections(n)
        return self.surjections[n]

    def plus(self, g, h):
        return tuple(self.sum[a][b] for a, b in zip(g, h))

    def zero(self, n):
        return (0,) * len(self.surj(n))

    def gamma_cells(self, n):
        """Gamma_n: one copy of A per monotone surjection [n] ->> [2]."""
        return list(itertools.product(range(self.order), repeat=len(self.surj(n))))

    def gamma(self, kind, n, i, g):
        """d_i or s_i of the Gamma_n cell g: the copy of sigma goes to the
        copy of sigma after the coface delta_i or the codegeneracy sigma_i,
        and is dropped when that composite does not reach all of [2];
        copies that land together add."""
        m = n - 1 if kind == "face" else n + 1
        position = {s: k for k, s in enumerate(self.surj(m))}
        out = list(self.zero(m))
        for s, a in zip(self.surj(n), g):
            t = s[:i] + s[i + 1:] if kind == "face" else s[:i + 1] + s[i:]
            if t in position:
                out[position[t]] = self.sum[out[position[t]]][a]
        return tuple(out)

    def wbar_cells(self, n):
        """Wbar_n: (g_1, ..., g_n) with g_t in Gamma_{n-t}."""
        return list(itertools.product(*(self.gamma_cells(n - t) for t in range(1, n + 1))))

    def wbar(self, kind, n, i, g):
        """May's d_i and s_i of the Wbar_n cell g = (g_1, ..., g_n):
        d_0 drops g_1; d_i (0 < i < n) is (d_{i-1} g_1, ..., d_1 g_{i-1},
        d_0 g_i + g_{i+1}, g_{i+2}, ..., g_n); d_n is (d_{n-1} g_1, ...,
        d_1 g_{n-1}); s_i is (s_{i-1} g_1, ..., s_0 g_i, 0, g_{i+1}, ...,
        g_n)."""
        if kind == "face":
            if i == 0:
                return g[1:]
            low = tuple(self.gamma("face", n - t, i - t, g[t - 1]) for t in range(1, i))
            if i == n:
                return low
            return low + (self.plus(self.gamma("face", n - i, 0, g[i - 1]), g[i]),) + g[i + 1:]
        low = tuple(self.gamma("degeneracy", n - t, i - t, g[t - 1]) for t in range(1, i + 1))
        return low + (self.zero(n - i),) + g[i:]

    def w_cells(self, n):
        """W_n = Gamma_n x Wbar_n: (h_0, h_1, ..., h_n) with h_t in
        Gamma_{n-t}."""
        return [(h,) + g for h in self.gamma_cells(n) for g in self.wbar_cells(n)]

    def w(self, kind, n, i, h):
        """May's d_i and s_i of the W_n cell h = (h_0, ..., h_n): d_i
        (i < n) is (d_i h_0, ..., d_1 h_{i-1}, d_0 h_i + h_{i+1}, h_{i+2},
        ..., h_n); d_n is (d_n h_0, ..., d_1 h_{n-1}); s_i is (s_i h_0, ...,
        s_0 h_i, 0, h_{i+1}, ..., h_n)."""
        if kind == "face":
            low = tuple(self.gamma("face", n - t, i - t, h[t]) for t in range(i))
            if i == n:
                return low
            return low + (self.plus(self.gamma("face", n - i, 0, h[i]), h[i + 1]),) + h[i + 2:]
        low = tuple(self.gamma("degeneracy", n - t, i - t, h[t]) for t in range(i + 1))
        return low + (self.zero(n - i),) + h[i + 1:]

    def code(self, cell):
        """The mixed-radix code of a cell's copies of A, in order."""
        code = 0
        for part in cell:
            for a in (part if isinstance(part, tuple) else (part,)):
                code = code * self.order + a
        return code

    def to_json(self, what, truncation):
        """The to_json() of Gamma(A[2]) ("gamma"), Wbar ("wbar") or W ("w")
        at the given truncation."""
        cells = getattr(self, what + "_cells")
        op = getattr(self, what)
        levels = [cells(n) for n in range(truncation + 1)]
        faces = {"%d,%d" % (n, i): [self.code(op("face", n, i, x)) for x in levels[n]]
                 for n in range(1, truncation + 1) for i in range(n + 1)}
        degeneracies = {"%d,%d" % (n, i): [self.code(op("degeneracy", n, i, x))
                                           for x in levels[n]]
                        for n in range(truncation) for i in range(n + 1)}
        return {"truncation": truncation, "levels": [len(lv) for lv in levels],
                "faces": faces, "degeneracies": degeneracies}

    def decalage(self, truncation):
        """The components of dec: W -> Wbar, which drops h_0."""
        return [[self.code(h[1:]) for h in self.w_cells(n)] for n in range(truncation + 1)]
