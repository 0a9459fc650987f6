"""Exact linear algebra over residue rings.

Invariant factors, kernels and cyclic generators come from a diagonal
(Smith-style) form over a single prime power Z_{p^k}, where an entry of
minimal p-valuation is a unit multiple of a power of p and can serve as a
pivot without coefficient growth.  The valuations are kept beside the
matrix, read through a table of the p^k residues.  The least valuation of
the trailing block never drops from one pivot to the next, so the pivot
search starts at the last pivot's and stops at the first entry it finds.
Each pivot touches only the entries it changes: the row sweep is
restricted to the pivot row's support and the column sweep to the support
of V's pivot column, both gathered and scattered through flat indices, and
Uinv and Vinv change in one row per pivot, since the rows below it are
still unit rows.  One implementation serves every p^k.

Everything that reads a vector against a lattice works over Z_m directly:
the Howell form of the lattice is computed once, then any number of
vectors are reduced against it to their lexicographically minimal
representatives, with the coefficients that express each difference in the
generators.  Membership, solving and coordinates against a direct-sum basis
are all read off that reduction.
"""

import numpy as np


def prime_power_decomposition(m):
    """[(p, k), ...] with m = prod p^k, p ascending."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def _valuations(p, k):
    """The p-adic valuation of each residue of Z_{p^k} as an int8 table
    indexed by the residue, with k for 0: a matrix of residues gathers its
    valuations from it."""
    table = np.zeros(p**k, dtype=np.int8)
    for v in range(1, k):
        table[::p**v] = v
    table[0] = k
    return table


# rows of the trailing block that one step of the pivot search compares
_CHUNK = 64


def _swap_rows(A, a, b, start=0):
    """Swap rows a and b of A from column start on (columns, through A.T)."""
    row = A[a, start:].copy()
    A[a, start:] = A[b, start:]
    A[b, start:] = row


def _first_of_least_valuation(W, t, v, k):
    """(i, j, v) for the first entry, in row-major order, of the least
    valuation in W[t:, t:], given that none is below v; None when all are k.
    Rows are compared _CHUNK at a time and the scan stops at the first hit,
    so a pivot of the current valuation is found without reading the whole
    block."""
    width = W.shape[1] - t
    for v in range(v, k):
        for r0 in range(t, W.shape[0], _CHUNK):
            hits = W[r0:r0 + _CHUNK, t:] == v
            first = int(hits.argmax())
            if hits.flat[first]:
                i, j = divmod(first, width)
                return r0 + i, t + j, v
    return None


def smith_mod_prime_power(mat, p, k, want_v=False, want_uinv=False,
                          want_vinv=False):
    """Diagonalize mat over Z_q, q = p^k: mat @ V = Uinv @ S with S diagonal
    p^{e_0} | p^{e_1} | ... (0 mod q encoded as valuation k).

    Returns a dict with "vals" (diagonal valuations, one per pivot position)
    and "S", plus any of "V", "Uinv", "Vinv" requested; V and Uinv are
    invertible over Z_q, and Vinv is tracked alongside V.  The pivot at
    position t is the first entry of minimal valuation, in row-major order,
    of the trailing block M[t:, t:].  That minimum never drops from one
    pivot to the next (every entry the row sweep writes is a combination of
    entries of valuation at least the pivot's), so the search starts at the
    last pivot's valuation and stops at the first entry it finds.

    Each pivot touches only the entries it changes: rows above t are zero
    from column t on, the row sweep covers the rows with a nonzero factor
    and the columns where the pivot row is nonzero, and the column sweep
    updates V only in the rows where its pivot column is nonzero.  Both
    sweeps gather and scatter that block through flat indices.
    """
    q = p**k
    M = np.array(mat, dtype=np.int64, order="C") % q
    rows, cols = M.shape
    V = np.eye(cols, dtype=np.int64) if want_v else None
    # Uinv is built transposed, so that its column operations are row ones.
    # Pivot t only rewrites row t of UinvT and of Vinv, as a combination of
    # rows below t, which are still unit rows: row r >= t is e_uperm[r] in
    # UinvT and e_vperm[r] in Vinv.  So their swaps swap uperm and vperm, a
    # combination writes its factors at those positions, and the unit rows
    # left at the end are written then.
    UinvT = np.zeros((rows, rows), dtype=np.int64) if want_uinv else None
    Vinv = np.zeros((cols, cols), dtype=np.int64) if want_vinv else None
    uperm, vperm = np.arange(rows), np.arange(cols)
    # W[i, j] is the valuation of M[i, j] in the trailing block: computed
    # once, permuted with M, and recomputed only where the row sweep changes M
    valuations = _valuations(p, k)
    W = valuations[M]
    flatM, flatW = M.reshape(-1), W.reshape(-1)
    flatV = None if V is None else V.reshape(-1)

    diag_vals = []
    t = vmin = 0
    npos = min(rows, cols)
    while t < npos:
        found = _first_of_least_valuation(W, t, vmin, k)
        if found is None:
            break
        i, j, vmin = found
        # rows above t are zero from column t on, so swaps skip them
        if i != t:
            _swap_rows(M, t, i, t)
            _swap_rows(W, t, i, t)
            uperm[t], uperm[i] = uperm[i], uperm[t]
        if j != t:
            _swap_rows(M.T, t, j, t)
            _swap_rows(W.T, t, j, t)
            if V is not None:
                _swap_rows(V.T, t, j)
            vperm[t], vperm[j] = vperm[j], vperm[t]
        piv = p**vmin
        unit = int(M[t, t]) // piv
        uinv = pow(unit, -1, q)
        # the pivot row's support, which starts at t; a unit multiple keeps
        # it and its valuations
        support = t + np.flatnonzero(M[t, t:])
        M[t, support] = (M[t, support] * uinv) % q
        # the row sweep subtracts a multiple of row t from each row below t
        # with a nonzero factor, which changes only the support's columns;
        # the entries below the pivot are multiples of piv, so a factor is
        # nonzero exactly where its entry is
        nz = t + 1 + np.flatnonzero(M[t + 1:, t])
        factors = M[nz, t] // piv
        if nz.size:
            block = (nz * cols)[:, None] + support
            swept = (flatM[block] - np.outer(factors, M[t, support])) % q
            flatM[block] = swept
            flatW[block] = valuations[swept]
        if UinvT is not None:
            UinvT[t, uperm[t]] = unit
            UinvT[t, uperm[nz]] = factors
        # column t is now clear below the pivot, so the column sweep only
        # clears the rest of row t's support, and V only changes in the rows
        # where V[:, t] is nonzero
        tail = support[1:]
        cfac = M[t, tail] // piv
        M[t, tail] = 0
        if V is not None and tail.size:
            vrows = np.flatnonzero(V[:, t])
            block = (vrows * cols)[:, None] + tail
            flatV[block] = (flatV[block] - np.outer(V[vrows, t], cfac)) % q
        if Vinv is not None:
            Vinv[t, vperm[tail]] = cfac
        diag_vals.append(vmin)
        t += 1
    while len(diag_vals) < npos:
        diag_vals.append(k)
    out = {"vals": diag_vals, "S": M}
    if want_v:
        out["V"] = V
    if want_uinv:
        UinvT[np.arange(t, rows), uperm[t:]] = 1
        out["Uinv"] = UinvT.T
    if want_vinv:
        Vinv[np.arange(cols), vperm] = 1
        out["Vinv"] = Vinv
    return out


def kernel_mod_prime_power(mat, p, k):
    """Kernel of mat over Z_q as a generated subgroup of Z_q^cols.

    Returns (gens, orders, Vinv): column j of gens generates a cyclic
    subgroup of order orders[j] = p^e_j and the kernel is the set of integer
    combinations of the columns.  Generator j is V[:, j] * p^(k - e_j), for
    V the column transform of the underlying Smith form; Vinv is its
    inverse over Z_q, which reads off coordinates against the generators.
    """
    q = p**k
    cols = np.asarray(mat).shape[1]
    res = smith_mod_prime_power(mat, p, k, want_v=True, want_vinv=True)
    vals = res["vals"] + [k] * (cols - len(res["vals"]))
    gens = res["V"] * p ** (k - np.array(vals, dtype=np.int64)) % q
    return gens, [p**e for e in vals], res["Vinv"]


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        qv, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - qv * x1
        y0, y1 = y1, y0 - qv * y1
    return a, x0, y0


def howell_basis(gen_cols, m):
    """Echelon basis of the lattice L in Z_m^n generated by the columns of
    gen_cols (n x c) together with m*Z^n: its Howell form (Storjohann and
    Mulders, ESA 1998), as (positions, divisors, rows).

    Greedy sweep, in ascending order, over the coordinates where a
    generator leads: at each one, combine the generators leading there into
    one pivot of value d = gcd(leading entries, m), clear the others against
    it, and add its closure (m/d) * pivot, so that the pivots at later
    coordinates span every element of L vanishing before them.  Each
    generator is a row augmented with its coefficients on the columns, so
    pivot row i satisfies
    rows[i, :n] = gen_cols @ rows[i, n:] (mod m), rows[i, :positions[i]] = 0
    and rows[i, positions[i]] = divisors[i].
    """
    gen_cols = np.asarray(gen_cols, dtype=np.int64) % m
    n, c = gen_cols.shape
    R = np.concatenate([gen_cols.T, np.eye(c, dtype=np.int64)], axis=1)
    positions, divisors, pivots = [], [], []
    while True:
        nonzero = R[:, :n] != 0
        live = nonzero.any(axis=1)
        if not live.any():
            break
        R = R[live]
        # every live row vanishes before the last pivot's position, so the
        # next pivot sits at the least first nonzero coordinate
        pos = int(nonzero[live].argmax(axis=1).min())
        lead = np.flatnonzero(R[:, pos])
        # Bezout steps take the leading entries to their gcd with m, and the
        # pivot is the combination of the leading rows that they build up
        entries = R[lead, pos].tolist()
        a, coefs = entries[0], [1]
        for x in entries[1:]:
            _, s, t = _xgcd(a, x)
            coefs = [s * f % m for f in coefs] + [t % m]
            a = (s * a + t * x) % m
        d, s, _ = _xgcd(a, m)
        acc = np.array([s * f % m for f in coefs], dtype=np.int64) @ R[lead] % m
        cleared = (R[lead] - np.outer(R[lead, pos] // d, acc)) % m
        closure = (m // d) * acc % m
        R = np.concatenate([np.delete(R, lead, axis=0), cleared, closure[None]])
        positions.append(pos)
        divisors.append(d)
        pivots.append(acc)
    return positions, divisors, np.array(pivots, dtype=np.int64).reshape(len(pivots), n + c)


def lex_reduce_mod(basis, m, vecs):
    """(reps, x): reps is the lexicographically minimal element of vec + L
    for each vector vec along the last axis of vecs, where basis is the
    howell_basis of L in Z_m^n, and x holds the coefficients on its
    generators with vec - rep = gen_cols @ x (mod m)."""
    positions, divisors, rows = basis
    V = np.asarray(vecs, dtype=np.int64) % m
    n = V.shape[-1]
    X = np.zeros(V.shape[:-1] + (rows.shape[1] - n,), dtype=np.int64)
    for pos, d, row in zip(positions, divisors, rows):
        f = (V[..., pos] // d)[..., None]
        V = (V - f * row[:n]) % m
        X = (X + f * row[n:]) % m
    return V, X

