"""Exact linear algebra over residue rings.

Invariant factors, kernels and cyclic generators come from a diagonal
(Smith-style) form over a single prime power Z_{p^k}, where an entry of
minimal p-valuation is a unit multiple of a power of p and can serve as a
pivot without coefficient growth.  Everything that reads a vector against a
lattice works over Z_m directly: the Howell form of the lattice is computed
once, then any number of vectors are reduced against it to their
lexicographically minimal representatives, with the coefficients that
express each difference in the generators.  Membership, solving and
coordinates against a direct-sum basis are all read off that reduction.
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


def _valuations(A, p, k):
    """The p-adic valuation of each entry of A over Z_{p^k}, as int8, with
    k for a zero entry."""
    W = np.zeros(A.shape, dtype=np.int8)
    for v in range(1, k):
        W[A % p**v == 0] = v
    W[A == 0] = k
    return W


def smith_mod_prime_power(mat, p, k, want_v=False, want_uinv=False,
                          want_vinv=False):
    """Diagonalize mat over Z_q, q = p^k: mat @ V = Uinv @ S with S diagonal
    p^{e_0} | p^{e_1} | ... (0 mod q encoded as valuation k).

    Returns a dict with "vals" (diagonal valuations, one per pivot position)
    and "S", plus any of "V", "Uinv", "Vinv" requested; V and Uinv are
    invertible over Z_q, and Vinv is tracked alongside V.  The pivot at
    position t is the first entry of minimal valuation, in row-major order,
    of the trailing block M[t:, t:].
    """
    q = p**k
    M = np.array(mat, dtype=np.int64) % q
    rows, cols = M.shape
    # Uinv is built transposed, so that its column operations are row ones
    UinvT = np.eye(rows, dtype=np.int64) if want_uinv else None
    V = np.eye(cols, dtype=np.int64) if want_v else None
    Vinv = np.eye(cols, dtype=np.int64) if want_vinv else None
    # W[i, j] is the valuation of M[i, j]: computed once, permuted with M,
    # and recomputed only where a sweep changes M
    W = _valuations(M, p, k)

    diag_vals = []
    t = 0
    npos = min(rows, cols)
    while t < npos:
        sub = W[t:, t:]
        i, j = divmod(int(sub.argmin()), cols - t)
        vmin = int(sub[i, j])
        if vmin >= k:
            break
        i, j = i + t, j + t
        if i != t:
            M[[t, i]] = M[[i, t]]
            W[[t, i]] = W[[i, t]]
            if UinvT is not None:
                UinvT[[t, i]] = UinvT[[i, t]]
        if j != t:
            M[:, [t, j]] = M[:, [j, t]]
            W[:, [t, j]] = W[:, [j, t]]
            if V is not None:
                V[:, [t, j]] = V[:, [j, t]]
            if Vinv is not None:
                Vinv[[t, j]] = Vinv[[j, t]]
        piv = p**vmin
        unit = int(M[t, t]) // piv
        uinv = pow(unit, -1, q)
        # a unit multiple keeps the valuations of row t
        M[t, :] = (M[t, :] * uinv) % q
        if UinvT is not None:
            UinvT[t] = (UinvT[t] * unit) % q
        # rows above t are already clear in column t, so the row sweep only
        # touches rows below t with a nonzero factor, in columns >= t
        factors = (M[:, t] // piv) % q
        factors[t] = 0
        nz = np.flatnonzero(factors)
        if nz.size:
            swept = (M[nz, t:] - np.outer(factors[nz], M[t, t:])) % q
            M[nz, t:] = swept
            W[nz, t:] = _valuations(swept, p, k)
            if UinvT is not None:
                UinvT[t] = (UinvT[t] + factors[nz] @ UinvT[nz]) % q
        # column t is now clear below the pivot, so the column sweep only
        # clears the tail of row t
        cfac = (M[t, :] // piv) % q
        cfac[t] = 0
        nzc = np.flatnonzero(cfac)
        if nzc.size:
            M[t, t + 1:] = 0
            if V is not None:
                V[:, nzc] = (V[:, nzc] - np.outer(V[:, t], cfac[nzc])) % q
            if Vinv is not None:
                Vinv[t, :] = (Vinv[t, :] + cfac[nzc] @ Vinv[nzc]) % q
        W[t, t + 1:] = k
        diag_vals.append(vmin)
        t += 1
    while len(diag_vals) < npos:
        diag_vals.append(k)
    out = {"vals": diag_vals, "S": M}
    if want_v:
        out["V"] = V
    if want_uinv:
        out["Uinv"] = UinvT.T
    if want_vinv:
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
    V = res["V"]
    vals = res["vals"]
    gens = np.zeros((cols, cols), dtype=np.int64)
    orders = []
    for j in range(cols):
        e = vals[j] if j < len(vals) else k
        gens[:, j] = (V[:, j] * p ** (k - e)) % q
        orders.append(p**e)
    return gens, orders, res["Vinv"]


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

    Greedy sweep over the coordinates: at each one, combine the generators
    leading there into one pivot of value d = gcd(leading entries, m), clear
    the others against it, and add its closure (m/d) * pivot, so that the
    pivots at later coordinates span every element of L vanishing before
    them.  Each generator is a row augmented with its coefficients on the
    columns, so pivot row i satisfies
    rows[i, :n] = gen_cols @ rows[i, n:] (mod m), rows[i, :positions[i]] = 0
    and rows[i, positions[i]] = divisors[i].
    """
    gen_cols = np.asarray(gen_cols, dtype=np.int64) % m
    n, c = gen_cols.shape
    R = np.concatenate([gen_cols.T, np.eye(c, dtype=np.int64)], axis=1)
    positions, divisors, pivots = [], [], []
    for pos in range(n):
        R = R[R[:, :n].any(axis=1)]
        lead = np.flatnonzero(R[:, pos])
        if not lead.size:
            continue
        acc = R[lead[0]]
        for i in lead[1:]:
            _, s, t = _xgcd(int(acc[pos]), int(R[i, pos]))
            acc = (s * acc + t * R[i]) % m
        d, s, _ = _xgcd(int(acc[pos]), m)
        acc = (s * acc) % m
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

