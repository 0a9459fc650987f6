"""Exact linear algebra over residue rings Z_{p^k}.

Everything reduces to a diagonal (Smith-style) form over a single prime
power, where an entry of minimal p-valuation is a unit multiple of a power
of p and can serve as a pivot without coefficient growth.  General moduli
are handled by CRT across their prime-power parts.
"""

from collections import defaultdict

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


def smith_mod_prime_power(mat, p, k, want_u=False, want_v=False, want_uinv=False,
                          want_vinv=False):
    """Diagonalize mat over Z_q, q = p^k: U @ mat @ V = S with S diagonal
    p^{e_0} | p^{e_1} | ... (0 mod q encoded as valuation k).

    Returns a dict with "vals" (diagonal valuations, one per pivot position)
    and "S", plus any of "U", "V", "Uinv", "Vinv" requested; U and V are
    invertible over Z_q, and the inverses are tracked alongside them.
    """
    q = p**k
    M = np.array(mat, dtype=np.int64) % q
    rows, cols = M.shape
    U = np.eye(rows, dtype=np.int64) if want_u else None
    Uinv = np.eye(rows, dtype=np.int64) if want_uinv else None
    V = np.eye(cols, dtype=np.int64) if want_v else None
    Vinv = np.eye(cols, dtype=np.int64) if want_vinv else None

    def val_matrix(A):
        vals = np.zeros(A.shape, dtype=np.int64)
        for v in range(1, k):
            vals[A % p**v == 0] = v
        vals[A == 0] = k
        return vals

    diag_vals = []
    t = 0
    npos = min(rows, cols)
    while t < npos:
        sub = M[t:, t:]
        vals = val_matrix(sub)
        vmin = int(vals.min())
        if vmin >= k:
            break
        i, j = np.unravel_index(int(vals.argmin()), vals.shape)
        i, j = int(i) + t, int(j) + t
        if i != t:
            M[[t, i]] = M[[i, t]]
            if U is not None:
                U[[t, i]] = U[[i, t]]
            if Uinv is not None:
                Uinv[:, [t, i]] = Uinv[:, [i, t]]
        if j != t:
            M[:, [t, j]] = M[:, [j, t]]
            if V is not None:
                V[:, [t, j]] = V[:, [j, t]]
            if Vinv is not None:
                Vinv[[t, j]] = Vinv[[j, t]]
        piv = p**vmin
        unit = int(M[t, t]) // piv
        uinv = pow(unit, -1, q)
        M[t, :] = (M[t, :] * uinv) % q
        if U is not None:
            U[t, :] = (U[t, :] * uinv) % q
        if Uinv is not None:
            Uinv[:, t] = (Uinv[:, t] * unit) % q
        # rows above t are already clear in column t, so the row sweep only
        # touches rows below t with a nonzero factor, in columns >= t
        factors = (M[:, t] // piv) % q
        factors[t] = 0
        nz = np.flatnonzero(factors)
        if nz.size:
            M[nz, t:] = (M[nz, t:] - np.outer(factors[nz], M[t, t:])) % q
            if U is not None:
                U[nz] = (U[nz] - np.outer(factors[nz], U[t])) % q
            if Uinv is not None:
                Uinv[:, t] = (Uinv[:, t] + Uinv[:, nz] @ factors[nz]) % q
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
        diag_vals.append(vmin)
        t += 1
    while len(diag_vals) < npos:
        diag_vals.append(k)
    out = {"vals": diag_vals, "S": M}
    if want_u:
        out["U"] = U
    if want_v:
        out["V"] = V
    if want_uinv:
        out["Uinv"] = Uinv
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


def solve_mod_prime_power(mat, rhs, p, k):
    """One solution x of mat @ x = rhs over Z_q, or None."""
    q = p**k
    rows, cols = np.asarray(mat).shape
    res = smith_mod_prime_power(mat, p, k, want_u=True, want_v=True)
    U, V, vals = res["U"], res["V"], res["vals"]
    c = (U @ (np.asarray(rhs, dtype=np.int64) % q)) % q
    y = np.zeros(cols, dtype=np.int64)
    for i in range(rows):
        ci = int(c[i])
        if i >= cols:
            if ci % q != 0:
                return None
            continue
        e = vals[i]
        if e >= k:
            if ci % q != 0:
                return None
            continue
        piv = p**e
        if ci % piv != 0:
            return None
        y[i] = ci // piv
    return (V @ y) % q


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        qv, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - qv * x1
        y0, y1 = y1, y0 - qv * y1
    return a, x0, y0


def lex_reduce_mod(gen_cols, m, vec):
    """Lexicographically minimal element of vec + L in Z_m^n, where L is
    generated by the columns of gen_cols together with m*Z^n.

    Greedy echelon sweep: at each coordinate, combine generators into one
    pivot of value gcd(leading entries, m), reduce vec below the pivot, and
    keep (with Howell closure) only generators vanishing there.
    """
    gen_cols = np.asarray(gen_cols, dtype=np.int64)
    n = len(vec)
    gens = (
        [list(map(int, gen_cols[:, j])) for j in range(gen_cols.shape[1])]
        if gen_cols.size
        else []
    )
    v = [int(x) % m for x in vec]
    for pos in range(n):
        gens = [g for g in gens if any(x % m for x in g)]
        col_lead = [g for g in gens if g[pos] % m != 0]
        if not col_lead:
            continue
        acc = None
        for g in col_lead:
            if acc is None:
                acc = [x % m for x in g]
                continue
            _, s, t = _xgcd(acc[pos], g[pos])
            acc = [(s * x + t * y) % m for x, y in zip(acc, g)]
        d, s, _ = _xgcd(acc[pos], m)
        acc = [(s * x) % m for x in acc]
        acc[pos] = d
        v = [(x - (v[pos] // d) * y) % m for x, y in zip(v, acc)]
        new_gens = [g for g in gens if g not in col_lead]
        for g in col_lead:
            f = g[pos] // d
            g2 = [(x - f * y) % m for x, y in zip(g, acc)]
            if any(g2):
                new_gens.append(g2)
        closure = [((m // d) * x) % m for x in acc]
        if any(closure):
            new_gens.append(closure)
        gens = new_gens
    return v


def canonical_invariant_factors(orders):
    """Merge a multiset of cyclic orders into divisibility-chain form,
    smallest factor first."""
    per_prime = defaultdict(list)
    for n in orders:
        if n <= 1:
            continue
        for p, k in prime_power_decomposition(n):
            per_prime[p].append(k)
    if not per_prime:
        return []
    for p in per_prime:
        per_prime[p].sort(reverse=True)
    width = max(len(v) for v in per_prime.values())
    chain = []
    for i in range(width):
        f = 1
        for p, ks in per_prime.items():
            if i < len(ks):
                f *= p ** ks[i]
        chain.append(f)
    chain.sort()
    return chain


def crt_combine(pairs, m):
    """x mod m from [(residue, q), ...] over the coprime prime-power parts
    q of m; the residues may be integers or int64 arrays of residues."""
    x = 0
    for r, q in pairs:
        rest = m // q
        x = x + r * (rest * pow(rest, -1, q))
    return x % m
