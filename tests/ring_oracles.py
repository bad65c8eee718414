"""Entry-by-entry reference code for finite commutative rings and the Galois
criteria.

These are the loop constructions that ``finrings`` replaced with einsums and
solves on the held ``structure`` array: the polynomial quotient ring by
``poly_mulmod``, ``product_ring``, ``subring_from_module``, the ring-morphism
check, the free-action Galois data, criterion (iv) and the descent modules of
criterion (ii).  Each multiplies through ``ring_mul``, a loop over the
constants it is given, so that no oracle runs an einsum of the code under
test.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from teichmuller.finrings import GaloisData, RingError, diagonalize_mod
from teichmuller.modlinalg import kernel_mod, submodule_size


def ring_mul(structure, a, b, m: int) -> np.ndarray:
    """sum_ij a_i b_j (e_i e_j) over the nested constants, mod m."""
    r = len(a)
    out = np.zeros(r, dtype=np.int64)
    for i in range(r):
        for j in range(r):
            out = out + int(a[i]) * int(b[j]) * np.asarray(structure[i][j], dtype=np.int64)
    return out % m


def _basis(r: int, i: int) -> np.ndarray:
    e = np.zeros(r, dtype=np.int64)
    e[i] = 1
    return e


# ---------------------------------------------------------------------------
# ring constructors

def poly_mulmod(a, b, f, p):
    """(a*b) mod f over Z/p, f monic; polys as low-to-high coefficient lists."""
    k = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            for i in range(k + 1):
                prod[d - k + i] = (prod[d - k + i] - c * f[i]) % p
    return [x % p for x in prod[:k]] + [0] * max(0, k - len(prod))


def quotient_poly_ring_oracle(m: int, f) -> tuple[tuple, tuple]:
    """(structure, unit) of (Z/m)[x]/(f) as nested tuples."""
    k = len(f) - 1
    struct = []
    for i in range(k):
        row = []
        for j in range(k):
            a = [0] * k
            a[i] = 1
            b = [0] * k
            b[j] = 1
            row.append(tuple(poly_mulmod(a, b, f, m)))
        struct.append(tuple(row))
    return tuple(struct), tuple([1] + [0] * (k - 1))


def product_ring_oracle(factors) -> tuple[tuple, tuple]:
    rank = sum(r.rank for r in factors)
    offs = []
    o = 0
    for r in factors:
        offs.append(o)
        o += r.rank
    struct = [[tuple([0] * rank) for _ in range(rank)] for _ in range(rank)]
    unit = [0] * rank
    for fi, r in enumerate(factors):
        o = offs[fi]
        for i in range(r.rank):
            unit[o + i] = int(r.unit[i])
            for j in range(r.rank):
                vec = [0] * rank
                prod = ring_mul(r.structure, _basis(r.rank, i), _basis(r.rank, j), r.modulus)
                for kk in range(r.rank):
                    vec[o + kk] = int(prod[kk])
                struct[o + i][o + j] = tuple(vec)
    return tuple(tuple(r) for r in struct), tuple(unit)


def subring_from_module_oracle(T, gens: np.ndarray) -> tuple[tuple, tuple, np.ndarray]:
    """(structure, unit, B) of the subring spanned by the generator columns,
    on the free basis columns B that ``subring_from_module`` chooses."""
    m = T.modulus
    dg = diagonalize_mod(gens, m, want_inverses=True)
    basis = []
    for i in range(len(dg.d)):
        g = gcd(int(dg.d[i]), m)
        if g == m:
            continue  # zero direction
        if g != 1:
            raise RingError("submodule is not free over Z/m")
        basis.append(dg.U_inv[:, i] % m)
    if not basis:
        raise RingError("empty subring")
    B = np.stack(basis, axis=1)
    rank = B.shape[1]
    bd = diagonalize_mod(B, m)
    one_coords = bd.solve(T.unit)
    if one_coords is None:
        raise RingError("subring does not contain 1")
    struct = []
    for i in range(rank):
        row = []
        for j in range(rank):
            coords = bd.solve(ring_mul(T.structure, B[:, i], B[:, j], m))
            if coords is None:
                raise RingError("module is not closed under multiplication")
            row.append(tuple(int(x) for x in coords))
        struct.append(tuple(row))
    return tuple(struct), tuple(int(x) for x in one_coords), B


def is_ring_morphism_oracle(R, mat) -> bool:
    m, mat = R.modulus, np.asarray(mat, dtype=np.int64)
    if not np.array_equal((mat @ R.unit) % m, R.unit):
        return False
    for i in range(R.rank):
        ei = _basis(R.rank, i)
        for j in range(R.rank):
            ej = _basis(R.rank, j)
            lhs = (mat @ ring_mul(R.structure, ei, ej, m)) % m
            rhs = ring_mul(R.structure, (mat @ ei) % m, (mat @ ej) % m, m)
            if not np.array_equal(lhs, rhs):
                return False
    return True


def free_action_oracle(points: int, perms, N, k) -> tuple[list, np.ndarray]:
    """The action matrices on Map(P, k) and the orbit-constant generators of
    Map(P/N, k), as ``galois_from_free_action`` takes them."""
    kr = k.rank
    rank = points * kr
    mats = []
    for n in range(N.order):
        mat = np.zeros((rank, rank), dtype=np.int64)
        for p in range(points):
            # (n.f)(p) = f(n^-1 p): permutation matrix on blocks
            src = perms[N.inv[n]][p]
            for u in range(kr):
                mat[p * kr + u, src * kr + u] = 1
        mats.append(mat)
    seen = set()
    orbit_cols = []
    for p in range(points):
        if p in seen:
            continue
        orbit = {perms[n][p] for n in range(N.order)}
        seen |= orbit
        for u in range(kr):
            vec = np.zeros(rank, dtype=np.int64)
            for q in orbit:
                vec[q * kr + u] = 1
            orbit_cols.append(vec % k.modulus)
    return mats, np.stack(orbit_cols, axis=1)


# ---------------------------------------------------------------------------
# criterion (iv): h: T (x)_S T -> Map(N, T)

def criterion_iv_oracle(data: GaloisData) -> tuple[np.ndarray, np.ndarray, bool]:
    """(H, rel, verdict): h on the generators e_i (x) e_j and the balancing
    relations (s e_i) (x) e_j - e_i (x) (s e_j)."""
    T, S, N = data.T, data.S, data.N
    m, r = T.modulus, T.rank
    rel_cols = []
    for u in range(S.rank):
        s_img = data.embed[:, u] % m
        for i in range(r):
            sei = ring_mul(T.structure, s_img, _basis(r, i), m)
            for j in range(r):
                sej = ring_mul(T.structure, s_img, _basis(r, j), m)
                vec = np.zeros(r * r, dtype=np.int64)
                for a in range(r):
                    vec[a * r + j] += sei[a]
                for b in range(r):
                    vec[i * r + b] -= sej[b]
                rel_cols.append(vec % m)
    rel = np.stack(rel_cols, axis=1)
    tensor_size = (m ** (r * r)) // submodule_size(rel, m)
    H = np.zeros((N.order * r, r * r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            for n in range(N.order):
                nej = (data.action[n] @ _basis(r, j)) % m
                H[n * r:(n + 1) * r, i * r + j] = ring_mul(T.structure, _basis(r, i), nej, m)
    if ((H @ rel) % m).any():
        return H, rel, False
    return H, rel, bool(submodule_size(H, m) == m ** (N.order * r) == tensor_size)


# ---------------------------------------------------------------------------
# criterion (ii): w: T (x)_S M^N -> M for M = T and M = T^tN

def descent_modules_oracle(data: GaloisData) -> list[tuple[int, object, object]]:
    """(dim, t_act, n_act) for M = T and M = T^tN, as closures."""
    T, N = data.T, data.N
    m, r = T.modulus, T.rank

    def t_act_t(t_img, v):
        return ring_mul(T.structure, t_img, v, m)

    def n_act_t(n, v):
        return (data.action[n] @ v) % m

    # T^tN, free of rank |N| over T with n.(t e_k) = (n.t) e_{nk}
    def t_act(t_img, v):
        out = np.zeros_like(v)
        for k in range(N.order):
            out[k * r:(k + 1) * r] = ring_mul(T.structure, t_img, v[k * r:(k + 1) * r], m)
        return out

    def n_act(n, v):
        out = np.zeros_like(v)
        for k in range(N.order):
            tgt = N.mul[n][k]
            out[tgt * r:(tgt + 1) * r] = (data.action[n] @ v[k * r:(k + 1) * r]) % m
        return out

    return [(r, t_act_t, n_act_t), (N.order * r, t_act, n_act)]


def descent_oracle(data: GaloisData, dim: int, t_act, n_act):
    """(W, rel, verdict) of w on the generators e_i (x) f_j of T (x)_S M^N,
    or (None, None, False) when some s f_j is not over the f_j."""
    T, S, N = data.T, data.S, data.N
    m, r = T.modulus, T.rank
    rows = []
    eye = np.eye(dim, dtype=np.int64)
    for n in range(N.order):
        block = np.stack([n_act(n, eye[:, j]) for j in range(dim)], axis=1)
        rows.append((block - eye) % m)
    fixed = kernel_mod(np.vstack(rows), m)
    k = fixed.shape[1]
    W = np.zeros((dim, r * k), dtype=np.int64)
    for i in range(r):
        for j in range(k):
            W[:, i * k + j] = t_act(_basis(r, i), fixed[:, j])
    rel_cols = []
    dgf = diagonalize_mod(fixed, m)
    for u in range(S.rank):
        s_img = data.embed[:, u] % m
        for i in range(r):
            sei = ring_mul(T.structure, s_img, _basis(r, i), m)
            for j in range(k):
                vec = np.zeros(r * k, dtype=np.int64)
                for a in range(r):
                    vec[a * k + j] += sei[a]
                # minus e_i (x) s.f_j, with s.f_j (still N-fixed) over the f
                coords = dgf.solve(t_act(s_img, fixed[:, j]))
                if coords is None:
                    return None, None, False
                for b in range(k):
                    vec[i * k + b] -= coords[b]
                rel_cols.append(vec % m)
    rel = np.stack(rel_cols, axis=1)
    if ((W @ rel) % m).any():
        return W, rel, False
    tensor_size = (m ** (r * k)) // submodule_size(rel, m)
    return W, rel, bool(submodule_size(W, m) == m ** dim == tensor_size)
