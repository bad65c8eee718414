"""Entry-by-entry reference builders for algebras and crossed products.

These are the nested-loop constructions that ``finrings`` and
``normal_algebras`` replaced with einsums on the held structure arrays.  Each
builds the old nested-tuple structure constants, which ``Algebra`` still
accepts, and multiplies through ``flat_tensor_oracle``, so that no oracle
reads a tensor built by the code under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from teichmuller.finrings import (
    Algebra,
    _module_basis_over_subring,
    diagonalize_mod,
    fixed_subring,
)


def _coords(vec) -> tuple:
    return tuple(int(x) for x in vec)


def _struct(A: Algebra) -> np.ndarray:
    return np.asarray(A.structure, dtype=np.int64).reshape(A.rank, A.rank, A.rank, A.base.rank)


# ---------------------------------------------------------------------------
# flat coordinates

def flat_tensor_oracle(A: Algebra) -> np.ndarray:
    n, s, m = A.rank, A.base.rank, A.modulus
    N = n * s
    bt = A.base.structure
    st = _struct(A)
    # (e_i s_u)(e_j s_v) = sum_c structure[i][j][c] * (s_u s_v) e_c
    out = np.zeros((N, N, N), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for c in range(n):
                coef = st[i, j, c]
                if not coef.any():
                    continue
                prod = np.einsum("uva,aw->uvw", bt, np.einsum("k,akw->aw", coef, bt)) % m
                out[i * s:(i + 1) * s, j * s:(j + 1) * s, c * s:(c + 1) * s] = prod
    return out % m


def flat_unit_oracle(A: Algebra) -> np.ndarray:
    n, s = A.rank, A.base.rank
    out = np.zeros(n * s, dtype=np.int64)
    unit = np.asarray(A.unit).reshape(n, s)
    for i in range(n):
        out[i * s:(i + 1) * s] = unit[i]
    return out % A.modulus


def base_embedding_oracle(A: Algebra) -> np.ndarray:
    m, s = A.modulus, A.base.rank
    unit = np.asarray(A.unit).reshape(A.rank, s)
    cols = []
    for u in range(s):
        su = np.zeros(s, dtype=np.int64)
        su[u] = 1
        vec = np.zeros(A.rank * s, dtype=np.int64)
        for i in range(A.rank):
            vec[i * s:(i + 1) * s] = A.base.mul(su, unit[i])
        cols.append(vec % m)
    return np.stack(cols, axis=1)


def scalar_mul_oracle(A: Algebra, s_elt, x) -> np.ndarray:
    sR = A.base.rank
    x = np.asarray(x, dtype=np.int64)
    out = np.zeros_like(x)
    for i in range(A.rank):
        out[i * sR:(i + 1) * sR] = A.base.mul(s_elt, x[i * sR:(i + 1) * sR])
    return out % A.modulus


def _mul(A: Algebra):
    T, m = flat_tensor_oracle(A), A.modulus
    return lambda x, y: np.einsum("a,b,abc->c", np.asarray(x, dtype=np.int64),
                                  np.asarray(y, dtype=np.int64), T) % m


# ---------------------------------------------------------------------------
# the finrings constructors

def ring_as_algebra_oracle(R) -> Algebra:
    one = _coords(R.one())
    return Algebra(base=R, rank=1, structure=(((one,),),), unit=(one,), name=R.name)


def matrix_algebra_oracle(S, k: int) -> Algebra:
    n = k * k
    zero = tuple([0] * S.rank)
    one = _coords(S.one())
    struct = [[None] * n for _ in range(n)]
    for p, q, r2, s2 in itertools.product(range(k), repeat=4):
        vec = [zero] * n
        if q == r2:
            vec[p * k + s2] = one
        struct[p * k + q][r2 * k + s2] = tuple(vec)
    unit = [zero] * n
    for p in range(k):
        unit[p * k + p] = one
    return Algebra(base=S, rank=n, structure=tuple(tuple(r) for r in struct),
                   unit=tuple(unit), name=f"M_{k}({S.name})")


def upper_triangular_oracle(S) -> Algebra:
    zero = tuple([0] * S.rank)
    one = _coords(S.one())
    names = [(0, 0), (0, 1), (1, 1)]
    idx = {p: i for i, p in enumerate(names)}
    struct = []
    for (a, b) in names:
        row = []
        for (c, d) in names:
            vec = [zero, zero, zero]
            if b == c:
                vec[idx[(a, d)]] = one
            row.append(tuple(vec))
        struct.append(tuple(row))
    return Algebra(base=S, rank=3, structure=tuple(struct), unit=(one, zero, one),
                   name=f"UT_2({S.name})")


def opposite_oracle(A: Algebra) -> Algebra:
    st = _struct(A)
    struct = tuple(tuple(tuple(map(_coords, st[j][i])) for j in range(A.rank))
                   for i in range(A.rank))
    return Algebra(base=A.base, rank=A.rank, structure=struct, unit=A.unit,
                   name=f"{A.name}^op" if A.name else "op")


def tensor_oracle(A: Algebra, B: Algebra) -> Algebra:
    S = A.base
    nA, nB = A.rank, B.rank
    n = nA * nB
    zero = tuple([0] * S.rank)
    stA, stB = _struct(A), _struct(B)
    struct = [[None] * n for _ in range(n)]
    for i1, j1 in itertools.product(range(nA), range(nB)):
        for i2, j2 in itertools.product(range(nA), range(nB)):
            vec = [zero] * n
            for c1 in range(nA):
                ca = stA[i1, i2, c1]
                if not ca.any():
                    continue
                for c2 in range(nB):
                    cb = stB[j1, j2, c2]
                    if not cb.any():
                        continue
                    vec[c1 * nB + c2] = _coords(S.mul(ca, cb))
            struct[i1 * nB + j1][i2 * nB + j2] = tuple(vec)
    unitA = np.asarray(A.unit).reshape(nA, S.rank)
    unitB = np.asarray(B.unit).reshape(nB, S.rank)
    unit = [zero] * n
    for c1 in range(nA):
        for c2 in range(nB):
            unit[c1 * nB + c2] = _coords(S.mul(unitA[c1], unitB[c2]))
    return Algebra(base=S, rank=n, structure=tuple(tuple(r) for r in struct),
                   unit=tuple(unit), name=f"({A.name})(x)({B.name})")


def _expand_oracle(T, S, embed, B):
    """T-element -> list of S-coordinate vectors over the B-columns, or None."""
    m = T.modulus
    d = B.shape[1]
    cols = []
    for i in range(d):
        for u in range(S.rank):
            su = np.zeros(S.rank, dtype=np.int64)
            su[u] = 1
            cols.append(T.mul((embed @ su) % m, B[:, i]))
    dg = diagonalize_mod(np.stack(cols, axis=1) % m, m, want_inverses=False)

    def solve(vec):
        x = dg.solve(np.asarray(vec, dtype=np.int64))
        if x is None:
            return None
        return [x[i * S.rank:(i + 1) * S.rank] for i in range(d)]

    return solve


def commutative_ring_as_algebra_over_oracle(T, S, embed) -> tuple[Algebra, np.ndarray]:
    B = _module_basis_over_subring(T, S, embed)
    d = B.shape[1]
    coords = _expand_oracle(T, S, embed, B)
    struct = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(tuple(map(_coords, coords(T.mul(B[:, i], B[:, j])))))
        struct.append(tuple(row))
    unit = tuple(map(_coords, coords(T.one())))
    return Algebra(base=S, rank=d, structure=tuple(struct), unit=unit,
                   name=f"{T.name} over {S.name}"), B


def matrix_algebra_over_oracle(A: Algebra, k: int) -> Algebra:
    S = A.base
    n = A.rank
    rank = k * k * n
    zero = tuple([0] * S.rank)
    st = _struct(A)
    struct = [[None] * rank for _ in range(rank)]
    for p, q, i in itertools.product(range(k), range(k), range(n)):
        for r, s2, j in itertools.product(range(k), range(k), range(n)):
            vec = [zero] * rank
            if q == r:
                for c in range(n):
                    if st[i, j, c].any():
                        vec[(p * k + s2) * n + c] = _coords(st[i, j, c])
            struct[(p * k + q) * n + i][(r * k + s2) * n + j] = tuple(vec)
    unitA = np.asarray(A.unit).reshape(n, S.rank)
    unit = [zero] * rank
    for p in range(k):
        for c in range(n):
            unit[(p * k + p) * n + c] = _coords(unitA[c])
    return Algebra(base=S, rank=rank, structure=tuple(tuple(r) for r in struct),
                   unit=tuple(unit), name=f"M_{k}({A.name})")


# ---------------------------------------------------------------------------
# crossed products and the End side

def _sde(A: Algebra, s_vec, i: int) -> np.ndarray:
    out = np.zeros(A.flat_rank, dtype=np.int64)
    sR = A.base.rank
    out[i * sR:(i + 1) * sR] = np.asarray(s_vec, dtype=np.int64) % A.modulus
    return out


def crossed_product_oracle(spec, seed: int = 0) -> dict:
    """C (over the rebuilt fixed ring R), a_to_c and v_units, entry by entry:
    (s_d e_i v_p)(s_e e_j v_q) = s_d e_i (p.s_e) theta_p(e_j) i(phi(p,q)) v_pq."""
    A, Q, Gamma = spec.A, spec.Q, spec.Gamma
    S = A.base
    m = A.modulus
    mul = _mul(A)
    kappa = spec.base_action
    R, r_embed = fixed_subring(S, [kappa.mat(q) for q in range(Q.order)], name=f"{S.name}^Q")
    s_basis = _module_basis_over_subring(S, R, r_embed)
    sigma = s_basis.shape[1]
    expand_s = _expand_oracle(S, R, r_embed, s_basis)
    sec = spec.ext.section(seed)
    into_k = spec.kernel_index()
    phi = [[into_k[Gamma.mul[Gamma.mul[sec[p]][sec[q]]][Gamma.inv[sec[Q.mul[p][q]]]]]
            for q in range(Q.order)] for p in range(Q.order)]
    n, sR, rR = A.rank, S.rank, R.rank
    dimC = Q.order * n * sigma

    def c_index(q, i, d):
        return (q * n + i) * sigma + d

    def blocks_of(x_flat):
        out = [None] * (n * sigma)
        for i in range(n):
            coords = expand_s(x_flat[i * sR:(i + 1) * sR])
            for d in range(sigma):
                out[i * sigma + d] = coords[d]
        return out

    zero_r = tuple([0] * rR)
    struct = [[None] * dimC for _ in range(dimC)]
    for p, i, d in itertools.product(range(Q.order), range(n), range(sigma)):
        u1 = _sde(A, s_basis[:, d], i)
        th_p = spec.theta_mat(sec[p])
        for q, j, e in itertools.product(range(Q.order), range(n), range(sigma)):
            se_acted = (kappa.mat(p) @ s_basis[:, e]) % m
            x = mul(u1, scalar_mul_oracle(A, se_acted, (th_p @ _sde(A, S.one(), j)) % m))
            blocks = blocks_of(mul(x, spec.i_vec(phi[p][q])))
            vec = [zero_r] * dimC
            for b in range(n * sigma):
                vec[c_index(Q.mul[p][q], b // sigma, b % sigma)] = _coords(blocks[b])
            struct[c_index(p, i, d)][c_index(q, j, e)] = tuple(vec)
    unit_blocks = blocks_of(flat_unit_oracle(A))
    unit = [zero_r] * dimC
    for b in range(n * sigma):
        unit[c_index(Q.identity, b // sigma, b % sigma)] = _coords(unit_blocks[b])
    C = Algebra(base=R, rank=dimC, structure=tuple(tuple(r) for r in struct),
                unit=tuple(unit), name=f"({A.name}) xt {Q.order}")
    a_cols = []
    for i in range(n):
        for u in range(sR):
            su = np.zeros(sR, dtype=np.int64)
            su[u] = 1
            blocks = blocks_of(_sde(A, su, i))
            col = np.zeros(dimC * rR, dtype=np.int64)
            for b in range(n * sigma):
                ci = c_index(Q.identity, b // sigma, b % sigma)
                col[ci * rR:(ci + 1) * rR] = blocks[b]
            a_cols.append(col)
    v_units = []
    for q in range(Q.order):
        vec = np.zeros(dimC * rR, dtype=np.int64)
        for b in range(n * sigma):
            ci = c_index(q, b // sigma, b % sigma)
            vec[ci * rR:(ci + 1) * rR] = unit_blocks[b]
        v_units.append(vec % m)
    return {"C": C, "a_to_c": np.stack(a_cols, axis=1) % m, "v_units": v_units,
            "r_embed": r_embed, "s_basis": s_basis}


def end_algebra_oracle(res) -> Algebra:
    """_A End(C) on the basis f_{p,q,i}: v_q -> e_i v_p, index (p*|Q| + q)*n + i."""
    A, Q = res.spec.A, res.spec.Q
    S = A.base
    n, nq = A.rank, Q.order
    rank = nq * nq * n
    zero = tuple([0] * S.rank)
    st = _struct(A)

    def e_index(p, q, i):
        return (p * nq + q) * n + i

    struct = [[None] * rank for _ in range(rank)]
    for p, q, i in itertools.product(range(nq), range(nq), range(n)):
        for r, s2, j in itertools.product(range(nq), range(nq), range(n)):
            vec = [zero] * rank
            if q == r:
                # f_{p,q,i} o f_{r,s2,j}: v_s2 -> e_j e_i v_p (A acts on the left)
                for c in range(n):
                    if st[j, i, c].any():
                        vec[e_index(p, s2, c)] = _coords(st[j, i, c])
            struct[e_index(p, q, i)][e_index(r, s2, j)] = tuple(vec)
    ua = np.asarray(A.unit).reshape(n, S.rank)
    unit = [zero] * rank
    for q in range(nq):
        for c in range(n):
            unit[e_index(q, q, c)] = _coords(ua[c])
    return Algebra(base=S, rank=rank, structure=tuple(tuple(r) for r in struct),
                   unit=tuple(unit), name=f"End_A({res.C.name})")


def crossed_pair_lifts_oracle(data, cp, res, seed: int = 0) -> tuple[list, list]:
    """The lifts w_q of a crossed-pair algebra and kappa_Q on R, column by column."""
    amb, T = data.ambient, data.gal.T
    m = T.modulus
    ae, Gamma, C = cp.ae, cp.ae.Gamma, res.C
    Cmul = _mul(C)
    rR, sigma = res.R.rank, res.s_basis.shape[1]
    into_k = res.spec.kernel_index()
    r_diag = diagonalize_mod(res.r_embed, m)
    lifts = []
    for q in range(amb.Q.order):
        alpha, x = cp.autdata.pairs[cp.lifts[q]]
        kap_x = np.asarray(data.kappa_G[x], dtype=np.int64)
        cols = []
        for n_idx in range(amb.N.order):
            ay = alpha[res.section[n_idx]]
            n2 = ae.gamma_parts(ay)[1]
            u_hat = data.units.element(into_k[Gamma.mul[ay][Gamma.inv[res.section[n2]]]])
            for d in range(sigma):
                for u in range(rR):
                    ru = np.zeros(rR, dtype=np.int64)
                    ru[u] = 1
                    t_elt = T.mul((res.r_embed @ ru) % m, res.s_basis[:, d])
                    img_t = T.mul((kap_x @ t_elt) % m, u_hat)
                    cols.append(Cmul((res.a_to_c @ img_t) % m, res.v_units[n2]))
        lifts.append(np.stack(cols, axis=1) % m)
    kq_mats = []
    for x in amb.ext.section(seed):
        kap_x = np.asarray(data.kappa_G[x], dtype=np.int64)
        cols = []
        for u in range(rR):
            ru = np.zeros(rR, dtype=np.int64)
            ru[u] = 1
            cols.append(r_diag.solve((kap_x @ ((res.r_embed @ ru) % m)) % m))
        kq_mats.append(np.stack(cols, axis=1) % m)
    return lifts, kq_mats
