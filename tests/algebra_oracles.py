"""Entry-by-entry reference builders for algebras and crossed products.

These are the nested-loop constructions that ``finrings`` and
``normal_algebras`` replaced with einsums on the held structure arrays.  Each
builds the old nested-tuple structure constants, which ``Algebra`` still
accepts, and multiplies through ``flat_tensor_oracle``, so that no oracle
reads a tensor built by the code under test.  The last section does the same
for the data built on the stacked lift, unit and crossed-product arrays: units
found by search, transports, twisted unit extensions, the End side and the
Deuring checks, one element or pair at a time.
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
from teichmuller.modlinalg import colspans_equal, inverse_mod, kernel_mod, submodule_size


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
    R, r_embed = fixed_subring(S, [kappa.matrices[q] for q in range(Q.order)], name=f"{S.name}^Q")
    s_basis = _module_basis_over_subring(S, R, r_embed)
    sigma = s_basis.shape[1]
    expand_s = _expand_oracle(S, R, r_embed, s_basis)
    sec = spec.ext.section(seed)
    into_k = spec.ext.kernel_hom.positions()
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
        th_p = spec.theta[sec[p]]
        for q, j, e in itertools.product(range(Q.order), range(n), range(sigma)):
            se_acted = (kappa.matrices[p] @ s_basis[:, e]) % m
            x = mul(u1, scalar_mul_oracle(A, se_acted, (th_p @ _sde(A, S.one(), j)) % m))
            blocks = blocks_of(mul(x, spec.i_images[phi[p][q]]))
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
    into_k = res.spec.ext.kernel_hom.positions()
    r_diag = diagonalize_mod(res.r_embed, m)
    lifts = []
    for q in range(amb.Q.order):
        alpha, x = cp.autdata.pairs[cp.lifts[q]]
        kap_x = np.asarray(data.kappa_G[x], dtype=np.int64)
        cols = []
        for n_idx in range(amb.N.order):
            ay = alpha[res.section[n_idx]]
            n2 = ae.gamma_parts(ay)[1]
            u_hat = data.units.elements[into_k[Gamma.mul[ay][Gamma.inv[res.section[n2]]]]]
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


# ---------------------------------------------------------------------------
# units, transports, twisted unit extensions, the End side and Deuring's checks

def units_oracle(A: Algebra) -> list:
    """The units of A in lexicographic order, found by a right inverse."""
    mul, one = _mul(A), flat_unit_oracle(A)
    elems = [np.array(x, dtype=np.int64) for x in itertools.product(range(A.modulus),
                                                                     repeat=A.flat_rank)]
    return [x for x in elems if any(np.array_equal(mul(x, y), one) for y in elems)]


def qnormal_rows_oracle(gal, Q) -> list:
    """The unit permutation of each g = (n, q) of N x Q, acting through n."""
    units = [_coords(u) for u in units_oracle(ring_as_algebra_oracle(gal.T))]
    index = {u: i for i, u in enumerate(units)}
    m = gal.T.modulus
    return [tuple(index[_coords(np.asarray(gal.action[g // Q.order]) @ np.array(u) % m)]
                  for u in units) for g in range(gal.N.order * Q.order)]


def tensor_flat_element(A: Algebra, B: Algebra, a, b) -> np.ndarray:
    """The image of a (x) b in the tensor algebra's flat coordinates."""
    S = A.base
    av = np.asarray(a, dtype=np.int64).reshape(A.rank, S.rank)
    bv = np.asarray(b, dtype=np.int64).reshape(B.rank, S.rank)
    return (np.einsum("iu,jv,uvw->ijw", av, bv, S.structure) % S.modulus).reshape(-1)


def tensor_lifts_oracle(rep1, rep2) -> list:
    """w1 (x) w2, column by column on the flat basis (e_i s_u) (x) f_j."""
    A, B = rep1.A, rep2.A
    m, sR, one = A.modulus, A.base.rank, B.base.one()
    lifts = []
    for q in range(rep1.Q.order):
        cols = []
        for i in range(A.rank):
            for j in range(B.rank):
                for u in range(sR):
                    a = np.zeros(A.flat_rank, dtype=np.int64)
                    a[i * sR + u] = 1
                    b = np.zeros(B.flat_rank, dtype=np.int64)
                    b[j * sR:(j + 1) * sR] = one
                    cols.append(tensor_flat_element(A, B, (rep1.lifts[q] @ a) % m,
                                                    (rep2.lifts[q] @ b) % m))
        lifts.append(np.stack(cols, axis=1) % m)
    return lifts


def matrix_lifts_oracle(rep, k: int) -> list:
    return [np.kron(np.eye(k * k, dtype=np.int64), w) % rep.A.modulus for w in rep.lifts]


def twisted_unit_extension_oracle(rep, phi_units=None) -> tuple[list, list, list]:
    """Gamma's table, i and theta of U(A) x Q with (u,p)(v,q) = (u w_p(v) phi(p,q), pq),
    pair by pair, with theta(u, q) = Inn(u) w_q column by column."""
    A, Q = rep.A, rep.Q
    m, nq, mul, one = A.modulus, Q.order, _mul(A), flat_unit_oracle(A)
    units = units_oracle(A)
    index = {_coords(u): i for i, u in enumerate(units)}
    inverse = [next(v for v in units if np.array_equal(mul(u, v), one)) for u in units]
    table = [[0] * (len(units) * nq) for _ in range(len(units) * nq)]
    for (u, x), p, (v, y), q in itertools.product(enumerate(units), range(nq),
                                                  enumerate(units), range(nq)):
        phi = one if phi_units is None else phi_units[p][q]
        w = mul(mul(x, (rep.lifts[p] @ y) % m), phi)
        table[u * nq + p][v * nq + q] = index[_coords(w)] * nq + Q.mul[p][q]
    theta = []
    eye = np.eye(A.flat_rank, dtype=np.int64)
    for x, x_inv in zip(units, inverse):
        inn = np.stack([mul(mul(x, e), x_inv) for e in eye], axis=1)
        theta.extend((inn @ w) % m for w in rep.lifts)
    return table, units, theta


def end_basis_matrices_oracle(res) -> list:
    """The C-matrix of each flat basis element s_x f_{p,q,i} of _A End(C):
    r_u s_d e_k v_l -> delta_{lq} s_x r_u s_d e_k e_i v_p, entry by entry."""
    A, C, S = res.spec.A, res.C, res.spec.A.base
    m, n, nq = A.modulus, A.rank, res.spec.Q.order
    sigma, rR = res.s_basis.shape[1], res.R.rank
    mulA, mulC = _mul(A), _mul(C)
    s_img = (res.a_to_c @ base_embedding_oracle(A)) % m
    out = []
    for p, q, i in itertools.product(range(nq), range(nq), range(n)):
        mat = np.zeros((C.flat_rank, C.flat_rank), dtype=np.int64)
        for k, d, u in itertools.product(range(n), range(sigma), range(rR)):
            ru = np.zeros(rR, dtype=np.int64)
            ru[u] = 1
            s_val = S.mul((res.r_embed @ ru) % m, res.s_basis[:, d])
            a_elt = mulA(_sde(A, s_val, k), _sde(A, S.one(), i))
            mat[:, ((q * n + k) * sigma + d) * rR + u] = mulC((res.a_to_c @ a_elt) % m,
                                                              res.v_units[p])
        for x in range(S.rank):
            left = np.stack([mulC(s_img[:, x], e) for e in np.eye(C.flat_rank, dtype=np.int64)],
                            axis=1)
            out.append((left @ mat) % m)
    return out


def _left_mul_oracle(C: Algebra, x) -> np.ndarray:
    mul = _mul(C)
    return np.stack([mul(x, e) for e in np.eye(C.flat_rank, dtype=np.int64)], axis=1)


def _right_mul_oracle(C: Algebra, x) -> np.ndarray:
    mul = _mul(C)
    return np.stack([mul(e, x) for e in np.eye(C.flat_rank, dtype=np.int64)], axis=1)


def _inverse_oracle(C: Algebra, x) -> np.ndarray:
    return (inverse_mod(_left_mul_oracle(C, x), C.modulus) @ flat_unit_oracle(C)) % C.modulus


def end_tau_oracle(res, basis_matrices) -> list:
    """tau_q on E: the E-coordinates of v_q f v_q^-1, one basis element f at a time."""
    C, m = res.C, res.C.modulus
    diag = diagonalize_mod(np.stack([b.reshape(-1) for b in basis_matrices], axis=1), m)
    taus = []
    for x in res.v_units:
        Lx, Lxi = _left_mul_oracle(C, x), _left_mul_oracle(C, _inverse_oracle(C, x))
        taus.append(np.stack([diag.solve(((Lx @ b @ Lxi) % m).reshape(-1))
                              for b in basis_matrices], axis=1) % m)
    return taus


def end_fixed_check_oracle(res, E, basis_matrices, tau_lifts) -> dict:
    """tpf(viii) by one solve per basis element and one per pair of them."""
    C, m = res.C, res.C.modulus
    diag = diagonalize_mod(np.stack([b.reshape(-1) for b in basis_matrices], axis=1), m)
    basis = np.eye(C.flat_rank, dtype=np.int64)
    cols = [diag.solve(_right_mul_oracle(C, e).reshape(-1)) for e in basis]
    if any(c is None for c in cols):
        return {"right_mult_lands_in_end": False}
    rmap = np.stack(cols, axis=1) % m
    eye = np.eye(E.flat_rank, dtype=np.int64)
    fixed = kernel_mod(np.vstack([(t - eye) % m for t in tau_lifts]), m)
    mulC, mulE = _mul(C), _mul(E)
    mult_ok = True
    for a, b in itertools.product(range(C.flat_rank), repeat=2):
        lhs = diag.solve(_right_mul_oracle(C, mulC(basis[b], basis[a])).reshape(-1))
        if lhs is None or not np.array_equal(lhs % m, mulE(rmap[:, a], rmap[:, b])):
            mult_ok = False
    return {"right_mult_lands_in_end": True,
            "image_is_fixed_subalgebra": bool(colspans_equal(rmap, fixed, m)),
            "multiplicative_from_opposite": mult_ok,
            "injective": submodule_size(rmap, m) == C.size}


def chi_checks_oracle(rep, res) -> dict:
    """Deuring's checks on chi(q) = v_q, one element or pair at a time."""
    A, C, Q = rep.A, res.C, rep.Q
    m, mulC = C.modulus, _mul(C)
    a_img_diag = diagonalize_mod(res.a_to_c, m)
    s_img = (res.a_to_c @ base_embedding_oracle(A)) % m
    normal_ok = grade_ok = mult_ok = True
    for q, v in enumerate(res.v_units):
        v_inv = _inverse_oracle(C, v)
        for col in res.a_to_c.T:
            if a_img_diag.solve(mulC(mulC(v, col), v_inv)) is None:
                normal_ok = False
        for u in range(s_img.shape[1]):
            expect = (s_img @ rep.base_action.matrices[q][:, u]) % m
            if not np.array_equal(mulC(mulC(v, s_img[:, u]), v_inv), expect):
                grade_ok = False
    for p, q in itertools.product(range(Q.order), repeat=2):
        w = mulC(mulC(res.v_units[p], res.v_units[q]),
                 _inverse_oracle(C, res.v_units[Q.mul[p][q]]))
        sol = a_img_diag.solve(w)
        if sol is None or not A.is_unit(sol):
            mult_ok = False
    return {"chi_normalizes_A": normal_ok, "chi_has_grades": grade_ok,
            "chi_multiplicative_mod_UA": mult_ok}
