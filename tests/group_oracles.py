"""Loop versions of the table-group checks and searches, kept as test oracles.

The package runs homomorphism checks, the 2-cocycle identity, the table of an
extension by a 2-cocycle and quotient groups as gathers on each group's
held arrays, and reads Aut_G(e) off H^*(N, M) by the Wells sequence; the
loops here are what they replaced, element by element, and
``aut_g_of_e_oracle`` walks all |G| |M|^(|N|-1) candidate pairs.  The table laws (associativity, homomorphisms, actions, crossed
modules) run in the package on each group's generating set ``gens``; the
full scans over every pair or triple that they replaced are kept here too.
The isomorphism and automorphism searches have no caller in the package and
live here only.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from teichmuller.crossed import CrossedModule
from teichmuller.groups import (ALL_GENERATORS_ORDER, FiniteGroup, GroupAction,
                                GroupError, GroupHom)

ISO_SEARCH_CAP = 128
AUT_SEARCH_CAP = 64


def is_valid_oracle(hom: GroupHom) -> bool:
    src, im = hom.source, hom.images
    if im[src.identity] != hom.target.identity:
        return False
    tmul = hom.target.mul
    return all(im[src.mul[a][b]] == tmul[im[a]][im[b]]
               for a in range(src.order) for b in range(src.order))


def check_table_oracle(mul) -> None:
    """Raise the GroupError of ``FiniteGroup.from_table`` for a square table
    over 0..n-1, with associativity checked on every triple."""
    t = np.array(mul, dtype=np.int64)
    n = len(t)
    ar = np.arange(n)
    units = np.flatnonzero((t == ar).all(axis=1) & (t.T == ar).all(axis=1))
    if not units.size:
        raise GroupError("no identity element")
    if not np.array_equal(t[t], t[:, t]):
        raise GroupError("multiplication table is not associative")
    if ((t == int(units[0])).sum(axis=1) != 1).any():
        raise GroupError("element without unique inverse")


def action_validate_oracle(action: GroupAction) -> None:
    """``GroupAction.validate`` with the homomorphism law checked on every
    pair of the actor and each distinct permutation on every pair of the
    carrier."""
    n = action.carrier_size
    G = action.actor
    arr = action.perms
    if arr is None or arr.shape != (G.order, n):
        raise GroupError("action table has wrong shape")
    if not np.array_equal(np.sort(arr, axis=1), np.tile(np.arange(n), (G.order, 1))):
        raise GroupError("action entry is not a permutation")
    if not np.array_equal(arr[G.identity], np.arange(n)):
        raise GroupError("identity does not act trivially")
    if not np.array_equal(arr[:, arr], arr[G.table]):
        raise GroupError("action is not a homomorphism")
    if isinstance(action.carrier, FiniteGroup):
        perms = np.array(list(dict.fromkeys(action.table)), dtype=np.int64)
        cmul = action.carrier.table
        if not np.array_equal(perms[:, cmul], cmul[perms[:, :, None], perms[:, None, :]]):
            raise GroupError("action is not by automorphisms")


def first_nonmultiplicative_pair_oracle(mats, mul, m) -> Optional[tuple[int, int]]:
    """The first (g, h), in row-major order, with mats[g] mats[h] != mats[gh]
    mod m, scanned over every g."""
    A = np.mod(np.asarray(mats, dtype=np.int64), m)
    table = np.asarray(mul, dtype=np.int64)
    for g in range(len(A)):
        bad = np.flatnonzero(((A[g] @ A) % m != A[table[g]]).any(axis=(1, 2)))
        if bad.size:
            return g, int(bad[0])
    return None


def validate_crossed_module_oracle(cm: CrossedModule) -> list[str]:
    """The report of ``crossed.validate_crossed_module``, both identities
    checked on every pair."""
    C, Gamma = cm.C, cm.Gamma
    if not is_valid_oracle(cm.boundary):
        return ["boundary is not a homomorphism"]
    try:
        action_validate_oracle(cm.action)
    except GroupError as exc:
        return [f"action invalid: {exc}"]
    act = cm.action.perms
    bnd = np.array(cm.boundary.images, dtype=np.int64)
    gmul, ginv, cmul, cinv = Gamma.table, Gamma.inverse, C.table, C.inverse
    report = []
    rhs = gmul[gmul[np.arange(Gamma.order)[:, None], bnd[None, :]], ginv[:, None]]
    for g, c in zip(*np.nonzero(bnd[act] != rhs)):
        report.append(
            f"equivariance fails at gamma={Gamma.label(int(g))}, c={C.label(int(c))}")
    for b, c in zip(*np.nonzero(cmul[cmul, cinv[:, None]] != act[bnd])):
        report.append(
            f"Peiffer identity fails at b={C.label(int(b))}, c={C.label(int(c))}")
    return report


def quotient_group_oracle(G: FiniteGroup, normal_elements: Sequence[int]):
    """G / N and its projection, by loops over G and N."""
    nset = set(normal_elements)
    if G.identity not in nset:
        raise GroupError("normal subgroup must contain the identity")
    for g in range(G.order):
        for n in nset:
            if G.conj(g, n) not in nset:
                raise GroupError("subgroup is not normal")
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] != -1:
            continue
        idx = len(reps)
        reps.append(g)
        for n in nset:
            coset_of[G.mul[g][n]] = idx
    k = len(reps)
    mul = [[coset_of[G.mul[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    Q = FiniteGroup.from_table(mul)
    return Q, GroupHom(G, Q, tuple(coset_of))


def is_two_cocycle_oracle(Q: FiniteGroup, M: FiniteGroup, action, f) -> Optional[tuple]:
    """None when f satisfies the 2-cocycle identity, else the first failing (p, q, r)."""
    for p, q, r in itertools.product(range(Q.order), repeat=3):
        lhs = M.mul[action.act(p, f[q][r])][f[p][Q.mul[q][r]]]
        rhs = M.mul[f[p][q]][f[Q.mul[p][q]][r]]
        if lhs != rhs:
            return (p, q, r)
    return None


def extension_table_oracle(Q: FiniteGroup, M: FiniteGroup, action, f) -> list:
    """The table of M x Q with (m, p)(n, q) = (m + p.n + f(p, q), pq), index m + |M| q."""
    nm, nq = M.order, Q.order
    mul = [[0] * (nm * nq) for _ in range(nm * nq)]
    for m, p, n2, q in itertools.product(range(nm), range(nq), range(nm), range(nq)):
        val = M.mul[M.mul[m][action.act(p, n2)]][f[p][q]]
        mul[m + nm * p][n2 + nm * q] = val + nm * Q.mul[p][q]
    return mul


def all_corrections(amb) -> np.ndarray:
    """Every correction c: N -> M with c(1) = 0, one row over N each: an
    (|M|^(|N|-1), |N|) array, lexicographic in the values at the nontrivial
    elements."""
    N, M = amb.N, amb.Mgrp
    corr = np.full((M.order ** (N.order - 1), N.order), M.identity, dtype=np.int64)
    corr[:, np.arange(N.order) != N.identity] = \
        np.indices((M.order,) * (N.order - 1)).reshape(N.order - 1, len(corr)).T
    return corr


def aut_g_of_e_oracle(ae) -> tuple[list, list, list]:
    """The sorted pairs (alpha, x) of Aut_G(e), its table and the images of
    beta, from the walk over every x and every correction."""
    amb = ae.ambient
    G, N, M = amb.G, amb.N, amb.Mgrp
    Gamma = ae.Gamma
    into_n = {amb.ext.kernel_hom(n): n for n in range(N.order)}
    gm = np.array(Gamma.mul, dtype=np.int64)
    pairs = []
    for x in range(G.order):
        ix = [into_n[G.conj(x, amb.ext.kernel_hom(n))] for n in range(N.order)]
        lx = [amb.action.act(x, m) for m in range(M.order)]
        for c in all_corrections(amb):
            alpha = np.zeros(Gamma.order, dtype=np.int64)
            for y in range(Gamma.order):
                m, n = ae.gamma_parts(y)
                alpha[y] = ae.gamma_index(M.mul[lx[m]][c[n]], ix[n])
            if np.array_equal(alpha[gm], gm[alpha[:, None], alpha[None, :]]):
                pairs.append((tuple(int(v) for v in alpha), x))
    pairs.sort()
    index = {p: i for i, p in enumerate(pairs)}
    k = len(pairs)
    mul = [[0] * k for _ in range(k)]
    for i, (a1, x1) in enumerate(pairs):
        for j, (a2, x2) in enumerate(pairs):
            comp = tuple(a1[a2[y]] for y in range(Gamma.order))
            mul[i][j] = index[(comp, G.mul[x1][x2])]
    beta_images = []
    for y in range(Gamma.order):
        conj = tuple(Gamma.conj(y, z) for z in range(Gamma.order))
        m, n = ae.gamma_parts(y)
        beta_images.append(index[(conj, amb.ext.kernel_hom(n))])
    return pairs, mul, beta_images


def _close_partial(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int], images: Sequence[int]):
    """Extend gen |-> image to a full hom table by closing under products.

    Returns the image table or None on conflict.
    """
    table = [-1] * G.order
    table[G.identity] = H.identity
    frontier = [G.identity]
    for g, h in zip(gens, images):
        if table[g] == -1:
            table[g] = h
            frontier.append(g)
        elif table[g] != h:
            return None
    known = [g for g in range(G.order) if table[g] != -1]
    changed = True
    while changed:
        changed = False
        known = [g for g in range(G.order) if table[g] != -1]
        for a in known:
            for b in known:
                ab = G.mul[a][b]
                im = H.mul[table[a]][table[b]]
                if table[ab] == -1:
                    table[ab] = im
                    changed = True
                elif table[ab] != im:
                    return None
    if any(x == -1 for x in table):
        return None
    return tuple(table)


def find_isomorphism(G: FiniteGroup, H: FiniteGroup, cap: int = ISO_SEARCH_CAP) -> Optional[GroupHom]:
    """A bijective homomorphism G -> H found by generator-image backtracking."""
    if G.order > cap or H.order > cap:
        raise GroupError(f"isomorphism search capped at order {cap}")
    if G.order != H.order:
        return None
    if G.order_profile() != H.order_profile():
        return None
    gens = G.minimal_generators()
    orders = [G.element_order(g) for g in gens]
    candidates = [[h for h in range(H.order) if H.element_order(h) == o] for o in orders]

    def backtrack(i, chosen):
        if i == len(gens):
            table = _close_partial(G, H, gens, chosen)
            if table and len(set(table)) == G.order:
                return table
            return None
        for h in candidates[i]:
            res = backtrack(i + 1, chosen + [h])
            if res:
                return res
        return None

    table = backtrack(0, [])
    if table is None:
        return None
    return GroupHom.checked(G, H, table)


def automorphism_group(G: FiniteGroup, cap: int = AUT_SEARCH_CAP) -> tuple[FiniteGroup, tuple[tuple[int, ...], ...]]:
    """Aut(G) as a table group plus each element's permutation of G.

    The search backtracks over generator images, pruned by element order; the
    found automorphisms are sorted so the output is canonical.
    """
    if G.order > cap:
        raise GroupError(f"automorphism search capped at order {cap}")
    gens = G.minimal_generators()
    orders = [G.element_order(g) for g in gens]
    candidates = [[h for h in range(G.order) if G.element_order(h) == o] for o in orders]
    found = []

    def backtrack(i, chosen):
        if i == len(gens):
            table = _close_partial(G, G, gens, chosen)
            if table and len(set(table)) == G.order:
                found.append(table)
            return
        for h in candidates[i]:
            backtrack(i + 1, chosen + [h])

    backtrack(0, [])
    perms = sorted(set(found))
    index = {p: i for i, p in enumerate(perms)}
    k = len(perms)
    mul = [[0] * k for _ in range(k)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[x]] for x in range(G.order))  # p after q
            mul[i][j] = index[comp]
    A = FiniteGroup.from_table(mul)
    return A, tuple(perms)


def generating_set_oracle(u, ident: int) -> np.ndarray:
    """``groups._generating_set`` with each closure grown by whole rounds
    S <- S u SS, as it was before the rounds took only the new elements."""
    u = np.asarray(u)
    if len(u) <= ALL_GENERATORS_ORDER:
        return np.arange(len(u))
    gens, inside = [], np.zeros(len(u), dtype=bool)
    inside[ident] = True
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        inside[gens[-1]] = True
        while True:
            s = np.flatnonzero(inside)
            inside[u[np.ix_(s, s)]] = True
            if inside.sum() == len(s):
                break
    return np.array(gens)


def is_two_cocycle_int64_oracle(Q: FiniteGroup, M: FiniteGroup, action: GroupAction, f):
    """``is_two_cocycle`` in one batch with every gather in int64, as it was
    before compared gathers ran in the narrowest dtype."""
    F, A, Mt = np.array(f, dtype=np.int64), action.perms, M.table
    B = F.reshape((-1,) + F.shape[-2:])
    lhs = Mt[A[np.arange(Q.order)[:, None, None], B[:, None]], B[:, :, Q.table]]
    bad = np.argwhere(lhs != Mt[B[..., None], B[:, Q.table]])
    return tuple(int(i) for i in bad[0, 3 - F.ndim:]) if len(bad) else None
