"""The table walk of Xpext and the row-keyed Aut_G(e) and Delta, kept as
test oracles.

``xpext_enumerate`` walks one lift per Q-fixed class of H^2(N, M) and keys
pairs by the class and a psi carried to the class's lift.  This is the walk
it replaced: every normalized 2-cocycle table on N with a Q-fixed class, the
crossed-pair structures on each, a key from the least of all |M|^(|N|-1)
twisted tables f_c (``congruence_key_loop``), and pairwise
``find_congruence`` bucketing.  Use it for ambients with at most a few
thousand tables on N.

``aut_g_of_e`` reads Aut_G(e) off H^*(N, M) by the Wells sequence;
``aut_g_of_e_walk`` is the search it replaced, over all |G| |M|^(|N|-1)
candidate corrections.  ``AutGeGroup`` composes and finds its elements by
their (x, c) rows, and ``delta`` reads a crossed module checked once per
Aut_G(e).  The builders they replaced are here too: ``aut_g_of_e_rows``
keys every pair by the bytes of its whole alpha row, and ``delta_rows``
builds B^psi pair by pair, runs the full ``Crossed2Extension.validate`` on
every e_psi and chooses the section and defect lifts element by element
(``cocycle_rows``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from group_oracles import all_corrections
from obstruction_oracle import obstruction_loop
from teichmuller.crossed import Crossed2Extension
from teichmuller.crossed_pairs import (
    Ambient,
    AutGeGroup,
    aut_g_of_e,
    class_is_q_fixed,
    crossed_pair_structures,
    delta,
    extension_from_cocycle,
    find_congruence,
    j_map,
)
from teichmuller.gmod_cohomology import Cochain, cohomology, map_on_cohomology
from teichmuller.groups import (
    FiniteGroup,
    GroupAction,
    GroupExtension,
    GroupHom,
    cyclic,
    direct_product,
    is_two_cocycle,
    metacyclic,
    quotient_group,
    trivial_action,
)


def aut_g_of_e_walk(ae) -> AutGeGroup:
    """Aut_G(e) by the constrained search: for each x in G, every correction
    c: N -> M with c(1) = 0 as one array of candidate rows
    alpha(m, n) = (l_x(m) + c(n), i_x(n)), kept when alpha is a homomorphism."""
    amb = ae.ambient
    G, M, Gamma = amb.G, amb.Mgrp, ae.Gamma
    nm, ng = M.order, Gamma.order
    ix, lx, corr = amb.n_conjugation(), amb.action.perms, all_corrections(amb)
    dt = np.min_scalar_type(max(ng, G.order) - 1)
    gm, lifts = Gamma.table.astype(dt), ae.lift_indices()
    alphas, xs = [], []
    for x in range(G.order):
        alpha = (M.table[lx[x], corr[:, :, None]] + nm * ix[x][:, None]).reshape(len(corr), ng)
        cand = alpha.astype(dt)
        ok = (cand[:, gm[lifts]] == gm[cand[:, lifts, None], cand[:, None, :]]).all(axis=(1, 2))
        alphas.append(alpha[ok])
        xs.append(np.full(int(ok.sum()), x))
    alphas, xs = np.concatenate(alphas), np.concatenate(xs)
    order = np.lexsort(np.vstack([xs[None], alphas[:, ::-1].T]))
    return AutGeGroup(ae=ae, alphas=alphas[order], xs=xs[order])


def same_partition(keys_a, keys_b) -> bool:
    """Do two key lists, one key per item, split the items alike?"""
    return all((a1 == a2) == (b1 == b2) for a1, b1 in zip(keys_a, keys_b)
               for a2, b2 in zip(keys_a, keys_b))


def enumerated_pairs(amb, cap=96):
    """The crossed pairs on every normalized cocycle table on N with a Q-fixed
    class, in table order, on Aut_G(e) tables built here."""
    M, N = amb.Mgrp, amb.N
    nact = amb.n_action()
    h2n = cohomology(N, amb.restricted_gmodule(amb.ext.kernel_hom)[0], 2)
    out = []
    nt = [n for n in range(N.order) if n != N.identity]
    for combo in itertools.product(range(M.order), repeat=len(nt) ** 2):
        f = [[M.identity] * N.order for _ in range(N.order)]
        for idx, (n1, n2) in enumerate(itertools.product(nt, repeat=2)):
            f[n1][n2] = combo[idx]
        if is_two_cocycle(N, M, nact, f) is not None:
            continue
        if not class_is_q_fixed(amb, f, h2n):
            continue
        ae = extension_from_cocycle(amb, f)
        out.extend(crossed_pair_structures(aut_g_of_e(ae, cap=cap)))
    return out


def pairwise_buckets(pairs):
    """Bucketing by pairwise find_congruence against each bucket's first member."""
    buckets = []
    for cp in pairs:
        for bucket in buckets:
            if find_congruence(bucket[0], cp) is not None:
                bucket.append(cp)
                break
        else:
            buckets.append([cp])
    return buckets


def _correction_map(ae, c) -> np.ndarray:
    """phi_c(m, n) = (m + c(n), n), on Gamma indices."""
    nm, y = ae.ambient.Mgrp.order, np.arange(ae.Gamma.order)
    return ae.ambient.Mgrp.table[y % nm, np.asarray(c)[y // nm]] + nm * (y // nm)


def _transported_psi(cp, phi: np.ndarray, autdata):
    """psi carried along phi into autdata's Out_G(e): each lift (alpha, x) goes
    to (phi alpha phi^-1, x).  None when a transported pair is not in autdata."""
    lifts = list(cp.lifts)
    idx = autdata.lookup(phi[cp.autdata.alphas[lifts][:, np.argsort(phi)]], cp.autdata.xs[lifts])
    return None if (idx < 0).any() else tuple(np.array(autdata.to_out.images)[idx].tolist())


def congruence_key_loop(cp) -> tuple:
    """A complete congruence invariant (f*, psi*) from the walk: f* is the
    least twisted table f_c(p,q) = f(p,q) + c(pq) - c(p) - p.c(q) over all
    corrections c, and psi* the least psi transported along a phi_c with
    f_c = f*, every one built in loops.  It splits pairs into the same
    classes as ``congruence_key``, under other key values."""
    amb = cp.ae.ambient
    M, N, f = amb.Mgrp, amb.N, cp.ae.f
    nact = amb.n_action()

    def f_c(c, p, q):  # f(p,q) + c(pq) - (c(p) + p.c(q))
        return M.mul[M.mul[f[p][q]][c[N.mul[p][q]]]][M.inv[M.mul[c[p]][nact.act(p, c[q])]]]
    twisted = [(tuple(tuple(f_c(c, p, q) for q in range(N.order)) for p in range(N.order)), c)
               for c in all_corrections(amb).tolist()]
    f_star = min(fc for fc, _ in twisted)
    autdata = amb.aut_data(f_star)
    return f_star, min(_transported_psi(cp, _correction_map(cp.ae, c), autdata)
                       for fc, c in twisted if fc == f_star)


def oracle_report(amb, seed: int = 0) -> dict:
    """Sorted keys, Delta per key, j-images per key and the verdicts, from the
    table walk, with the buckets found by pairwise ``find_congruence``."""
    moduleG, _, _ = amb.gmodule()
    moduleQ, _, _, _ = amb.fixed_submodule_gmodule()
    h2g = cohomology(amb.G, moduleG, 2)
    h3g = cohomology(amb.G, moduleG, 3)
    h2q = cohomology(amb.Q, moduleQ, 2)
    h3q = cohomology(amb.Q, moduleQ, 3)
    buckets = pairwise_buckets(enumerated_pairs(amb))
    keys = []
    delta_of = {}
    for bucket in buckets:
        bucket_keys = {congruence_key_loop(cp) for cp in bucket}
        classes = {h3q.class_of(Cochain(moduleQ, 3, delta(cp, section_seed=seed)[1].table))
                   for cp in bucket}
        assert len(bucket_keys) == 1 and len(classes) == 1
        keys.append(bucket_keys.pop())
        delta_of[keys[-1]] = classes.pop()
    j_of = {c: congruence_key_loop(j_map(amb, amb.table(h2g.lift(list(c)))))
            for c in h2g.all_classes()}
    zero2g = tuple([0] * len(h2g.invariant_factors))
    zero3q = tuple([0] * len(h3q.invariant_factors))
    zero3g = tuple([0] * len(h3g.invariant_factors))
    infl = amb.inflation_map()
    im_inf2 = {map_on_cohomology(infl, h2q, h2g, list(c)) for c in h2q.all_classes()}
    ker_inf3 = {c for c in h3q.all_classes()
                if map_on_cohomology(infl, h3q, h3g, list(c)) == zero3g}
    im_j = set(j_of.values())
    verdicts = {
        "exact_at_H2G": {c for c, key in j_of.items() if key == j_of[zero2g]} == im_inf2,
        "exact_at_Xpext": im_j == {key for key in keys if delta_of[key] == zero3q},
        "exact_at_H3Q": set(delta_of.values()) == ker_inf3,
        "delta_j_zero": all(delta_of[key] == zero3q for key in im_j),
    }
    verdicts["all"] = all(verdicts.values())
    j_images = {}
    for c, key in j_of.items():
        j_images.setdefault(key, set()).add(c)
    return {"keys": sorted(keys), "delta": delta_of, "j_images": j_images,
            "verdicts": verdicts}


def report_summary(report) -> dict:
    """An ``XpextReport`` in the form ``oracle_report`` returns, each bucket
    under the ``congruence_key_loop`` of its pairs.  Those keys must agree
    within each bucket and differ between buckets, so they are one bijection
    of the report's buckets onto the walk's."""
    loop_keys = []
    for bucket in report.buckets:
        keys = {congruence_key_loop(cp) for cp in bucket}
        assert len(keys) == 1
        loop_keys.append(keys.pop())
    assert len(set(loop_keys)) == len(loop_keys)
    j_images = {}
    for c, b in report.j_images.items():
        j_images.setdefault(loop_keys[b], set()).add(c)
    return {"keys": sorted(loop_keys), "delta": dict(zip(loop_keys, report.delta_classes)),
            "j_images": j_images, "verdicts": report.verdicts}


def _ambient(G, n_images, q_images, N, Q, M) -> Ambient:
    ext = GroupExtension(GroupHom.checked(N, G, n_images), GroupHom.checked(G, Q, q_images))
    ext.validate()
    return Ambient(ext=ext, Mgrp=M, action=trivial_action(G, M))


def bench_ambient(label: str) -> Ambient:
    return bench_ambients()[label]


def bench_ambients() -> dict:
    """The eight ambients of the xpext_search benchmark workload, by label."""
    C2, C3, C4 = cyclic(2), cyclic(3), cyclic(4)
    klein = direct_product(C2, C2)
    c3c2 = direct_product(C3, C2)
    S3, s3_ext = metacyclic(3, 2, 2, 0)
    return {
        "Klein_Z2": _ambient(klein, (0, 2), (0, 1, 0, 1), C2, C2, C2),
        "C4_Z4": _ambient(C4, (0, 2), (0, 1, 0, 1), C2, C2, C4),
        "C4_Z2xZ2": _ambient(C4, (0, 2), (0, 1, 0, 1), C2, C2, klein),
        "Klein_Z2xZ4": _ambient(klein, (0, 2), (0, 1, 0, 1), C2, C2, direct_product(C2, C4)),
        "S3_Z3": Ambient(ext=s3_ext, Mgrp=C3, action=trivial_action(S3, C3)),
        "C3xC2_Z3": _ambient(c3c2, (0, 2, 4), (0, 1) * 3, C3, C2, C3),
        "C3xC2_Z4": _ambient(c3c2, (0, 2, 4), (0, 1) * 3, C3, C2, C4),
        "Klein_Z2cubed": _ambient(klein, (0, 2), (0, 1, 0, 1), C2, C2,
                                  direct_product(klein, C2)),
    }


# ---------------------------------------------------------------------------
# Aut_G(e) keyed by the bytes of its rows, and Delta pair by pair


@dataclass
class RowKeyedAut:
    """Aut_G(e) as the row-keyed search builds it: pairs (alpha tuple, x) in
    order, with an index from the bytes key of each (alpha, x)."""

    ae: object
    pairs: list
    index: dict
    group: FiniteGroup
    beta: GroupHom
    out: FiniteGroup
    to_out: GroupHom

    def lookup(self, alphas, xs) -> np.ndarray:
        alphas = np.asarray(alphas)
        rows = alphas.shape[:-1]
        keys = _pair_keys(alphas, np.broadcast_to(xs, rows), _key_dtype(self.ae))
        return np.array([self.index.get(key, -1) for key in keys], dtype=np.int64).reshape(rows)


def _key_dtype(ae):
    return np.min_scalar_type(max(ae.Gamma.order, ae.ambient.G.order) - 1)


def _pair_keys(alphas: np.ndarray, xs: np.ndarray, dt) -> list:
    """One bytes key per (alpha, x), from the rows of alphas and the entries
    of xs, both read in the index dtype dt."""
    width = alphas.shape[-1] + 1
    rows = np.ascontiguousarray(np.concatenate(
        [alphas.astype(dt, copy=False), xs[..., None].astype(dt)], axis=-1).reshape(-1, width))
    return rows.view(np.dtype((np.void, rows.itemsize * width))).ravel().tolist()


def aut_g_of_e_rows(ae) -> RowKeyedAut:
    """The candidate search of ``aut_g_of_e``, then composition, beta and
    lookup through the bytes of whole permutation rows."""
    amb = ae.ambient
    G, N, M = amb.G, amb.N, amb.Mgrp
    Gamma = ae.Gamma
    nm, ng = M.order, Gamma.order
    kh = np.array(amb.ext.kernel_hom.images)
    into_n = np.full(G.order, -1)
    into_n[kh] = np.arange(N.order)
    ix = into_n[G.table[G.table[:, kh], G.inverse[:, None]]]
    lx = amb.action.perms
    corr = all_corrections(amb)
    dt = _key_dtype(ae)
    gm = Gamma.table.astype(dt)
    lifts = M.identity + nm * np.arange(N.order)
    pairs = []
    for x in range(G.order):
        alpha = (M.table[lx[x], corr[:, :, None]] + nm * ix[x][:, None]).reshape(len(corr), ng)
        cand = alpha.astype(dt)
        ok = (cand[:, gm[lifts]] == gm[cand[:, lifts, None], cand[:, None, :]]).all(axis=(1, 2))
        pairs.extend((tuple(a), x) for a in cand[ok].tolist())
    pairs.sort()
    k = len(pairs)
    A = np.array([a for a, _ in pairs], dtype=dt)
    X = np.array([x for _, x in pairs], dtype=np.int64)
    index = {key: i for i, key in enumerate(_pair_keys(A, X, dt))}
    comp = _pair_keys(A[:, A], G.table[X[:, None], X], dt)
    group = FiniteGroup.from_table(np.array([index[key] for key in comp]).reshape(k, k),
                                   cap=max(256, k))
    conj = Gamma.table[Gamma.table, Gamma.inverse[:, None]].astype(dt)
    beta_images = [index[key] for key in _pair_keys(conj, kh[np.arange(ng) // nm], dt)]
    beta = GroupHom.checked(Gamma, group, tuple(beta_images))
    out, to_out = quotient_group(group, sorted(set(beta_images)))
    return RowKeyedAut(ae=ae, pairs=pairs, index=index, group=group, beta=beta, out=out,
                       to_out=to_out)


def delta_rows(aut: RowKeyedAut, psi, section_seed: int = 0):
    """e_psi built pair by pair on a row-keyed Aut_G(e), fully validated, and
    its obstruction cocycle by ``cocycle_rows``."""
    amb = aut.ae.ambient
    Q, Gamma = amb.Q, aut.ae.Gamma
    belems = [(a, q) for a in range(aut.group.order) for q in range(Q.order)
              if aut.to_out(a) == psi[q]]
    bindex = {p: i for i, p in enumerate(belems)}
    bmul = [[bindex[(aut.group.mul[a1][a2], Q.mul[q1][q2])]
             for (a2, q2) in belems] for (a1, q1) in belems]
    B = FiniteGroup.from_table(bmul, cap=max(256, len(belems)))
    bnd = GroupHom.checked(Gamma, B, tuple(bindex[(aut.beta(y), Q.identity)]
                                           for y in range(Gamma.order)))
    piB = GroupHom.checked(B, Q, tuple(q for (_, q) in belems))
    _, MN, mn_incl, _ = amb.fixed_submodule_gmodule()
    iota = GroupHom.checked(MN, Gamma, tuple(aut.ae.gamma_index(mn_incl(m), amb.N.identity)
                                             for m in range(MN.order)))
    action = GroupAction(B, Gamma, tuple(aut.pairs[a][0] for (a, _) in belems))
    e_psi = Crossed2Extension(M=MN, C=Gamma, Gamma=B, G=Q,
                              iota=iota, boundary=bnd, pi=piB, action=action)
    assert e_psi.validate() == []
    return e_psi, cocycle_rows(e_psi, section_seed=section_seed)


def cocycle_rows(e2: Crossed2Extension, section_seed: int = 0) -> Cochain:
    """``cocycle_of_crossed2`` with the seeded section and defect lifts chosen
    element by element."""
    G, Gamma, C = e2.G, e2.Gamma, e2.C
    module, elem_to_coords, _ = e2.gmodule()
    into_m = {e2.iota(m): m for m in range(e2.M.order)}
    sect = e2.pi.section(section_seed)
    dfibers: dict = {}
    for c in range(C.order):
        dfibers.setdefault(e2.boundary(c), []).append(c)
    h = [[C.identity] * G.order for _ in range(G.order)]
    for x in range(G.order):
        for y in range(G.order):
            if G.identity not in (x, y):
                defect = Gamma.mul[Gamma.mul[sect[x]][sect[y]]][Gamma.inv[sect[G.mul[x][y]]]]
                fib = dfibers[defect]
                h[x][y] = fib[(section_seed + 3 * x + 11 * y) % len(fib)]
    return obstruction_loop(module, h, lambda x, c: e2.action.act(sect[x], c),
                            lambda a, b: C.mul[a][b], lambda a: C.inv[a],
                            lambda c: elem_to_coords[into_m[c]])


def crossed_pair_sections_backtrack(autdata) -> list[tuple]:
    """(psi, lifts) of every section psi: Q -> Out_G(e), by backtracking over
    the fibers of Out_G(e) -> Q, each psi(q) lifted to its first preimage."""
    Q, out = autdata.ae.ambient.Q, autdata.out
    gens_first = [q for q in range(Q.order) if q != Q.identity]
    fibers = {q: [o for o in range(out.order) if autdata.out_to_Q(o) == q]
              for q in range(Q.order)}
    found = set()

    def backtrack(i, psi):
        if i == len(gens_first):
            if all(out.mul[psi[p]][psi[q]] == psi[Q.mul[p][q]]
                   for p in range(Q.order) for q in range(Q.order)):
                found.add(tuple(psi))
            return
        q = gens_first[i]
        for o in fibers[q]:
            psi[q] = o
            if all(psi[Q.mul[p][q]] is None or out.mul[psi[p]][o] == psi[Q.mul[p][q]]
                   for p in gens_first[:i] + [Q.identity]):
                backtrack(i + 1, psi)
        psi[q] = None

    psi0: list = [None] * Q.order
    psi0[Q.identity] = out.identity
    backtrack(0, psi0)
    return [(psi, tuple(autdata.to_out.images.index(o) for o in psi)) for psi in sorted(found)]
