"""The table walk of Xpext, kept as a test oracle.

``xpext_enumerate`` walks one lift per Q-fixed class of H^2(N, M) and keys
pairs with array gathers.  This is the walk it replaced: every normalized
2-cocycle table on N with a Q-fixed class, the crossed-pair structures on
each, the pure-Python ``congruence_key``, and pairwise ``find_congruence``
bucketing.  Use it for ambients with at most a few thousand tables on N.
"""

from __future__ import annotations

import itertools

from teichmuller.crossed_pairs import (
    Ambient,
    _correction_map,
    _transported_psi,
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
    GroupExtension,
    GroupHom,
    cyclic,
    direct_product,
    is_two_cocycle,
    metacyclic,
    trivial_action,
)


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


def congruence_key_loop(cp) -> tuple:
    """``congruence_key`` with every f_c and every transported psi built in loops."""
    amb = cp.ae.ambient
    M, N, f = amb.Mgrp, amb.N, cp.ae.f
    nact = amb.n_action()

    def f_c(c, p, q):  # f(p,q) + c(pq) - (c(p) + p.c(q))
        return M.mul[M.mul[f[p][q]][c[N.mul[p][q]]]][M.inv[M.mul[c[p]][nact.act(p, c[q])]]]
    twisted = [(tuple(tuple(f_c(c, p, q) for q in range(N.order)) for p in range(N.order)), c)
               for c in amb.corrections().tolist()]
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
    """An ``XpextReport`` in the form ``oracle_report`` returns."""
    j_images = {}
    for c, b in report.j_images.items():
        j_images.setdefault(report.keys[b], set()).add(c)
    return {"keys": report.keys, "delta": dict(zip(report.keys, report.delta_classes)),
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
