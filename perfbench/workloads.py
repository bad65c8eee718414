"""The benchmark's three workloads: their inputs, fixed operation lists and checks.

Each workload has a ``setup(seed)`` that builds every input object (groups,
modules, ambients, rings, Galois data, seeded query cochains) and an
``operations(inputs, seed, queries)`` that returns the fixed list of
operations of one pass.  An operation's ``run`` is the timed call into
``teichmuller``; its ``check`` compares the returned value with the expected
answer and runs outside the timed region.  ``class_of`` calls on already-built
groups append their latency to ``queries``.

Only public ``teichmuller`` functions are called.  The expected answers do not
depend on the seed; the seed drives the query cochains and the section,
conjugator and Teichmuller seeds.

A pass keeps every crossed pair and extension it builds (its ``kept`` list)
until it ends.  ``crossed_pairs`` caches Gamma multiplication tables by
``id(Gamma)``, so a Gamma freed mid-pass can hand its address, and its stale
table, to the next one; ``aut_g_of_e`` then raises.  Whether that happens
depends on the heap layout, down to the length of the seed's digits, so no
two sets of runs would fail the same operations.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from teichmuller.crossed_pairs import (
    Ambient,
    aut_g_of_e,
    class_is_q_fixed,
    crossed_pair_algebra,
    crossed_pair_structures,
    delta,
    extension_from_cocycle,
    j_map,
    metacyclic_instance,
    qnormal_galois_product,
    xpext_enumerate,
)
from teichmuller.finrings import (
    GaloisData,
    fixed_subring,
    frobenius_lift,
    galois_from_free_action,
    galois_ring,
    gf,
    map_ring,
    matrix_algebra,
    ring_as_algebra,
    zmod,
)
from teichmuller.gmod_cohomology import (
    Cochain,
    GModule,
    ModuleMap,
    coboundary,
    coboundary_preimage,
    cohomology,
    cyclic_h3_equal,
    cyclic_reference_generator,
    cyclic_unit_module,
    map_on_cohomology,
    random_cochain,
    trivial_gmodule,
    zero_cochain,
)
from teichmuller.groups import (
    GroupExtension,
    GroupHom,
    abelian_structure,
    cyclic,
    direct_product,
    identity_hom,
    is_two_cocycle,
    metacyclic,
    quaternion_table,
    trivial_action,
)
from teichmuller.normal_algebras import (
    BaseAction,
    deuring_embedding_from_splitting,
    equivariant_rep,
    semidirect_splitting,
    splitting_from_coboundary,
    teichmuller_cocycle,
    trivial_base_action,
    unit_module,
)


@dataclass
class Operation:
    """One timed call and the check of its answer (None when right)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def expect_equal(want) -> Callable[[Any], Optional[str]]:
    def check(got) -> Optional[str]:
        return None if got == want else f"expected {want!r}, got {got!r}"
    return check


def expect_true(got) -> Optional[str]:
    return None if got is True else f"expected True, got {got!r}"


def timed_class_of(H, z, queries: list) -> tuple:
    """H.class_of(z), with its latency appended to ``queries``."""
    t0 = time.perf_counter()
    cls = H.class_of(z)
    queries.append(time.perf_counter() - t0)
    return cls


# ---------------------------------------------------------------------------
# bar_cohomology: H^n(G, M) builds on the bar complex plus class_of round trips

QUERIES_PER_GROUP = 8


def bar_setup(seed: int) -> dict:
    Q8 = quaternion_table()
    C2, C4 = cyclic(2), cyclic(4)
    S3, _ = metacyclic(3, 2, 2, 0)
    # S3 element y^i x^j has index i + 3j; x acts on Z/3 by -1
    sign = tuple(((1,),) if g < 3 else ((2,),) for g in range(S3.order))
    # (label, module, {degree: expected invariant factors})
    cases = [
        ("Q8_Z2", trivial_gmodule(Q8, [2]), {0: (2,), 1: (2, 2), 2: (2, 2), 3: (2,)}),
        ("C2_Z4neg", GModule(C2, (4,), (((1,),), ((3,),))), {1: (2,), 2: (2,), 3: (2,)}),
        ("C4_Z2xZ4", trivial_gmodule(C4, [2, 4]), {1: (2, 4), 2: (2, 4), 3: (2, 4)}),
        ("S3_Z3sign", GModule(S3, (3,), sign), {1: (3,), 2: (3,), 3: ()}),
        ("C4_Z4u3", cyclic_unit_module(4, 4, 3), {1: (2,), 2: (2,), 3: (2,)}),
    ]
    rng = random.Random(seed)
    builds = []
    for label, module, degrees in cases:
        for n, factors in degrees.items():
            queries = []
            for _ in range(QUERIES_PER_GROUP):
                coords = [rng.randrange(f) for f in factors]
                bound = (coboundary(random_cochain(module, n - 1, rng)) if n
                         else zero_cochain(module, 0))
                queries.append((coords, bound))
            builds.append((f"{label}_H{n}", module, n, factors, queries))
    return {"builds": builds}


def bar_operations(inputs: dict, seed: int, queries: list) -> list[Operation]:
    built: dict = {}
    ops = []
    for name, module, n, factors, _ in inputs["builds"]:
        def build(name=name, module=module, n=n):
            built[name] = cohomology(module.group, module, n)
            return built[name].invariant_factors
        ops.append(Operation(f"cohomology:{name}", build, expect_equal(factors)))
    for name, module, n, factors, qs in inputs["builds"]:
        for i, (coords, bound) in enumerate(qs):
            def round_trip(name=name, coords=coords, bound=bound):
                H = built[name]
                return timed_class_of(H, H.lift(coords) + bound, queries)
            ops.append(Operation(f"class_of:{name}#{i}", round_trip,
                                 expect_equal(tuple(coords))))
    return ops


# ---------------------------------------------------------------------------
# xpext_search: Xpext enumeration with the eight-term verdicts, and metacyclic Delta

METACYCLIC = [(4, 2, 3, 2, 2), (4, 4, 3, 2, 4), (6, 2, 5, 3, 2), (8, 2, 7, 4, 2)]
J_SAMPLES = 8


def ambient(G, n_images, q_images, N, Q, M) -> Ambient:
    """N >-> G ->> Q given by the two image tables, with G acting trivially on M."""
    ext = GroupExtension(GroupHom.checked(N, G, n_images), GroupHom.checked(G, Q, q_images))
    ext.validate()
    return Ambient(ext=ext, Mgrp=M, action=trivial_action(G, M))


def xpext_setup(seed: int) -> dict:
    C2, C3, C4 = cyclic(2), cyclic(3), cyclic(4)
    klein = direct_product(C2, C2)
    c3c2 = direct_product(C3, C2)
    S3, s3_ext = metacyclic(3, 2, 2, 0)
    z2z2 = direct_product(C2, C2)
    # (label, ambient, expected invariant factors of H^3(Q, M^N)); Q = C_2 and
    # N acts trivially on M in every case, so H^3(Q, M^N) = M/2M.
    ambients = [
        ("Klein_Z2", ambient(klein, (0, 2), (0, 1, 0, 1), C2, C2, C2), (2,)),
        ("C4_Z4", ambient(C4, (0, 2), (0, 1, 0, 1), C2, C2, C4), (2,)),
        ("C4_Z2xZ2", ambient(C4, (0, 2), (0, 1, 0, 1), C2, C2, z2z2), (2, 2)),
        ("Klein_Z2xZ4", ambient(klein, (0, 2), (0, 1, 0, 1), C2, C2,
                                direct_product(C2, C4)), (2, 2)),
        ("S3_Z3", Ambient(ext=s3_ext, Mgrp=C3, action=trivial_action(S3, C3)), ()),
        ("C3xC2_Z3", ambient(c3c2, (0, 2, 4), (0, 1) * 3, C3, C2, C3), ()),
        ("C3xC2_Z4", ambient(c3c2, (0, 2, 4), (0, 1) * 3, C3, C2, C4), (2,)),
        ("Klein_Z2cubed", ambient(klein, (0, 2), (0, 1, 0, 1), C2, C2,
                                  direct_product(z2z2, C2)), (2, 2, 2)),
    ]
    return {"ambients": ambients}


def xpext_operations(inputs: dict, seed: int, queries: list) -> list[Operation]:
    reports: dict = {}
    instances: dict = {}
    kept: list = []
    # The twelve searches run first, in this fixed order; the class_of
    # queries run after all of them.
    searches, follow_ups = [], []
    for label, amb, factors in inputs["ambients"]:
        def enumerate_(amb=amb, label=label):
            reports[label] = xpext_enumerate(amb, seed=seed)
            return reports[label].verdicts["all"]

        def j_then_delta(amb=amb, label=label):
            # Delta(j(h)) = 0 for sampled classes h in H^2(G, M), with another
            # section seed than the search used.
            moduleG, _, c2e = amb.gmodule()
            moduleQ, _, _, _ = amb.fixed_submodule_gmodule()
            h2g = cohomology(amb.G, moduleG, 2)
            h3q = cohomology(amb.Q, moduleQ, 3)
            rng = random.Random(f"{seed}:{label}")
            classes, pairs = [], []
            for _ in range(J_SAMPLES):
                z = h2g.lift([rng.randrange(f) for f in h2g.invariant_factors])
                table = [[c2e[tuple(int(v) for v in z.table[g1, g2])]
                          for g2 in range(amb.G.order)] for g1 in range(amb.G.order)]
                pairs.append(j_map(amb, table))
                _, d = delta(pairs[-1], section_seed=seed + 1)
                classes.append(timed_class_of(h3q, Cochain(moduleQ, 3, d.table.copy()), queries))
            kept.append(pairs)
            return h3q.invariant_factors, classes

        searches.append(Operation(f"xpext_enumerate:{label}", enumerate_, expect_true))
        follow_ups.append(Operation(f"delta_of_j:{label}", j_then_delta,
                                    lambda got, factors=factors: check_delta_of_j(got, factors)))
    for args in METACYCLIC:
        key = "_".join(map(str, args))

        def metacyclic_delta(args=args, key=key):
            inst = metacyclic_instance(*args, seed=seed)
            _, z = delta(inst.cp, section_seed=seed)
            mod = cyclic_unit_module(inst.s, inst.ell, inst.unit)
            instances[key] = (inst, Cochain(mod, 3, z.table.copy()))
            return cyclic_h3_equal(inst.xi, instances[key][1])

        def class_agreement(key=key):
            inst, z = instances[key]
            H = cohomology(z.module.group, z.module, 3)
            return (timed_class_of(H, Cochain(z.module, 3, inst.xi.table.copy()), queries)
                    == timed_class_of(H, z, queries))

        searches.append(Operation(f"metacyclic_delta:{key}", metacyclic_delta, expect_true))
        follow_ups.append(Operation(f"class_of_xi_vs_delta:{key}", class_agreement,
                                    expect_true))

    def flagship_is_reference():
        inst, z = instances["4_2_3_2_2"]
        return cyclic_h3_equal(inst.xi, Cochain(z.module, 3,
                                           cyclic_reference_generator(2, 2).table.copy()))

    follow_ups.append(Operation("xi_is_reference_generator:4_2_3_2_2", flagship_is_reference,
                                expect_true))
    return searches + follow_ups


def check_delta_of_j(got, factors) -> Optional[str]:
    h3q_factors, classes = got
    if h3q_factors != factors:
        return f"H^3(Q, M^N) has factors {h3q_factors}, expected {factors}"
    nonzero = [c for c in classes if any(c)]
    return None if not nonzero else f"Delta(j(h)) is not zero: {nonzero}"


# ---------------------------------------------------------------------------
# pair_algebras: crossed-pair algebras of Q-normal Galois data, and Teichmuller cocycles

TEICH_SEEDS = 3


def frobenius_galois(T) -> GaloisData:
    fr = frobenius_lift(T)
    S, embed = fixed_subring(T, [fr])
    return GaloisData(T=T, S=S, embed=embed, N=cyclic(2),
                      action=(np.eye(T.rank, dtype=np.int64), fr))


def frobenius_rep_on_f4():
    S = gf(2, 2)
    fr = frobenius_lift(S)
    base = BaseAction(cyclic(2), S, (np.eye(2, dtype=np.int64), fr))
    return equivariant_rep(base, ring_as_algebra(S), [np.eye(2, dtype=np.int64), fr],
                           name="F4_frobenius")


def swap_rep_on_f3xf3():
    S = map_ring(2, gf(3, 1))
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    base = BaseAction(cyclic(2), S, (np.eye(2, dtype=np.int64), swap))
    return equivariant_rep(base, ring_as_algebra(S), [np.eye(2, dtype=np.int64), swap],
                           name="F3xF3_swap")


def trivial_rep_on_matrices(S, k: int, name: str):
    A = matrix_algebra(S, k)
    eye = np.eye(A.flat_rank, dtype=np.int64)
    return equivariant_rep(trivial_base_action(cyclic(2), S), A, [eye, eye], name=name)


def pair_setup(seed: int) -> dict:
    battery_a = galois_from_free_action(2, [[0, 1], [1, 0]], cyclic(2), gf(3, 1))
    galois = [
        ("batteryA", battery_a),
        ("GR4_2", frobenius_galois(galois_ring(2, 2, 2))),
        ("GR8_2", frobenius_galois(galois_ring(2, 3, 2))),
        ("F9", frobenius_galois(gf(3, 2))),
        ("F25", frobenius_galois(gf(5, 2))),
        ("GR9_2", frobenius_galois(galois_ring(3, 2, 2))),
    ]
    data = [(label, qnormal_galois_product(gal, cyclic(2))) for label, gal in galois]
    reps = [frobenius_rep_on_f4(), swap_rep_on_f3xf3(),
            trivial_rep_on_matrices(zmod(8), 2, "M2(Z8)_trivial")]
    splitting_rep = trivial_rep_on_matrices(gf(2, 1), 2, "M2(F2)_trivial")
    return {"data": data, "reps": reps, "splitting_rep": splitting_rep,
            "deuring_rep": reps[0]}


def all_crossed_pairs(data, kept: list) -> list:
    """Every crossed pair over the ambient: Q-fixed 2-cocycles on N, then psi.

    Every extension built is appended to ``kept``.
    """
    amb = data.ambient
    M, N = amb.Mgrp, amb.N
    nact = amb.n_action()
    h2n = cohomology(N, amb.restricted_gmodule(amb.ext.kernel_hom)[0], 2)
    nt = [n for n in range(N.order) if n != N.identity]
    pairs = []
    for combo in itertools.product(range(M.order), repeat=len(nt) ** 2):
        f = [[M.identity] * N.order for _ in range(N.order)]
        for idx, (n1, n2) in enumerate(itertools.product(nt, repeat=2)):
            f[n1][n2] = combo[idx]
        if is_two_cocycle(N, M, nact, f) is not None:
            continue
        if not class_is_q_fixed(amb, f, h2n):
            continue
        ae = extension_from_cocycle(amb, f)
        kept.append(ae)
        # Gamma = M.N can exceed the default search cap; size it to the input.
        aut = aut_g_of_e(ae, cap=max(112, ae.Gamma.order))
        pairs.extend(crossed_pair_structures(aut))
    return pairs


def bridge_module_map(data, w_unit_mod, moduleQ, MNgrp, bridge) -> ModuleMap:
    """U(T)^N -> U(R) in invariant-factor coordinates, through the unit bridge."""
    _, _, c2eN = abelian_structure(MNgrp)
    kN = moduleQ.rank
    cols = [w_unit_mod.coords_of_unit_vec(bridge(c2eN[tuple(int(j == i) for j in range(kN))]))
            for i in range(kN)]
    mu = tuple(tuple(cols[j][i] for j in range(kN)) for i in range(w_unit_mod.module.rank))
    mm = ModuleMap(group_map=identity_hom(data.ambient.Q), source=moduleQ,
                   target=w_unit_mod.module, matrix=mu)
    mm.validate()
    return mm


def pair_operations(inputs: dict, seed: int, queries: list) -> list[Operation]:
    state: dict = {}
    kept: list = []
    ops = []
    for label, data in inputs["data"]:
        def enumerate_pairs(label=label, data=data):
            amb = data.ambient
            moduleQ, MNgrp, _, _ = amb.fixed_submodule_gmodule()
            state[label] = (moduleQ, MNgrp, cohomology(amb.Q, moduleQ, 3),
                            all_crossed_pairs(data, kept))
            return len(state[label][3])

        def prop63(label=label, data=data):
            # Teichmuller class of each crossed-pair algebra, and the bridged
            # Delta class of the pair: (teich, bridged) per pair.
            moduleQ, MNgrp, h3q, pairs = state[label]
            out = []
            for cp in pairs:
                rep, _, (_, _, _, bridge) = crossed_pair_algebra(data, cp, seed=seed)
                w = teichmuller_cocycle(rep, seed=seed)
                H_teich = cohomology(rep.Q, w.unit_mod.module, 3)
                teich = timed_class_of(H_teich, w.cocycle, queries)
                _, z = delta(cp, section_seed=seed)
                delta_cls = timed_class_of(h3q, Cochain(moduleQ, 3, z.table.copy()), queries)
                mm = bridge_module_map(data, w.unit_mod, moduleQ, MNgrp, bridge)
                out.append((teich, map_on_cohomology(mm, h3q, H_teich, list(delta_cls))))
            return out

        ops.append(Operation(f"crossed_pairs:{label}", enumerate_pairs,
                             lambda got: None if got > 0 else "no crossed pair found"))
        ops.append(Operation(f"prop63:{label}", prop63, check_prop63))
    for rep in inputs["reps"]:
        def teich_classes(rep=rep):
            um = unit_module(rep.base_action)
            H = cohomology(rep.Q, um.module, 3)
            return [timed_class_of(H, teichmuller_cocycle(rep, seed=seed + i, unit_mod=um).cocycle,
                                   queries)
                    for i in range(TEICH_SEEDS)]
        ops.append(Operation(f"teichmuller_seeds:{rep.name}", teich_classes, check_all_zero))

    def splitting_round_trip():
        rep = inputs["splitting_rep"]
        w = teichmuller_cocycle(rep, seed=seed)
        H = cohomology(rep.Q, w.unit_mod.module, 3)
        cls = timed_class_of(H, w.cocycle, queries)
        c = coboundary_preimage(H, w.cocycle)
        if c is None:
            return {"class": cls, "preimage": False}
        ext, i_images, theta = splitting_from_coboundary(w, c)
        witness, _ = deuring_embedding_from_splitting(rep, ext, i_images, theta, seed=seed)
        return {"class": cls, "preimage": True,
                "chi_normalizes_A": witness.checks["chi_normalizes_A"],
                "chi_multiplicative_mod_UA": witness.checks["chi_multiplicative_mod_UA"]}

    def deuring_round_trip():
        rep = inputs["deuring_rep"]
        ext, i_images, theta = semidirect_splitting(rep)
        witness, tau = deuring_embedding_from_splitting(rep, ext, i_images, theta, seed=seed)
        w = teichmuller_cocycle(tau, seed=seed)
        H = cohomology(tau.Q, w.unit_mod.module, 3)
        checks = dict(witness.checks)
        checks["tau_class"] = timed_class_of(H, w.cocycle, queries)
        return checks

    ops.append(Operation("splitting_from_coboundary:M2(F2)", splitting_round_trip,
                         check_splitting))
    ops.append(Operation("deuring:F4_frobenius", deuring_round_trip, check_deuring))
    return ops


def check_prop63(got) -> Optional[str]:
    if not got:
        return "no crossed pair to check"
    bad = [i for i, (teich, bridged) in enumerate(got) if teich != bridged]
    return None if not bad else f"Teichmuller class differs from bridged Delta at pairs {bad}"


def check_all_zero(classes) -> Optional[str]:
    if any(any(c) for c in classes):
        return f"equivariant rep has a nonzero class: {classes}"
    return None if len(set(classes)) == 1 else f"classes differ across seeds: {classes}"


def check_splitting(got) -> Optional[str]:
    if any(got["class"]):
        return f"class {got['class']} is not zero"
    if not got["preimage"]:
        return "no coboundary preimage for a zero class"
    if not (got["chi_normalizes_A"] and got["chi_multiplicative_mod_UA"]):
        return f"Deuring checks failed: {got}"
    return None


def check_deuring(got) -> Optional[str]:
    flags = ["chi_normalizes_A", "chi_has_grades", "chi_multiplicative_mod_UA",
             "end_action_exact", "tau_matches_matrix_structure_mod_inner"]
    failed = [f for f in flags if got.get(f) is not True]
    if got.get("rank_over_R") != got.get("expected_rank"):
        failed.append("rank_over_R")
    if any(got.get("tau_class", (1,))):
        failed.append("tau_class")
    return None if not failed else f"Deuring checks failed: {failed}"


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    operations: Callable[[dict, int, list], list]
    # The reference work timed beside the operations (worker.REFERENCES): the
    # kind of work that dominates the workload, so that it slows as they do.
    reference: str


WORKLOADS = {
    # about 98% of the time is one dense numpy elimination
    "bar_cohomology": Workload("bar_cohomology", bar_setup, bar_operations, "array"),
    "xpext_search": Workload("xpext_search", xpext_setup, xpext_operations, "interpreter"),
    "pair_algebras": Workload("pair_algebras", pair_setup, pair_operations, "interpreter"),
}
