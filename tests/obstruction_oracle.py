"""The obstruction cocycle triple by triple, kept as a test oracle.

``crossed.obstruction_cocycle`` reads every triple at once from arrays: the
values h, their inverses, the action and a coordinate lookup.  This is the
loop it replaced, over caller-supplied group operations, one inverse per
triple, and the three callers as they were written on it:
``cocycle_of_crossed2``, ``crossed_pairs.delta`` and
``normal_algebras.teichmuller_cocycle``.
"""

from __future__ import annotations

import itertools

import numpy as np

from teichmuller.crossed import seeded_defect_lifts
from teichmuller.crossed_pairs import _e_psi
from teichmuller.finrings import diagonalize_mod, find_conjugator
from teichmuller.gmod_cohomology import Cochain, GModule
from teichmuller.normal_algebras import unit_module


def obstruction_loop(module: GModule, h, act, mul, inv, coords) -> Cochain:
    """xi(x,y,z) = h(x,y) h(xy,z) (x.h(y,z) h(x,yz))^-1, one triple at a time:
    ``h[x][y]`` in a group given by ``mul`` and ``inv``, ``act(x, v)`` the
    action of x, ``coords(v)`` the module coordinates of v."""
    G = module.group
    table = np.zeros((G.order,) * 3 + (module.rank,), dtype=np.int64)
    for x, y, z in itertools.product(range(G.order), repeat=3):
        if G.identity in (x, y, z):
            continue
        xy, yz = G.mul[x][y], G.mul[y][z]
        tail = mul(act(x, h[y][z]), h[x][yz])
        table[x, y, z] = coords(mul(mul(h[x][y], h[xy][z]), inv(tail)))
    return Cochain(module, 3, table)


def cocycle_of_crossed2_loop(e2, section_seed: int = 0) -> Cochain:
    module, elem_to_coords, _ = e2.gmodule()
    into_m = {e2.iota(m): m for m in range(e2.M.order)}
    sect, h = seeded_defect_lifts(e2.pi, e2.boundary, section_seed)
    return obstruction_loop(module, h.tolist(), lambda x, c: e2.action.act(sect[x], c),
                            lambda a, b: e2.C.mul[a][b], lambda a: e2.C.inv[a],
                            lambda c: elem_to_coords[into_m[c]])


def delta_loop(cp, section_seed: int = 0) -> Cochain:
    aut, amb, Gamma = cp.autdata, cp.ae.ambient, cp.ae.Gamma
    moduleQ, _, _, (_, e2cN, _) = amb.fixed_submodule_gmodule()
    e_psi = _e_psi(aut, cp.psi)
    sect, h = seeded_defect_lifts(e_psi.pi, e_psi.boundary, section_seed)
    return obstruction_loop(moduleQ, h.tolist(), lambda x, c: e_psi.action.table[sect[x]][c],
                            lambda a, b: Gamma.mul[a][b], lambda a: Gamma.inv[a],
                            lambda c: e2cN[e_psi.iota.preimage(c)])


def teichmuller_loop(rep, seed: int = 0) -> Cochain:
    Q, A = rep.Q, rep.A
    m = A.modulus
    unit_mod = unit_module(rep.base_action)
    f = [[A.flat_unit() if Q.identity in (p, q) else find_conjugator(A, rep.defect(p, q), seed=seed)
          for q in range(Q.order)] for p in range(Q.order)]
    emb_diag = diagonalize_mod(A.base_embedding(), m)
    return obstruction_loop(unit_mod.module, f, lambda p, u: (rep.lifts[p] @ u) % m,
                            A.mul, A.inv,
                            lambda val: unit_mod.coords_of_unit_vec(emb_diag.solve(val)))
