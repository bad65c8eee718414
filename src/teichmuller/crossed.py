"""Crossed modules, crossed 2-fold extensions, and the obstruction cocycle.

A crossed 2-fold extension 0 -> M -> C -> Gamma -> G -> 1 carries a class in
H^3(G, M); the class is extracted by the classical obstruction formula: choose
a set section s of Gamma ->> G with s(1) = 1 and a normalized lift
h: G x G -> C of the section defect, then

    xi(x, y, z) = h(x,y) h(xy,z) ( s(x).h(y,z) * h(x,yz) )^{-1}

lands in M and is a normalized 3-cocycle whose class does not depend on the
choices.  ``obstruction_cocycle`` evaluates it on every triple at once, from
arrays: the |G|^2 values of h and their inverses, the action of each s(x)
and a coordinate lookup.  It is shared with the Teichmuller cocycle of a
Q-normal algebra (``normal_algebras.teichmuller_cocycle``), where h is a
table of conjugating units and s(x) acts as the lift w_x.  Congruence
questions are always decided at the class level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .finrings import _codes
from .gmod_cohomology import Cochain, GModule, gmodule_of_action
from .groups import (
    FiniteGroup,
    GroupAction,
    GroupError,
    GroupHom,
    abelian_group_from_factors,
    abelian_structure,
    coordinate_array,
    direct_product,
    fiber_product,
    identity_hom,
    mixed_radix_decode,
    mixed_radix_encode,
    quotient_group,
    same_group,
)
from .modlinalg import Holder, held


class CrossedModuleError(ValueError):
    pass


@dataclass(frozen=True)
class CrossedModule:
    C: FiniteGroup
    Gamma: FiniteGroup
    boundary: GroupHom           # C -> Gamma
    action: GroupAction          # Gamma acting on C by automorphisms


def validate_crossed_module(cm: CrossedModule) -> list[str]:
    """Every violated instance of equivariance or the Peiffer identity."""
    report = []
    C, Gamma = cm.C, cm.Gamma
    if not cm.boundary.is_valid():
        report.append("boundary is not a homomorphism")
        return report
    try:
        cm.action.validate()
    except GroupError as exc:
        report.append(f"action invalid: {exc}")
        return report
    act = cm.action.perms
    bnd = np.array(cm.boundary.images, dtype=np.int64)
    gmul, ginv, cmul, cinv = Gamma.table, Gamma.inverse, C.table, C.inverse
    # as the boundary and the action are homomorphisms, the generators of Gamma
    # and C decide each identity; only a failure scans every instance to report
    def equivariance(g):  # bnd[act[g, c]] == g * bnd[c] * g^-1
        return bnd[act[g]] != gmul[gmul[g][:, bnd], ginv[g][:, None]]

    def peiffer(b):  # b c b^-1 == act[bnd[b], c]
        return cmul[cmul[b], cinv[b][:, None]] != act[bnd[b]]

    for law, H, text in ((equivariance, Gamma, "equivariance fails at gamma"),
                         (peiffer, C, "Peiffer identity fails at b")):
        if law(H.gens_index).any():
            for h, c in zip(*np.nonzero(law(slice(None)))):
                report.append(f"{text}={H.label(int(h))}, c={C.label(int(c))}")
    return report


def validate_central_kernel(cm: CrossedModule, M: FiniteGroup, iota: GroupHom) -> list[str]:
    """Every violated condition for iota: M -> C to be an abelian, central
    kernel of the boundary: iota injective, its image ker(boundary) and
    central in C."""
    report = []
    if not iota.is_valid():
        report.append("iota is not a homomorphism")
    if not iota.is_injective():
        report.append("M does not inject into C")
    if sorted(iota.images) != sorted(cm.boundary.kernel()):
        report.append("exactness fails at C")
    if not M.is_abelian():
        report.append("M is not abelian")
    # centrality of M in C: row iota(m) of C's table equals its column
    ct = cm.C.table
    im = np.array(iota.images)
    for m in np.flatnonzero((ct[im] != ct[:, im].T).any(axis=1)):
        report.append(f"M is not central in C (element {M.label(int(m))})")
    return report


@dataclass(frozen=True)
class Crossed2Extension(Holder):
    """Exact sequence 0 -> M -> C -> Gamma -> G -> 1 with crossed structure."""

    M: FiniteGroup
    C: FiniteGroup
    Gamma: FiniteGroup
    G: FiniteGroup
    iota: GroupHom               # M -> C
    boundary: GroupHom           # C -> Gamma
    pi: GroupHom                 # Gamma -> G
    action: GroupAction          # Gamma on C
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def crossed_module(self) -> CrossedModule:
        return CrossedModule(self.C, self.Gamma, self.boundary, self.action)

    def validate(self) -> list[str]:
        report = validate_crossed_module(self.crossed_module())
        report += validate_central_kernel(self.crossed_module(), self.M, self.iota)
        if not self.pi.is_valid():
            report.append("pi is not a homomorphism")
        if not self.pi.is_surjective():
            report.append("Gamma does not surject onto G")
        if sorted(set(self.boundary.images)) != sorted(self.pi.kernel()):
            report.append("exactness fails at Gamma")
        return report

    def gmodule(self):
        """(M as a G-module, the action induced through lifts, elem_to_coords,
        coords_to_elem), held; the last two are ``groups.abelian_structure`` views."""
        def build():
            sect = np.array(self.pi.section())
            perms = self.iota.preimage(self.action.perms[sect[:, None], list(self.iota.images)])
            return (gmodule_of_action(self.G, self.M, perms), *abelian_structure(self.M)[1:])
        return held(self, "gmodule", build)


def obstruction_cocycle(module: GModule, V, h, h_inv, act, into, coords) -> Cochain:
    """The 3-cochain xi(x,y,z) = h(x,y) h(xy,z) (x.h(y,z) h(x,yz))^-1 over module,
    read as h(x,y) h(xy,z) h(x,yz)^-1 x.(h(y,z)^-1), since x.h^-1 = (x.h)^-1:
    only the |G|^2 values of h are inverted (``h_inv``).  Their group V is
    - a FiniteGroup: h and h_inv are (|G|, |G|) elements, act (|G|, |V|) the
      permutations of V, and xi is gathers on V's table; or
    - an Algebra over Z/m: h and h_inv are (|G|, |G|, n) flat units, act
      (|G|, n, n) the matrices; the products apply left-multiplication
      matrices, one x at a time, and one solve reads xi in the base ring.
    ``into`` maps each value, by element index or by the code of its base-ring
    coordinates, to its module element (-1 off the module, CrossedModuleError),
    and ``coords`` (|M|, k) gives those elements' coordinates.  h(1, .) =
    h(., 1) = 1 and 1 acts trivially, so identity arguments give zero.
    """
    G = module.group
    if isinstance(V, FiniteGroup):
        # [x, y, z]: h(x,y), h(xy,z), h(x,yz)^-1 and x.(h(y,z)^-1)
        mul = V.table
        where = mul[mul[h[:, :, None], h[G.table]], mul[h_inv[:, G.table], act[:, h_inv]]]
    else:
        m, T = V.modulus, V.flat_tensor
        Lh, Li = (np.einsum("...a,abc->...cb", v, T) % m for v in (h, h_inv))
        values = np.broadcast_to(V.flat_unit(), (G.order,) + h.shape).copy()  # xi(1, ., .) = 1
        for x in np.flatnonzero(np.arange(G.order) != G.identity):
            v = np.einsum("ab,yzb->yza", act[x], h_inv) % m
            for L in (Li[x][G.table], Lh[G.table[x]], Lh[x][:, None]):
                v = (L @ v[..., None])[..., 0] % m
            values[x] = v
        s = V.base_diag.solve(values.reshape(-1, V.flat_rank).T)
        if s is None:
            raise CrossedModuleError("obstruction escaped the base ring (corrupted input)")
        where = _codes(s.T, m).reshape((G.order,) * 3)
    found = into[where]
    if (found < 0).any():
        raise CrossedModuleError("obstruction landed outside the module (corrupted input)")
    return Cochain(module, 3, coords[found])


def seeded_defect_lifts(pi: GroupHom, boundary: GroupHom,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded choices of the obstruction cocycle of C -boundary-> Gamma -pi->> G.

    Returns the set section s = ``pi.section(seed)``, as an array, and the
    normalized lift h(x, y) of its defect s(x)s(y)s(xy)^-1, a (|G|, |G|)
    array: the ((seed + 3x + 11y) mod n)-th of its n boundary preimages in
    increasing order, 1 when x or y is.
    """
    G, Gamma = pi.target, pi.source
    s, bnd, x = np.array(pi.section(seed)), np.array(boundary.images), np.arange(G.order)
    defect = Gamma.table[Gamma.table[s[:, None], s], Gamma.inverse[s[G.table]]]
    size = np.bincount(bnd, minlength=Gamma.order)[defect]
    if not size.all():
        raise CrossedModuleError("section defect has no boundary preimage (corrupted extension)")
    pick = np.searchsorted(np.sort(bnd), defect) + (seed + 3 * x[:, None] + 11 * x) % size
    h = np.argsort(bnd, kind="stable")[pick]
    h[G.identity, :] = h[:, G.identity] = boundary.source.identity
    return s, h


def cocycle_of_crossed2(e2: Crossed2Extension, section_seed: int = 0) -> Cochain:
    """The degree-3 obstruction cocycle of a crossed 2-fold extension.

    The section and the defect lifts depend on ``section_seed``
    (``seeded_defect_lifts``); the class of the result does not.
    """
    sect, h = seeded_defect_lifts(e2.pi, e2.boundary, section_seed)
    return obstruction_cocycle(e2.gmodule()[0], e2.C, h, e2.C.inverse[h], e2.action.perms[sect],
                               e2.iota.positions(), coordinate_array(e2.M))


def trivial_crossed2(Q: FiniteGroup, M: GModule) -> Crossed2Extension:
    """e_0: 0 -> M = M -> 0 -> Q = Q -> 1 with the module action as structure."""
    if not same_group(M.group, Q):
        raise CrossedModuleError("module must be over Q")
    factors = M.invariant_factors
    Mgrp = abelian_group_from_factors(factors)
    # q on the element with digits v: the element with digits M.matrices[q] v
    digits = mixed_radix_decode(np.arange(Mgrp.order), factors)
    perms = mixed_radix_encode(np.einsum("qij,nj->qni", M.matrices, digits), factors)
    return Crossed2Extension(M=Mgrp, C=Mgrp, Gamma=Q, G=Q, iota=identity_hom(Mgrp),
                             boundary=GroupHom(Mgrp, Q, (Q.identity,) * Mgrp.order),
                             pi=identity_hom(Q), action=GroupAction(Q, Mgrp, perms))


def baer_sum(a: Crossed2Extension, b: Crossed2Extension) -> Crossed2Extension:
    """Baer sum over the same (G, M): middle terms C_a x^M C_b and
    Gamma_a x_G Gamma_b; the class of the result is the sum of the classes."""
    if not same_group(a.G, b.G):
        raise CrossedModuleError("extensions end at different groups")
    if not same_group(a.M, b.M):
        raise CrossedModuleError("extensions start at different modules")
    mod_a, mod_b = a.gmodule()[0], b.gmodule()[0]
    if (mod_a.invariant_factors != mod_b.invariant_factors
            or not np.array_equal(mod_a.matrices, mod_b.matrices)):
        raise CrossedModuleError("induced module structures differ")
    M, G = a.M, a.G
    CC = direct_product(a.C, b.C)
    anti = sorted({a.iota(m) * b.C.order + b.iota(int(M.inverse[m])) for m in range(M.order)})
    Cq, proj_c = quotient_group(CC, anti)
    Gm, p1, p2 = fiber_product(a.pi, b.pi)
    iota = GroupHom.checked(M, Cq, tuple(proj_c(a.iota(m) * b.C.order + b.C.identity)
                                         for m in range(M.order)))
    # boundary and action on the quotient, read on the first representative
    # in CC of each class
    ca, cb = divmod(np.unique(proj_c.images, return_index=True)[1], b.C.order)
    p1s, p2s = np.array(p1.images), np.array(p2.images)
    pair = np.full((a.Gamma.order, b.Gamma.order), -1)
    pair[p1s, p2s] = np.arange(Gm.order)
    bnd = pair[np.array(a.boundary.images)[ca], np.array(b.boundary.images)[cb]]
    if (bnd < 0).any():
        raise CrossedModuleError("boundaries leave the fiber product (corrupted extension)")
    boundary = GroupHom.checked(Cq, Gm, tuple(bnd.tolist()))
    pi = GroupHom.checked(Gm, G, tuple(np.array(a.pi.images)[p1s].tolist()))
    acted = a.action.perms[p1s[:, None], ca] * b.C.order + b.action.perms[p2s[:, None], cb]
    action = GroupAction(Gm, Cq, np.array(proj_c.images)[acted])
    return Crossed2Extension(M=M, C=Cq, Gamma=Gm, G=G,
                             iota=iota, boundary=boundary, pi=pi, action=action)
