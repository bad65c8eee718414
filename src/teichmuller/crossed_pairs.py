"""Crossed pairs with respect to a group extension and a G-module.

Setting: an ambient extension N >-> G ->> Q and a G-module M.  A crossed pair
is an extension e: M >-> Gamma ->> N whose class is fixed under Q together
with a section psi of Out_G(e) ->> Q; its Delta-image is the class of the
crossed 2-fold extension

    0 -> M^N -> Gamma -> Aut_G(e) x_{Out_G(e)} Q -> Q -> 1.

An element of Aut_G(e) is a pair (x, c) of x in G and a correction c: N -> M.
By the Wells sequence (Wells, "Automorphisms of group extensions", Trans. AMS
155, 1971) Aut_G(e) -> G has kernel Z^1(N, M) and image the x with x.f - f a
coboundary: both are read off the one elimination of the bar coboundary
d^1: C^1(N, M) -> C^2(N, M) that the ambient holds (``Ambient.delta1``), with
no cohomology of N.  ``AutGeGroup`` holds the pairs as arrays, finds them by
keys of (x, c), and checks the crossed module Gamma -> Aut_G(e) once.  Delta,
the j-map, congruence keys, Xpext with the eight-term exactness verdicts,
crossed-pair algebras and the metacyclic pipeline are built from it.

Xpext is enumerated by class, after Huebschmann ("Group extensions, crossed
pairs and an eight term exact sequence", J. reine angew. Math. 321, 1981):
congruence classes of crossed pairs are the Q-fixed classes of H^2(N, M)
together with their psi.  ``xpext_enumerate`` takes the crossed pairs on one
lift of each Q-fixed class, keys them by ``congruence_key`` (the class of f
with the least psi carried to that lift) and sends all of H^2(G, M) through j
in one batched pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .groups import (
    FiniteGroup,
    GroupAction,
    GroupExtension,
    GroupHom,
    abelian_structure,
    check_normalized_two_cocycle,
    coordinate_array,
    coordinate_elements,
    cyclic,
    direct_product,
    group_from_2cocycle,
    metacyclic,
    quotient_group,
    subgroup_of,
)
from .gmod_cohomology import (
    Cochain,
    CohomologyGroup,
    GModule,
    ModuleMap,
    _bar_positions,
    bar_coboundary_matrix,
    cohomology,
    gmodule_of_action,
    inclusion_module_map,
    map_on_classes,
)
from .crossed import (
    CrossedModule,
    Crossed2Extension,
    cocycle_of_crossed2,
    obstruction_cocycle,
    seeded_defect_lifts,
    validate_central_kernel,
    validate_crossed_module,
)
from .finrings import galois_check, is_ring_morphism_matrix, ring_as_algebra, units_group
from .modlinalg import (BudgetExceeded, Holder, check_cells, diagonalize_mod,
                        first_nonmultiplicative_pair, held, hold_arrays)
from .normal_algebras import BaseAction, CrossedProductSpec, OutRep, crossed_product


class CrossedPairError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ambient data

@dataclass(frozen=True)
class Ambient(Holder):
    """N >-> G ->> Q with an abelian table group M carrying a G-action.

    The ambient holds in ``_held`` (``modlinalg.held``) what the maps of the
    eight-term sequence read, each built on first use and keyed by content:
    the N-action on M (``n_action``), M as a G-module (``gmodule``), its
    restrictions (``restricted_gmodule``, keyed by the images of the
    restricting map), M^N as a Q-module (``fixed_submodule_gmodule``), the bar
    coboundary d^1 on N (``gmod_cohomology.bar_coboundary_matrix``)
    diagonalized (``delta1``) with Z^1(N, M) (``derivations``), the
    conjugation of G on N (``n_conjugation``), the Q-twist matrices per degree
    and module (``twist_matrices``), one Aut_G(e) per normalized cocycle table
    f on N (``aut_data``, keyed by the entries of f), and one group per table
    (``group``) for every group derived over the ambient: Gamma_f, Aut_G(e),
    Out_G(e) and B^psi.  ``_held`` takes no part in construction, equality,
    hashing or the pickle.  M's coordinates are arrays held by M
    (``groups.abelian_presentation``); the coordinate tuples and dicts that
    the module getters also return are ``groups.abelian_structure`` views.
    """

    ext: GroupExtension          # N -> G -> Q
    Mgrp: FiniteGroup
    action: GroupAction          # G on Mgrp
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def G(self) -> FiniteGroup:
        return self.ext.middle

    @property
    def N(self) -> FiniteGroup:
        return self.ext.kernel_group

    @property
    def Q(self) -> FiniteGroup:
        return self.ext.quotient_group

    def group(self, table) -> FiniteGroup:
        """The one group the ambient holds for the content of table, built by
        ``FiniteGroup.from_table``, with all its checks, on first use.  It is
        held by a hash of the table in its narrowest dtype; a held group is
        returned only for an equal table, and any other table goes to
        ``from_table``, which refuses it or builds it unheld."""
        t = np.asarray(table)
        key = ("group", hash(t.astype(np.min_scalar_type(max(len(t) - 1, 0))).tobytes()))
        G = held(self, key, lambda: FiniteGroup.from_table(t))
        return G if np.array_equal(G.table, t) else FiniteGroup.from_table(t)

    def n_action(self) -> GroupAction:
        """The action of G on M restricted to N, held."""
        return held(self, "n_action", lambda: GroupAction(
            self.N, self.Mgrp, self.action.perms[list(self.ext.kernel_hom.images)]))

    def validate(self) -> None:
        self.ext.validate()
        self.action.validate()
        if not self.Mgrp.is_abelian():
            raise CrossedPairError("M must be abelian")

    def gmodule(self):
        """(M as a G-module, elem_to_coords, coords_to_elem), held."""
        return held(self, "gmodule", lambda: (
            gmodule_of_action(self.G, self.Mgrp, self.action.perms), *abelian_structure(self.Mgrp)[1:]))

    def restricted_gmodule(self, hom: GroupHom):
        """The same module over the source of the injective hom: H -> G."""
        def build():
            module, e2c, c2e = self.gmodule()
            return GModule(hom.source, module.invariant_factors,
                           module.matrices[list(hom.images)]), e2c, c2e
        return held(self, ("restricted", hom.images), build)

    def fixed_submodule_gmodule(self):
        """(M^N as a Q-module, M^N, its inclusion into M, abelian_structure(M^N)), held."""
        def build():
            MN, incl = subgroup_of(self.Mgrp, self.fixed_elements())
            # Q-action: lift q to G (well defined on fixed points)
            sec = np.array(self.ext.section())
            perms = incl.preimage(self.action.perms[sec[:, None], list(incl.images)])
            return gmodule_of_action(self.Q, MN, perms), MN, incl, abelian_structure(MN)
        return held(self, "fixed_submodule", build)

    def aut_data(self, f) -> "AutGeGroup":
        """Aut_G(e) of the extension of N by M with normalized cocycle table f,
        built by ``aut_g_of_e`` on first use."""
        f = np.asarray(f, dtype=np.int64)
        return held(self, ("aut_data", f.tobytes()),
                    lambda: aut_g_of_e(extension_from_cocycle(self, f.tolist())))

    def n_cohomology(self, n: int) -> CohomologyGroup:
        """H^n(N, M), over M restricted to N."""
        return cohomology(self.N, self.restricted_gmodule(self.ext.kernel_hom)[0], n)

    def delta1(self):
        """The normalized bar coboundary d: C^1(N, M) -> C^2(N, M), diagonalized
        once (``diagonalize_mod``) and held.  Its rows (p, q, i) and columns
        (n, j), p, q, n != 1, are those of ``bar_coboundary_matrix(module, 1)``
        on x_j(n) = (m/d_j) c_j(n), with the rows d_j x_j(n) = 0 stacked under
        them, as ``_compute_core`` stacks its cocycle system.  Its kernel is
        Z^1(N, M).  Its cells are checked against ``CELL_BUDGET`` before it is
        built."""
        def build():
            N, module = self.N, self.restricted_gmodule(self.ext.kernel_hom)[0]
            d, m, k = module.factors, module.exponent, module.rank
            moduli = np.tile(d, N.order - 1) % m
            shape = ((N.order - 1) ** 2 * k + np.count_nonzero(moduli), (N.order - 1) * k)
            check_cells(f"the {shape[0]} x {shape[1]} d^1 system of Z^1(N, M)", shape[0] * shape[1])
            return diagonalize_mod(np.vstack([bar_coboundary_matrix(module, 1),
                                              np.diag(moduli)[moduli != 0]]), m)
        return held(self, "delta1", build)

    def _corrections(self, x: np.ndarray) -> np.ndarray:
        """The c: N -> M with c(1) = 0, rows of M elements, of the columns of x,
        scaled as the columns of ``delta1``."""
        module, N = self.restricted_gmodule(self.ext.kernel_hom)[0], self.N
        c = np.zeros((x.shape[1], N.order, module.rank), dtype=np.int64)
        c[:, np.arange(N.order) != N.identity] = x.T.reshape(
            len(c), N.order - 1, module.rank) // (module.exponent // module.factors)
        return coordinate_elements(self.Mgrp, c)

    def derivations(self) -> np.ndarray:
        """Z^1(N, M), the kernel of Aut_G(e) -> G, as rows of M elements.  With
        U d V = diag(e) (``delta1``), it is every sum of a_j (m/o_j) V[:, j]
        over the columns j, 0 <= a_j < o_j = gcd(e_j, m) (m past the diagonal);
        V is invertible, so the |Z^1| = ``kernel_size()`` rows, in lexicographic
        order of a, are distinct.  Every Aut_G(e) has at most |G| |Z^1| rows
        of |Gamma| = |M| |N| images, whose cells are checked against
        ``CELL_BUDGET`` here alone, before any row is listed."""
        def build():
            G, diag, M, N = self.G, self.delta1(), self.Mgrp.order, self.N.order
            size = diag.kernel_size()
            check_cells(f"Aut_G(e) over |G| |Z^1(N, M)| |M| |N| = {G.order} * {size} * {M} * {N}",
                        G.order * size * M * N)
            o = np.gcd(np.pad(diag.d, (0, diag.cols - len(diag.d))), diag.m)
            live = np.flatnonzero(o > 1)
            a = np.indices(o[live]).reshape(len(live), size) * (diag.m // o[live])[:, None]
            return self._corrections(diag.V[:, live] @ a % diag.m)
        return held(self, "derivations", build)

    def coboundary_solve(self, tables) -> tuple[np.ndarray, np.ndarray]:
        """For a stack (count, |N|, |N|, k) of coordinate tables of normalized
        cocycles z on N: which are coboundaries, and one c with dc = z for each
        of those, as rows of M elements, from one ``solve`` against ``delta1``."""
        diag, module = self.delta1(), self.restricted_gmodule(self.ext.kernel_hom)[0]
        pos, k = _bar_positions(self.N, 2), module.rank
        z = np.reshape(tables, (len(tables), self.N.order ** 2, k))[:, pos]
        rhs = np.zeros((diag.rows, len(z)), dtype=np.int64)
        rhs[:len(pos) * k] = (z * (module.exponent // module.factors)).reshape(len(z), -1).T
        zero = diag.in_image(rhs)
        return zero, self._corrections(diag.solve(rhs[:, zero]))

    def n_conjugation(self) -> np.ndarray:
        """i_x(n) = x n x^-1 in N for x in G: a read-only (|G|, |N|) array."""
        def build():
            G, kh = self.G, self.ext.kernel_hom
            ix = kh.positions()[G.table[G.table[:, list(kh.images)], G.inverse[:, None]]]
            if (ix < 0).any():
                raise CrossedPairError("conjugation left the restricted subgroup")
            return ix
        return held(self, "n_conjugation", build)

    def fixed_elements(self) -> tuple[int, ...]:
        """The elements of M^N, the part of M fixed by N, in increasing order."""
        return tuple(np.flatnonzero((self.n_action().perms == np.arange(self.Mgrp.order)).all(
            axis=0)).tolist())

    def inflation_map(self) -> ModuleMap:
        """mu: M^N -> M over pi: G ->> Q (inflation H^*(Q, M^N) -> H^*(G, M))."""
        moduleN, MN, incl, _ = self.fixed_submodule_gmodule()
        basis = coordinate_elements(MN, np.eye(moduleN.rank, dtype=np.int64))
        mat = coordinate_array(self.Mgrp)[np.array(incl.images)[basis]].T
        return ModuleMap(group_map=self.ext.quotient_hom, source=moduleN,
                         target=self.gmodule()[0], matrix=mat)

    def cochain(self, table, module: GModule) -> Cochain:
        """The cochain over ``module`` (M over G or a subgroup) with the M-element
        values ``table``: a list over the group for degree 1, nested for degree 2."""
        t = np.asarray(table, dtype=np.int64)
        return Cochain(module, t.ndim, coordinate_array(self.Mgrp)[t])

    def table(self, z: Cochain) -> list:
        """The M-element values of a cochain over M, nested as ``cochain`` takes them."""
        return coordinate_elements(self.Mgrp, z.table).tolist()

    def twist_matrices(self, H: CohomologyGroup) -> np.ndarray:
        """The Q-twist on H = H^n(N, M) as matrices, one per lift x != 1 in
        ``ext.section()``: row i of twist_matrices(H)[j] is the class of the
        twist by x_j of the i-th unit class.  The twist is an automorphism
        of H, so [x.c] = [c] @ that matrix, reduced mod H's invariant factors.
        Read with one ``classes_of`` and held per degree and module."""
        def build():
            xs = np.array([x for x in self.ext.section() if x != self.G.identity], dtype=np.int64)
            t = len(H.invariant_factors)
            twisted = [coordinate_array(self.Mgrp)[self.twist(self.table(H.generator(i)), xs)]
                       for i in range(t)]                                    # [i][x]
            shape = (t * len(xs),) + (self.N.order,) * H.degree + (H.module.rank,)
            return np.array(H.classes_of(np.reshape(twisted, shape)),
                            dtype=np.int64).reshape(t, len(xs), t).transpose(1, 0, 2)
        return held(self, ("twist_matrices", H.degree, H.module.invariant_factors,
                           H.module.matrices.tobytes()), build)

    def twist(self, table, xs) -> np.ndarray:
        """x.c for an M-element table c over N and x in G, or for each x of an
        array xs, stacked on its axes (the Q-twist of a cochain):
        (x.c)(n_1, .., n_k) = x.c(x^-1 n_1 x, .., x^-1 n_k x)."""
        xs, t = np.asarray(xs), np.asarray(table, dtype=np.int64)
        back = self.n_conjugation()[self.G.inverse[xs]]                   # [.., n]: x^-1 n x
        return self.action.perms[xs.reshape(xs.shape + (1,) * t.ndim), t[tuple(
            back.reshape(xs.shape + (1,) * i + (-1,) + (1,) * (t.ndim - 1 - i))
            for i in range(t.ndim))]]


# ---------------------------------------------------------------------------
# extensions of N by M in normalized-cocycle form

@dataclass(frozen=True)
class AbExtension:
    """e: M >-> Gamma ->> N inside the ambient, in (m, n)-index form."""

    ambient: Ambient
    f: tuple                     # normalized 2-cocycle table on N with M values
    ext_e: GroupExtension        # M -> Gamma -> N

    @property
    def Gamma(self) -> FiniteGroup:
        return self.ext_e.middle

    def gamma_index(self, m: int, n: int) -> int:
        return m + self.ambient.Mgrp.order * n

    def gamma_parts(self, y: int) -> tuple[int, int]:
        return y % self.ambient.Mgrp.order, y // self.ambient.Mgrp.order

    def lift_indices(self) -> np.ndarray:
        """The Gamma indices of the lifts (0, n) of N."""
        return self.gamma_index(self.ambient.Mgrp.identity, np.arange(self.ambient.N.order))


def extension_from_cocycle(ambient: Ambient, f) -> AbExtension:
    ext = group_from_2cocycle(ambient.N, ambient.Mgrp, ambient.n_action(), f, build=ambient.group)
    return AbExtension(ambient=ambient, f=tuple(tuple(row) for row in f), ext_e=ext)


def class_is_q_fixed(ambient: Ambient, table, H: CohomologyGroup) -> bool:
    """Is the class in H = H^n(N, M) (n = 1 or 2) of the M-element cocycle
    table on N fixed under the Q-twist by every x in G?

    Elements of N act trivially on H^*(N, M), so one lift x of each
    nontrivial element of Q decides it, read from ``twist_matrices``."""
    return bool(_q_fixed(ambient, H, [H.class_of(ambient.cochain(table, H.module))])[0])


def _q_fixed(ambient: Ambient, H: CohomologyGroup, classes) -> np.ndarray:
    """Which classes of H = H^n(N, M), rows of coordinates, are Q-fixed."""
    classes = np.array(classes, dtype=np.int64).reshape(len(classes), len(H.invariant_factors))
    moved = np.einsum("ci,xij->xcj", classes, ambient.twist_matrices(H)) - classes
    return ~(moved % np.array(H.invariant_factors, dtype=np.int64)).any(axis=(0, 2))


# ---------------------------------------------------------------------------
# Aut_G(e), Out_G(e), and the (diag1) checks

@dataclass(eq=False)
class AutGeGroup(Holder):
    """Aut_G(e), the pairs (alpha, x) of (diag1), with Out_G(e) and the maps
    of the structure diagram.

    An element is a pair (x, c) of x in G and a correction c: N -> M with
    c(1) = 0, acting by alpha(m, n) = (l_x(m) + c(n), i_x(n)).  ``alphas``
    (k, |Gamma|), ``xs`` and ``corrections`` (k, |N|) hold them as read-only
    int64 arrays in (alpha, x) order, as any search hands them over; products
    (x, c)(x', c') = (xx', n -> l_x(c'(n)) + c(i_x'(n))) and
    beta(y) = (y's N-part, n -> M-part of y (0, n) y^-1) are found by their
    keys (``index_of``).  ``_held`` (``modlinalg.held``) keeps the checked
    crossed module, e_psi per psi (``delta``) and the psi-free part of
    ``congruence_key``.
    """

    ae: AbExtension
    alphas: np.ndarray
    xs: np.ndarray
    corrections: np.ndarray = field(init=False, repr=False)
    group: FiniteGroup = field(init=False)
    beta: GroupHom = field(init=False)        # Gamma -> group
    to_G: GroupHom = field(init=False)        # group -> G
    out: FiniteGroup = field(init=False)
    to_out: GroupHom = field(init=False)
    out_to_Q: GroupHom = field(init=False)
    der_indices: list = field(init=False)     # elements with x = 1 (Der(N, M))
    h1_out_indices: list = field(init=False)  # kernel of out_to_Q
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        ae, amb = self.ae, self.ae.ambient
        G, N, M, Q, Gamma = amb.G, amb.N, amb.Mgrp, amb.Q, ae.Gamma
        hold_arrays(self, alphas=np.reshape(self.alphas, (-1, Gamma.order)), xs=np.ravel(self.xs))
        X, k = self.xs, len(self.xs)
        hold_arrays(self, corrections=self.alphas[:, self.ae.lift_indices()] % M.order)
        # [i, j, n]: l_{x_i}(c_j(n)) + c_i(i_{x_j}(n))
        c, lx, ix = self.corrections, amb.action.perms, amb.n_conjugation()
        comp = M.table[lx[X[:, None, None], c], c[np.arange(k)[:, None, None], ix[X]]]
        table = self.index_of(G.table[X[:, None], X], comp)
        if (table < 0).any():
            raise CrossedPairError("Aut_G(e) is not closed under composition")
        self.group = amb.group(table)
        y = np.arange(Gamma.order)
        conj = Gamma.table[Gamma.table[y[:, None], self.ae.lift_indices()], Gamma.inverse[:, None]]
        beta_images = self.index_of(np.array(amb.ext.kernel_hom.images)[y // M.order],
                                    conj % M.order)
        if (beta_images < 0).any():
            raise CrossedPairError("a conjugation of Gamma is not in Aut_G(e)")
        self.beta = GroupHom.checked(Gamma, self.group, beta_images)
        self.to_G = GroupHom.checked(self.group, G, X)
        self.out, self.to_out = quotient_group(self.group, beta_images, build=amb.group)
        _, first = np.unique(self.to_out.images, return_index=True)
        self.out_to_Q = GroupHom.checked(
            self.out, Q, np.array(amb.ext.quotient_hom.images)[X[first]])
        self.der_indices = np.flatnonzero(X == G.identity).tolist()
        self.h1_out_indices = [o for o in range(self.out.order)
                               if self.out_to_Q(o) == Q.identity]

    def __eq__(self, other) -> bool:
        """Equal extensions and elements: everything else is built from them."""
        return (isinstance(other, AutGeGroup) and self.ae == other.ae
                and np.array_equal(self.alphas, other.alphas)
                and np.array_equal(self.xs, other.xs))

    @property
    def pairs(self) -> list:
        """The elements as (alpha tuple, x), in order."""
        return list(zip(map(tuple, self.alphas.tolist()), self.xs.tolist()))

    def _key(self, xs, corr) -> np.ndarray:
        """x |M|^|N| + c in mixed radix |M|, for x <= |G| (|G| stands for no
        element): int64 while (|G| + 1) |M|^|N| < 2^63, else Python ints."""
        G, m, n = self.ae.ambient.G, self.ae.ambient.Mgrp.order, self.ae.ambient.N.order
        radix = held(self, "radix", lambda: np.array([m ** i for i in range(n, -1, -1)], dtype=(
            np.int64 if (G.order + 1) * m ** n < 1 << 63 else object)))
        return np.asarray(xs).astype(radix.dtype, copy=False) * radix[0] + \
            np.asarray(corr).astype(radix.dtype, copy=False) @ radix[1:]

    def index_of(self, xs, corr) -> np.ndarray:
        """The element (x, c) for each x of xs and correction c on the last
        axis of corr (M elements over N), or -1 where that pair is not in
        Aut_G(e); xs broadcasts against corr's rows."""
        elements = held(self, "key_order", lambda: np.argsort(self._key(self.xs, self.corrections)))
        keys = held(self, "keys", lambda: self._key(self.xs, self.corrections)[elements])
        key = self._key(xs, corr)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where(keys[at] == key, elements[at], -1)

    def lookup(self, alphas, xs) -> np.ndarray:
        """The element (alphas[..., :], xs[...]) for each pair, or -1 where
        that pair is not in Aut_G(e); xs broadcasts against alphas' rows.

        c(n) is read as the M-part of alpha(0, n), and the row of the element
        (x, c) found is compared with alpha in full."""
        alphas = np.asarray(alphas)
        idx = self.index_of(xs, alphas[..., self.ae.lift_indices()] % self.ae.ambient.Mgrp.order)
        return np.where((idx >= 0) & (self.alphas[idx] == alphas).all(axis=-1), idx, -1)

    def crossed_module(self) -> tuple[CrossedModule, GroupHom]:
        """Gamma -beta-> Aut_G(e), a acting on Gamma by alpha_a, and iota: M^N ->
        Gamma, m -> (m, 1), held once ``validate_crossed_module`` and
        ``validate_central_kernel`` pass on first use (``CrossedPairError`` else)."""
        return held(self, "crossed_module", self._checked_crossed_module)

    def _checked_crossed_module(self) -> tuple[CrossedModule, GroupHom]:
        amb, Gamma = self.ae.ambient, self.ae.Gamma
        _, MN, incl, _ = amb.fixed_submodule_gmodule()
        action = GroupAction(self.group, Gamma, self.alphas)
        cm = CrossedModule(Gamma, self.group, self.beta, action)
        iota = GroupHom(MN, Gamma, tuple(self.ae.gamma_index(incl(m), amb.N.identity)
                                         for m in range(MN.order)))
        problems = validate_crossed_module(cm) + validate_central_kernel(cm, MN, iota)
        if problems:
            raise CrossedPairError(f"Gamma -> Aut_G(e) fails the crossed-module checks: "
                                   f"{problems[:3]}")
        return cm, iota


def aut_g_of_e(ae: AbExtension, cap: Optional[int] = None) -> AutGeGroup:
    """Aut_G(e), the pairs (alpha, x) of (diag1), by the Wells sequence.

    alpha(m, n) = (l_x(m) + c(n), i_x(n)) is a homomorphism exactly when
    x.f - f = d(c o i_x^-1), (x.f)(p, q) = x.f(x^-1 p x, x^-1 q x): x lifts
    when x.f - f is a coboundary, with corrections (c'_x + Z^1(N, M)) o i_x
    for any c'_x with dc'_x = x.f - f.  One solve of every twist x.f - f
    against the held d^1 (``Ambient.coboundary_solve``) gives them all, and
    Z^1(N, M) is read off the same elimination.  Every row is still checked.
    ``Ambient.derivations`` checks the cells of the rows; a cap, when given,
    also bounds |Gamma| and |G|.
    """
    amb = ae.ambient
    G, N, M, Gamma = amb.G, amb.N, amb.Mgrp, ae.Gamma
    if cap is not None and (Gamma.order > cap or G.order > cap):
        raise CrossedPairError(f"Aut_G(e) with |Gamma| = {Gamma.order} and |G| = {G.order} "
                               f"exceeds the size cap {cap}")
    z1 = amb.derivations()
    ix, lx, coords = amb.n_conjugation(), amb.action.perms, coordinate_array(M)   # i_x(n), l_x(m)
    fixed, pre = amb.coboundary_solve(coords[amb.twist(ae.f, np.arange(G.order))]
                                      - coords[np.array(ae.f)])
    xs, at = np.flatnonzero(fixed), ix[fixed]
    c_x = np.take_along_axis(pre, at, axis=1)  # c'_x o i_x; + d o i_x for d in Z^1
    corr = M.table[c_x[:, None], z1[:, at].swapaxes(0, 1)].reshape(-1, N.order)
    xs, at = np.repeat(xs, len(z1)), np.repeat(at, len(z1), axis=0)
    # alpha[y] at y = m + |M| n
    alphas = (M.table[lx[xs][:, None, :], corr[:, :, None]] + M.order * at[:, :, None]).reshape(
        len(xs), Gamma.order)
    # alpha(yz) = alpha(y) alpha(z) is checked on the lifts y = (0, n) alone: it
    # holds on M as c(1) = 0, and M with the lifts generates Gamma
    dt = np.min_scalar_type(max(Gamma.order, G.order) - 1)
    cand, gm, lifts = alphas.astype(dt), Gamma.table.astype(dt), ae.lift_indices()
    if not (cand[:, gm[lifts]] == gm[cand[:, lifts, None], cand[:, None, :]]).all():
        raise CrossedPairError("a pair of the Wells sequence is not an automorphism of Gamma")
    order = np.lexsort(np.vstack([xs[None], alphas[:, ::-1].T]))
    return AutGeGroup(ae=ae, alphas=alphas[order], xs=xs[order])


def diag1_report(autdata: AutGeGroup, h1n_order: Optional[int] = None) -> dict:
    """Exactness of the rows and columns of the structure diagram."""
    amb, report = autdata.ae.ambient, {}
    N, M, fixed = amb.N, amb.Mgrp, amb.fixed_elements()
    # middle column: ker(beta) = M^N inside Gamma
    report["ker_beta_is_MN"] = sorted(autdata.beta.kernel()) == sorted(
        autdata.ae.gamma_index(m, N.identity) for m in fixed)
    # middle row: 0 -> Der -> Aut_G(e) -> G -> 1
    report["ker_toG_is_Der"] = sorted(autdata.to_G.kernel()) == sorted(autdata.der_indices)
    report["toG_surjective"] = autdata.to_G.is_surjective()
    # bottom row: 0 -> H^1(N, M) -> Out_G(e) -> Q -> 1
    report["out_toQ_surjective"] = autdata.out_to_Q.is_surjective()
    der_out = sorted({autdata.to_out(i) for i in autdata.der_indices})
    report["H1_is_image_of_Der"] = der_out == sorted(autdata.h1_out_indices)
    if h1n_order is not None:
        report["H1_order_matches"] = len(autdata.h1_out_indices) == h1n_order
    # left column: M -> Der -> H^1 -> 0 with zeta = beta|M
    zeta = [autdata.beta(autdata.ae.gamma_index(m, N.identity)) for m in range(M.order)]
    report["ker_zeta_is_MN"] = [m for m in range(M.order)
                                if zeta[m] == autdata.group.identity] == sorted(fixed)
    report["exact_at_Der"] = sorted(set(zeta)) == sorted(
        i for i in autdata.der_indices if autdata.to_out(i) == autdata.out.identity)
    report["all"] = all(v for k2, v in report.items() if isinstance(v, bool))
    return report


# ---------------------------------------------------------------------------
# crossed pairs and Delta

@dataclass
class CrossedPair:
    autdata: AutGeGroup
    psi: tuple                    # Q-element -> Out_G(e) element
    lifts: tuple                  # Q-element -> Aut_G(e) element over psi

    @property
    def ae(self) -> AbExtension:
        return self.autdata.ae

    def validate(self) -> None:
        aut, Q, psi = self.autdata, self.ae.ambient.Q, np.array(self.psi)
        if (np.array(aut.out_to_Q.images)[psi] != np.arange(Q.order)).any():
            raise CrossedPairError("psi is not a section of Out_G(e) -> Q")
        if (np.array(aut.to_out.images)[list(self.lifts)] != psi).any():
            raise CrossedPairError("stored lift does not cover psi")
        if (aut.out.table[psi[:, None], psi] != psi[Q.table]).any():
            raise CrossedPairError("psi is not a homomorphism")


def crossed_pair_structures(autdata: AutGeGroup) -> list[CrossedPair]:
    """All sections psi: Q -> Out_G(e) of the bottom row (homomorphisms), by psi.

    psi is fixed by its values on a minimal generating set of Q, and values
    taken over the generators extend to a section exactly when they generate
    a subgroup of order |Q|, which out_to_Q then maps isomorphically onto Q.
    Each psi(q) is lifted to its least element of Aut_G(e).
    """
    Q, out, to_q = autdata.ae.ambient.Q, autdata.out, autdata.out_to_Q.images
    fibers = [[o for o in range(out.order) if to_q[o] == g] for g in Q.minimal_generators()]
    sections = []
    for images in itertools.product(*fibers):
        image = out.closure(images)
        if len(image) == Q.order:
            psi = tuple(sorted(image, key=to_q.__getitem__))
            lifts = tuple(map(autdata.to_out.images.index, psi))
            sections.append(CrossedPair(autdata, psi, lifts))
    return sorted(sections, key=lambda cp: cp.psi)


def delta(cp: CrossedPair, section_seed: int = 0) -> tuple[Crossed2Extension, Cochain]:
    """The crossed 2-fold extension e_psi: M^N >-> Gamma -> B^psi ->> Q and its
    degree-3 cocycle over the ambient's M^N module, in H^3(Q, M^N).

    e_psi depends only on (Aut_G(e), psi), and Aut_G(e) holds it per psi
    (``_e_psi``).  The cocycle is ``obstruction_cocycle`` on the section and
    lifts of ``seeded_defect_lifts``, per call, read through the held
    ``iota.positions()`` and ``coordinate_array(M^N)``.  ``cp.validate()``
    runs on every call, before e_psi is looked up.
    """
    cp.validate()
    aut, Gamma = cp.autdata, cp.ae.Gamma
    e_psi = held(aut, ("e_psi", cp.psi), lambda: _e_psi(aut, cp.psi))
    sect, h = seeded_defect_lifts(e_psi.pi, e_psi.boundary, section_seed)
    return e_psi, obstruction_cocycle(cp.ae.ambient.fixed_submodule_gmodule()[0], Gamma, h,
                                      Gamma.inverse[h], e_psi.action.perms[sect],
                                      e_psi.iota.positions(), coordinate_array(e_psi.M))


def _e_psi(aut: AutGeGroup, psi: tuple) -> Crossed2Extension:
    """e_psi for a section psi that passed ``CrossedPair.validate``.

    B^psi = Aut_G(e) x_{Out_G(e)} Q is, as psi is injective, the a with
    to_out(a) in psi(Q), each over its one q, in the order of a; its table is
    one gather of the Aut_G(e) and Q tables (``Ambient.group``).  B^psi acts
    on Gamma through its first factor and holds the image of beta, so e_psi
    passes ``Crossed2Extension.validate`` once ``crossed_module()`` of
    Aut_G(e) has and the checks here, once per (Aut_G(e), psi), pass: B^psi
    is closed (a product outside it would read -1 in the table), exactness
    at B^psi, and B^psi ->> Q.
    """
    Gamma, Q = aut.ae.Gamma, aut.ae.ambient.Q
    cm, iota = aut.crossed_module()
    _, MN, _, _ = aut.ae.ambient.fixed_submodule_gmodule()
    q_of_out = np.full(aut.out.order, -1)
    q_of_out[list(psi)] = np.arange(Q.order)
    q_of = q_of_out[list(aut.to_out.images)]
    members = np.flatnonzero(q_of >= 0)
    qs = q_of[members]
    # B^psi element i is (members[i], qs[i]), found by its code a |Q| + q
    into_b = np.full(aut.group.order * Q.order, -1)
    into_b[members * Q.order + qs] = np.arange(len(members))
    B = aut.ae.ambient.group(
        into_b[aut.group.table[members[:, None], members] * Q.order + Q.table[qs[:, None], qs]])
    bnd = GroupHom(Gamma, B, tuple(
        into_b[np.array(aut.beta.images) * Q.order + Q.identity].tolist()))
    piB = GroupHom(B, Q, tuple(qs.tolist()))
    if min(bnd.images) < 0 or sorted(set(bnd.images)) != piB.kernel():
        raise CrossedPairError("e_psi failed validation: exactness fails at B^psi")
    if not piB.is_surjective():
        raise CrossedPairError("e_psi failed validation: B^psi does not surject onto Q")
    action = GroupAction(B, Gamma, cm.action.perms[members])
    return Crossed2Extension(M=MN, C=Gamma, Gamma=B, G=Q,
                             iota=iota, boundary=bnd, pi=piB, action=action)


# ---------------------------------------------------------------------------
# the j map: restrict an extension of G and conjugate

def j_map(ambient: Ambient, h_table) -> CrossedPair:
    """j(h) for a normalized 2-cocycle h on G with values in M, the one-table
    case of ``_j_pairs``.

    e is the restriction over N of the extension E of G by h; psi(q) is
    conjugation by the lift (0, x) of q, x = s(q).  E is not built: in it

        (0,x)(m,g)(0,x)^-1 = (x.m + h(x,g) + xg.a + h(xg,x^-1), xgx^-1)

    with a = -x^-1.h(x,x^-1).  Aut_G(e) is ``ambient.aut_data`` of f = h|N,
    read once h is checked to be a normalized cocycle.  Delta(j(h)) = 0 by
    (13.11)-exactness.
    """
    return _j_pairs(ambient, np.asarray(h_table, dtype=np.int64)[None])[0]


def _j_pairs(ambient: Ambient, tables: np.ndarray) -> list[CrossedPair]:
    """``j_map`` of each table in a (count, |G|, |G|) stack of M-element tables.

    The cocycle check, f = h|N and the conjugation automorphisms run as
    gathers over the whole stack; each distinct f then looks up its pairs in
    its Aut_G(e) at once, and each distinct (f, psi) is validated once.
    """
    G, M = ambient.G, ambient.Mgrp
    H = np.asarray(tables, dtype=np.int64)
    check_normalized_two_cocycle(G, M, ambient.action, H)
    A, Mt = ambient.action.perms, M.table
    kh = np.array(ambient.ext.kernel_hom.images)
    X = np.array(ambient.ext.section())
    X_inv = G.inverse[X]
    xg = G.table[X[:, None], kh]                                  # [q, n]: x g, g = kh(n)
    a = M.inverse[A[X_inv, H[:, X, X_inv]]]                       # [t, q]
    # [t, q, n]: the correction h(x,g) + xg.a + h(xg,x^-1) of the conjugation by (0, x)
    shift = Mt[Mt[H[:, X[:, None], kh], A[xg, a[:, :, None]]], H[:, xg, X_inv[:, None]]]
    # the first table t of each distinct f = h|N, keyed by the bytes of f
    restricted, first = H[:, kh[:, None], kh], {}
    which = np.array([first.setdefault(f.tobytes(), t) for t, f in enumerate(restricted)])
    pairs: list = [None] * len(H)
    for i in first.values():
        autdata = ambient.aut_data(restricted[i])
        to_out = np.array(autdata.to_out.images)
        members = np.flatnonzero(which == i)
        lifts = autdata.index_of(X, shift[members])
        if (lifts < 0).any():
            raise CrossedPairError("conjugation pair not found in Aut_G(e)")
        checked: dict = {}
        for t, row in zip(members.tolist(), lifts.tolist()):
            cp = CrossedPair(autdata=autdata, psi=tuple(to_out[row].tolist()), lifts=tuple(row))
            if checked.setdefault(cp.psi, cp) is cp:
                cp.validate()
            pairs[t] = cp
    return pairs


# ---------------------------------------------------------------------------
# congruence of crossed pairs

def _carried(cp: CrossedPair, cs: np.ndarray, autdata: AutGeGroup) -> np.ndarray:
    """The lifts (x, d) of psi carried along phi_c(m, n) = (m + c(n), n), to
    (x, n -> d(n) + c(i_x(n)) - l_x(c(n))), for each row c of cs: autdata's
    elements, -1 where a carried pair is not in it."""
    amb = cp.ae.ambient
    M, lifts = amb.Mgrp, list(cp.lifts)
    xs, d = cp.autdata.xs[lifts], cp.autdata.corrections[lifts]
    ix, lx = amb.n_conjugation(), amb.action.perms
    moved = M.table[M.table[d, cs[:, ix[xs]]], M.inverse[lx[xs[:, None], cs[:, None, :]]]]
    return autdata.index_of(xs, moved)


def find_congruence(cp1: CrossedPair, cp2: CrossedPair) -> Optional[list[int]]:
    """An extension isomorphism (1, phi, 1) carrying psi_1 to psi_2, or None.

    phi(m, n) = (m + c(n), n) carries Gamma_f1 onto Gamma_f2 exactly when
    dc = f1 - f2: c runs over c_0 + Z^1(N, M) for the c_0 that
    ``Ambient.coboundary_solve`` gives, if any.  The pairwise oracle of
    ``congruence_key``.
    """
    ae1, ae2, amb = cp1.ae, cp2.ae, cp1.ae.ambient
    if ae2.ambient is not amb and ae2.ambient != amb:
        raise CrossedPairError("pairs live over different ambients")
    coords, M = coordinate_array(amb.Mgrp), amb.Mgrp
    zero, c0 = amb.coboundary_solve(coords[np.array([ae1.f])] - coords[np.array([ae2.f])])
    if not zero[0]:
        return None
    cs = M.table[c0, amb.derivations()]
    carried = _carried(cp1, cs, cp2.autdata)
    psi = np.where(carried >= 0, np.array(cp2.autdata.to_out.images)[carried], -1)
    hits = np.flatnonzero((psi == cp2.psi).all(axis=1))
    if not hits.size:
        return None
    y = np.arange(ae1.Gamma.order)
    return (M.table[y % M.order, cs[hits[0]][y // M.order]] + M.order * (y // M.order)).tolist()


def congruence_key(cp: CrossedPair) -> tuple:
    """A complete congruence invariant: equal exactly for congruent pairs.

    A congruence (1, phi, 1) has phi(m, n) = (m + c(n), n) with dc = f_1 - f_2,
    so the pair is carried along one such phi_c to a pair on f*, the lift of
    the class of f (``_canonical``, held per Aut_G(e)).  Pairs on f* are
    congruent exactly when some phi_d, d in Z^1(N, M), carries one to the
    other, which conjugates psi by the image of d in Out_G(e*): an element of
    ``h1_out_indices``.  The key is (the class, the least such conjugate).
    """
    cls, c, star = held(cp.autdata, "canonical", lambda: _canonical(cp.autdata))
    idx = _carried(cp, c[None], star)[0]
    if (idx < 0).any():
        raise CrossedPairError("a carried lift is not in Aut_G(e*)")
    def conjugates():  # [o, a]: o to_out(a) o^-1 in Out_G(e*), o in h1_out_indices
        out, h1 = star.out, np.array(star.h1_out_indices)
        return out.table[out.table[h1[:, None], list(star.to_out.images)], out.inverse[h1][:, None]]
    return cls, min(map(tuple, held(star, "h1_conjugates", conjugates)[:, idx].tolist()))


def _canonical(aut: AutGeGroup) -> tuple:
    """(the class of f, a c with dc = f - f* for f* its lift, the Aut_G(e*) on
    f*) for the table f of aut."""
    amb = aut.ae.ambient
    h2n, coords = amb.n_cohomology(2), coordinate_array(amb.Mgrp)
    f = coords[np.array(aut.ae.f, dtype=np.int64)][None]
    cls = h2n.classes_of(f)[0]
    f_star = h2n.lifts([cls])
    zero, c = amb.coboundary_solve(f - f_star)
    if not zero[0]:
        raise CrossedPairError("a table is not cohomologous to the lift of its class")
    star = amb.aut_data(coordinate_elements(amb.Mgrp, f_star[0]))
    return cls, c[0], star


# ---------------------------------------------------------------------------
# Xpext enumeration and the eight-term report

@dataclass
class XpextReport:
    ambient: Ambient
    keys: list                    # per bucket: its congruence key, increasing
    buckets: list                 # per bucket: the enumerated CrossedPairs
    delta_classes: list           # per bucket: coords in H^3(Q, M^N)
    zero_bucket: int
    j_images: dict                # H^2(G, M) coords -> bucket index
    h2q_image_in_h2g: set
    h3q_classes: dict             # coords -> inflation image in H^3(G, M)
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)   # per false verdict: what breaks it


def xpext_enumerate(ambient: Ambient, seed: int = 0) -> XpextReport:
    """Desk-scale enumeration of crossed pairs with exactness verdicts.

    Takes the crossed-pair structures on one lift f of each Q-fixed class of
    H^2(N, M) (read from ``Ambient.twist_matrices``): every normalized table
    on N is some f - dc, and phi_c carries its pairs to pairs on f, so this
    meets every congruence class.  The pairs are bucketed by increasing
    ``congruence_key``, and their Delta classes, read with one ``classes_of``,
    are checked constant on each bucket.  All of H^2(G, M) goes through j in
    one stack (``_j_pairs``), both inflations are read on the unit classes
    (``map_on_classes``), and ``eight_term_verdicts`` checks the set-level
    exactness of

        H^2(Q,M^N) -inf-> H^2(G,M) -j-> Xpext -Delta-> H^3(Q,M^N) -inf-> H^3(G,M)

    Before any cohomology, the cells of an Aut_G(e) are checked against
    ``CELL_BUDGET`` (``Ambient.derivations``), and before any pair is built
    the |H^2(G, M)| |G|^2 rank cells of the j-image tables.  Every module and
    Aut_G(e) table comes from what the ambient holds.
    """
    amb = ambient
    amb.validate()
    G, N, M, Q = amb.G, amb.N, amb.Mgrp, amb.Q
    amb.derivations()
    moduleG, moduleQ = amb.gmodule()[0], amb.fixed_submodule_gmodule()[0]
    h2n, h2g, h3g = amb.n_cohomology(2), cohomology(G, moduleG, 2), cohomology(G, moduleG, 3)
    h2q, h3q = cohomology(Q, moduleQ, 2), cohomology(Q, moduleQ, 3)
    check_cells(f"j-images of {h2g.order} classes", h2g.order * G.order ** 2 * moduleG.rank)
    classes = list(h2n.all_classes())
    fixed = [coords for coords, q_fixed in zip(classes, _q_fixed(amb, h2n, classes)) if q_fixed]
    by_key: dict = {}
    for coords, table in zip(fixed, h2n.lifts(fixed)):
        aut = amb.aut_data(coordinate_elements(amb.Mgrp, table))  # f = f*, reached along phi_0
        held(aut, "canonical", lambda: (coords, np.full(N.order, M.identity), aut))
        for cp in crossed_pair_structures(aut):
            by_key.setdefault(congruence_key(cp), []).append(cp)
    keys = sorted(by_key)
    buckets = [by_key[key] for key in keys]
    bucket_of = {key: i for i, key in enumerate(keys)}
    # Delta of every bucket member in one read, checked constant on each bucket
    tables = [delta(cp, section_seed=seed)[1].table for bucket in buckets for cp in bucket]
    found = iter(h3q.classes_of(np.reshape(tables, (len(tables),) + (Q.order,) * 3
                                           + (moduleQ.rank,))))
    delta_classes = []
    for bucket in buckets:
        bucket_classes = {next(found) for _ in bucket}
        if len(bucket_classes) != 1:
            raise CrossedPairError("Delta is not constant on a congruence bucket")
        delta_classes.append(bucket_classes.pop())
    j_images = _j_images(amb, h2g, bucket_of)
    # inflation H^2(Q, M^N) -> H^2(G, M) and H^3(Q, M^N) -> H^3(G, M)
    infl = amb.inflation_map()
    h2q_image = set(map_on_classes(infl, h2q, h2g).values())
    h3q_map = map_on_classes(infl, h3q, h3g)
    report = XpextReport(ambient=amb, keys=keys, buckets=buckets, delta_classes=delta_classes,
                         zero_bucket=j_images[tuple([0] * len(h2g.invariant_factors))],
                         j_images=j_images, h2q_image_in_h2g=h2q_image, h3q_classes=h3q_map)
    report.verdicts, report.witnesses = eight_term_verdicts(report)
    return report


def _j_images(amb: Ambient, h2g: CohomologyGroup, bucket_of: dict) -> dict:
    """The bucket of j(h) for each class h of H^2(G, M), keyed by its coords,
    from one stack of lifted classes read as M-element tables."""
    classes = list(h2g.all_classes())
    pairs = _j_pairs(amb, coordinate_elements(amb.Mgrp, h2g.lifts(classes)))
    # the key depends only on (f, psi): transport along phi_c carries the
    # image of beta onto the image of beta
    bucket_of_pair, j_images = {}, {}
    for coords, cp in zip(classes, pairs):
        pair = (cp.ae.f, cp.psi)
        if pair not in bucket_of_pair:
            bucket_of_pair[pair] = bucket_of.get(congruence_key(cp))
            if bucket_of_pair[pair] is None:
                raise CrossedPairError("crossed pair not matched by any enumerated bucket")
        j_images[coords] = bucket_of_pair[pair]
    return j_images


def eight_term_verdicts(report: XpextReport) -> tuple[dict, dict]:
    """The exactness verdicts of a report's maps, and a witness per false one.

    The witnesses are the H^2(G, M) classes in ker j symmetric-difference
    im inf (``exact_at_H2G``), the keys of the buckets in im j
    symmetric-difference ker Delta (``exact_at_Xpext``), the H^3(Q, M^N)
    classes in im Delta symmetric-difference ker inf (``exact_at_H3Q``) and
    the j-image buckets with nonzero Delta (``delta_j_zero``), each sorted.
    """
    # the least coordinates are the zero class, which inflation keeps zero
    zero3q = min(report.h3q_classes)
    zero3g = report.h3q_classes[zero3q]
    dcs = report.delta_classes
    ker_j = {c for c, b in report.j_images.items() if b == report.zero_bucket}
    im_j = set(report.j_images.values())
    ker_delta = {i for i, dc in enumerate(dcs) if dc == zero3q}
    ker_inf3 = {c for c, img in report.h3q_classes.items() if img == zero3g}
    broken = {
        "exact_at_H2G": ker_j ^ report.h2q_image_in_h2g,
        "exact_at_Xpext": {report.keys[b] for b in im_j ^ ker_delta},
        "exact_at_H3Q": set(dcs) ^ ker_inf3,
        "delta_j_zero": {b for b in im_j if dcs[b] != zero3q},
    }
    verdicts = {name: not bad for name, bad in broken.items()}
    verdicts["all"] = all(verdicts.values())
    return verdicts, {name: sorted(bad) for name, bad in broken.items() if bad}


# ---------------------------------------------------------------------------
# the five-term part: restriction, degree-1 Delta (transgression)

def degree1_delta(ambient: Ambient, d_table, seed: int = 0) -> Cochain:
    """Transgression H^1(N, M)^Q -> H^2(Q, M^N) by partial cochain extension.

    Chooses m_q in M with (u(q).d - d) = (principal derivation of m_q) and
    returns c(p, q) = m_p + p.m_q - m_{u(p)u(q)} with the coherent choice
    m_{n u} = d(n) + n.m_u; the values land in M^N and form a 2-cocycle whose
    class does not depend on the choices.
    """
    amb, G, M, Q = ambient, ambient.G, ambient.Mgrp, ambient.Q
    A, Mt, Minv = amb.action.perms, M.table, M.inverse
    kh, sec = np.array(amb.ext.kernel_hom.images), np.array(amb.ext.section(seed))
    d = np.asarray(d_table, dtype=np.int64)
    # m_q: the least m with (u(q).d - d)(n) = n.m - m for every n in N
    principal = Mt[A[kh], Minv]                                          # [n, m]
    moved = Mt[amb.twist(d, sec), Minv[d]]                               # [q, n]
    fits = (principal[None] == moved[:, :, None]).all(axis=1)            # [q, m]
    if not fits.any(axis=1).all():
        raise CrossedPairError("derivation class is not Q-fixed")
    m_q = fits.argmax(axis=1)
    m_q[Q.identity] = M.identity
    # c(p, q) = m_p + p.m_q - m_{u(p)u(q)}, with m_{n u(pq)} = d(n) + n.m_{u(pq)}
    n0 = amb.ext.kernel_hom.positions()[G.table[G.table[sec[:, None], sec],
                                                 G.inverse[sec[Q.table]]]]
    m_prod = Mt[d[n0], A[kh[n0], m_q[Q.table]]]
    values = Mt[Mt[m_q[:, None], A[sec[:, None], m_q]], Minv[m_prod]]
    moduleQ, MNgrp, MN_incl, _ = amb.fixed_submodule_gmodule()
    mn = MN_incl.positions()[values]
    if (mn < 0).any():
        raise CrossedPairError("transgression value escaped M^N")
    return Cochain(moduleQ, 2, coordinate_array(MNgrp)[mn])


def five_term_report(ambient: Ambient, seed: int = 0) -> dict:
    """Set-level exactness of the classical five-term part of the sequence."""
    amb, G, Q = ambient, ambient.G, ambient.Q
    moduleG, moduleQ = amb.gmodule()[0], amb.fixed_submodule_gmodule()[0]
    h1q, h1g, h1n = cohomology(Q, moduleQ, 1), cohomology(G, moduleG, 1), amb.n_cohomology(1)
    h2q, h2g = cohomology(Q, moduleQ, 2), cohomology(G, moduleG, 2)
    infl = amb.inflation_map()
    res_map = inclusion_module_map(amb.ext.kernel_hom, moduleG)
    # maps on class sets, each read on the unit classes; res_map.target
    # equals h1n's module in content
    inf1 = map_on_classes(infl, h1q, h1g)
    res1 = map_on_classes(res_map, h1g, h1n)
    # identify H^1(N, M)^Q and the transgression values
    classes = list(h1n.all_classes())
    fixed_classes = [c for c, fixed in zip(classes, _q_fixed(amb, h1n, classes)) if fixed]
    trans = {c: h2q.class_of(degree1_delta(amb, amb.table(h1n.lift(list(c))), seed=seed))
             for c in fixed_classes}
    inf2 = map_on_classes(infl, h2q, h2g)
    im_inf1, im_res = set(inf1.values()), set(res1.values())
    # a class is zero exactly when all its coordinates are
    report = {"inf1_injective": len(im_inf1) == h1q.order,
              "exact_at_H1G": {c for c, v in res1.items() if not any(v)} == im_inf1,
              "res_lands_in_fixed_part": im_res <= set(fixed_classes),
              "exact_at_H1NQ": im_res == {c for c in fixed_classes if not any(trans[c])},
              "exact_at_H2Q": set(trans.values()) == {c for c, v in inf2.items() if not any(v)}}
    report["all"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# pushout of an extension along a map of kernels

def pushout_extension(ae: AbExtension, target: FiniteGroup, phi_images) -> GroupExtension:
    """Push e: M >-> Gamma ->> N forward along phi: M -> M' (abelian M').

    phi must be equivariant for the N-action on M and the trivial N-action on
    the image (the only case the pipeline needs: central constants).
    """
    amb, Gamma = ae.ambient, ae.Gamma
    M, N = amb.Mgrp, amb.N
    if not target.is_abelian():
        raise CrossedPairError("pushout target must be abelian")
    phi = np.asarray(phi_images)
    if (phi[M.table] != target.table[phi[:, None], phi]).any():
        raise CrossedPairError("phi is not a homomorphism")
    if (phi[amb.n_action().perms] != phi).any():
        raise CrossedPairError("phi image must be N-fixed (central constants)")
    anti = sorted({phi_images[m] * Gamma.order + ae.gamma_index(int(M.inverse[m]), N.identity)
                   for m in range(M.order)})
    Gq, proj = quotient_group(direct_product(target, Gamma), anti)
    kernel_hom = GroupHom.checked(
        target, Gq, tuple(proj(a * Gamma.order + Gamma.identity) for a in range(target.order)))
    # quotient onto N through the Gamma component of the first representative
    reps = np.unique(proj.images, return_index=True)[1]
    quotient_hom = GroupHom.checked(Gq, N, reps % Gamma.order // M.order)
    ext = GroupExtension(kernel_hom, quotient_hom)
    ext.validate()
    return ext


# ---------------------------------------------------------------------------
# metacyclic pipeline

@dataclass
class MetacyclicInstance:
    r: int
    s: int
    t: int
    f: int
    ell: int
    G: FiniteGroup
    ambient: Ambient
    e2: Crossed2Extension          # the crossed 2-fold extension (C_l -> C_lr -> G -> C_s)
    xi: Cochain                    # extracted degree-3 cocycle over C_s
    K: int                         # (t-1)f/r
    unit: int                      # t mod ell (the induced action on Z/l)
    cp: Optional[CrossedPair]      # explicit crossed pair when search is feasible
    cp_skip_reason: Optional[str] = None


def metacyclic_legal(r: int, s: int, t: int, f: int, ell: int) -> bool:
    if r <= 1 or s <= 1 or not (1 <= t < r) or not (0 <= f < r) or ell < 2:
        return False
    if pow(t, s, r) != 1 % r or (t * f - f) % r:
        return False
    base = (t ** s - 1) // r
    return base % ell == 0 and r % ell == 0


def metacyclic_crossed2(r: int, s: int, t: int, f: int, ell: int) -> Crossed2Extension:
    """C_l >-> C_{l r} --del--> G(r,s,t,f) ->> C_s with del(v) = y, x.v = v^t."""
    return _metacyclic_crossed2(*metacyclic(r, s, t, f), cyclic(ell), r, t)


def _metacyclic_crossed2(G: FiniteGroup, ext: GroupExtension, M: FiniteGroup, r: int,
                         t: int) -> Crossed2Extension:
    """``metacyclic_crossed2`` on G(r,s,t,f) and C_l = M built by the caller."""
    L = M.order * r
    C = cyclic(L)
    iota = GroupHom.checked(M, C, tuple((m * r) % L for m in range(M.order)))
    boundary = GroupHom.checked(C, G, tuple(i % r for i in range(L)))
    action = GroupAction(G, C, _power_action(G, r, t, L))
    return Crossed2Extension(M=M, C=C, Gamma=G, G=ext.quotient_group, iota=iota,
                             boundary=boundary, pi=ext.quotient_hom, action=action)


def _power_action(G: FiniteGroup, r: int, t: int, n: int) -> np.ndarray:
    """g = y^i x^j of G(r,s,t,f) acting on Z/n by t^j, as (|G|, n) permutations."""
    powers = np.array([pow(t, j, n) for j in range(G.order // r)])
    return np.arange(n) * powers[np.arange(G.order) // r, None] % n


def metacyclic_instance(r: int, s: int, t: int, f: int, ell: int,
                        seed: int = 0) -> MetacyclicInstance:
    """The full metacyclic pipeline for legal parameters: G(r,s,t,f) and C_l,
    each built once, e_{l r}, its class cocycle, and, unless
    ``Ambient.derivations`` refuses it, the crossed pair with the same Delta,
    whose Aut_G(e) is read off ``Ambient.delta1`` with no cohomology of N.
    """
    if not metacyclic_legal(r, s, t, f, ell):
        raise CrossedPairError("ell does not divide gcd((t^s-1)/r, r) "
                               "or the metacyclic preconditions fail")
    G, ext = metacyclic(r, s, t, f)
    Mgrp = cyclic(ell)
    e2 = _metacyclic_crossed2(G, ext, Mgrp, r, t)
    rep = e2.validate()
    if rep:
        raise CrossedPairError(f"crossed 2-fold extension invalid: {rep[:2]}")
    xi = cocycle_of_crossed2(e2, section_seed=seed)
    amb = Ambient(ext=ext, Mgrp=Mgrp, action=GroupAction(G, Mgrp, _power_action(G, r, t, ell)))
    inst = MetacyclicInstance(r=r, s=s, t=t, f=f, ell=ell, G=G, ambient=amb, e2=e2, xi=xi,
                              K=(t - 1) * f // r, unit=t % ell, cp=None)
    try:
        amb.derivations()
    except BudgetExceeded as refused:
        inst.cp_skip_reason = str(refused)
        return inst
    feuler = [[(1 if n1 + n2 >= r else 0) % ell for n2 in range(r)] for n1 in range(r)]
    ae = extension_from_cocycle(amb, feuler)
    autdata = aut_g_of_e(ae)
    # psi from the crossed-module action: q = x^j acts by v -> v^(t^j), on
    # v = (m, n) at i = n + r m in C_{l r}
    L, y = ell * r, np.arange(ae.Gamma.order)
    i = (y // ell + r * (y % ell)) * np.array([pow(t, q, L) for q in range(s)])[:, None] % L
    lifts = autdata.lookup(ae.gamma_index(i // r, i % r), ext.section())
    if (lifts < 0).any():
        raise CrossedPairError("crossed-module action pair missing from Aut_G(e)")
    psi = tuple(np.array(autdata.to_out.images)[lifts].tolist())
    inst.cp = CrossedPair(autdata=autdata, psi=psi, lifts=tuple(lifts.tolist()))
    inst.cp.validate()
    return inst


# ---------------------------------------------------------------------------
# crossed pair algebras (Q-normal Galois ring data)

@dataclass(eq=False)
class QNormalGaloisData(Holder):
    """A Q-normal Galois extension T|S with its structure extension.

    ``ambient`` is N >-> G ->> Q with M = U(T) and the kappa_G-action on
    units; ``kappa_G`` (|G|, rank T, rank T) holds the ring-automorphism
    matrix of T of each element of G, reduced mod m on construction.
    ``_held`` (``modlinalg.held``) keeps the N-action on T and the Q-actions
    on the fixed ring R that ``crossed_pair_algebra`` reads off, by the bytes
    of their kappa_Q tables; it takes no part in construction or the repr.
    """

    gal: object                   # finrings.GaloisData (T | S with group N)
    ambient: Ambient
    units: object                 # finrings.UnitsGroup of T
    kappa_G: np.ndarray
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        T = self.gal.T
        hold_arrays(self, T.modulus, kappa_G=np.reshape(self.kappa_G, (-1, T.rank, T.rank)))

    def n_base_action(self) -> BaseAction:
        """N acting on T, built once and held with the fixed ring it holds."""
        return held(self, "n_base_action",
                    lambda: BaseAction(self.ambient.N, self.gal.T, self.gal.action))

    def validate(self) -> None:
        self.ambient.validate()
        T, G = self.gal.T, self.ambient.G
        if not all(is_ring_morphism_matrix(T, mat) for mat in self.kappa_G):
            raise CrossedPairError("kappa_G is not by ring automorphisms")
        pair = first_nonmultiplicative_pair(self.kappa_G, G, T.modulus)
        if pair is not None:
            raise CrossedPairError(f"kappa_G is not a homomorphism at {pair}")
        if not np.array_equal(self.kappa_G[list(self.ambient.ext.kernel_hom.images)],
                              self.gal.action):
            raise CrossedPairError("kappa_G does not restrict to the N-action")
        report = galois_check(self.gal)
        if not (report["criterion_i"] and report["criterion_iii"] and report["criterion_iv"]):
            raise CrossedPairError("T|S is not a Galois extension")


def qnormal_galois_product(gal, Q: FiniteGroup) -> QNormalGaloisData:
    """G = N x Q with Q acting trivially on T (kappa_Q trivial on S)."""
    N = gal.N
    G = direct_product(N, Q)
    kernel_hom = GroupHom.checked(N, G, tuple(n * Q.order + Q.identity for n in range(N.order)))
    quotient_hom = GroupHom.checked(G, Q, tuple(g % Q.order for g in range(G.order)))
    ext = GroupExtension(kernel_hom, quotient_hom)
    ext.validate()
    units = units_group(gal.T)
    kappa = gal.action[np.arange(G.order) // Q.order]       # (n, q) acts as n
    rows = units.index_of(np.einsum("gab,ub->gua", kappa, units.elements))
    amb = Ambient(ext=ext, Mgrp=units.group,
                  action=GroupAction(G, units.group, rows))
    return QNormalGaloisData(gal=gal, ambient=amb, units=units, kappa_G=kappa)


def crossed_pair_algebra(data: QNormalGaloisData, cp: CrossedPair, seed: int = 0):
    """(A_e, sigma_psi): the Q-normal crossed pair algebra.

    A_e is the crossed product (T, N, e, theta) with theta through N; the
    lift table comes from the chosen Aut_G(e) representatives of psi via
    i_sharp(alpha, x): t y -> (x.t)(alpha y).

    Returns (OutRep, CrossedProductResult, unit_bridge) where unit_bridge maps
    coordinates of U(T)^N (the Delta-side module) to units of the center of
    the product (the Teichmuller-side module).
    """
    gal, amb, ae = data.gal, data.ambient, cp.ae
    T, Q, Gamma = gal.T, amb.Q, ae.Gamma
    m = T.modulus
    # i: Gamma-kernel (= U(T) as a group) -> units of T; theta through N
    theta = gal.action[[ae.gamma_parts(y)[1] for y in range(Gamma.order)]]
    spec = CrossedProductSpec(A=ring_as_algebra(T), base_action=data.n_base_action(),
                              ext=ae.ext_e, i_images=data.units.elements, theta=theta)
    res = crossed_product(spec, seed=seed)
    C, R = res.C, res.R
    rR = R.rank
    r_diag = spec.base_action.fixed_ring_diag()
    # rs[d, u] = r_u s_d in T: C has the basis r_u s_d v_n at (n, d, u), as A = T
    rs = np.einsum("au,bd,abk->duk", res.r_embed, res.s_basis, T.structure) % m
    # sigma_psi lifts on C: the lift (alpha, x) of psi(q) sends v_n to
    # u_hat[q, n] v_{n2[q, n]}, with u_hat a unit of T, and i_sharp(alpha, x) sends
    # t v_n to (x.t) u_hat v_{n2} for t = r_u s_d
    sec = amb.ext.section(seed)
    xs = cp.autdata.xs[list(cp.lifts)]
    if (np.array(amb.ext.quotient_hom.images)[xs] != np.arange(Q.order)).any():
        raise CrossedPairError("lift grade mismatch")
    ay = cp.autdata.alphas[list(cp.lifts)][:, res.section]
    n2 = ay // amb.Mgrp.order
    u_hat = data.units.elements[spec.ext.kernel_hom.preimage(
        Gamma.table[ay, Gamma.inverse[np.array(res.section)[n2]]])]
    kt = np.einsum("qab,dub->qdua", data.kappa_G[xs], rs) % m
    img = np.einsum("qdua,qnb,abw->qnduw", kt, u_hat, T.structure) % m
    at_v1 = np.einsum("cw,qnduw->qnduc", res.a_to_c, img) % m
    right_v = np.einsum("qnb,abc->qnca", res.v_units[n2], C.flat_tensor) % m
    lifts = np.einsum("qnca,qndua->qcndu", right_v, at_v1).reshape(Q.order, C.flat_rank, -1) % m
    # kappa_Q on the rebuilt base ring R (= S): transport through T
    coords = r_diag.solve(np.einsum("qab,bu->aqu", data.kappa_G[list(sec)], res.r_embed).reshape(
        T.rank, -1) % m)
    if coords is None:
        raise CrossedPairError("kappa_Q does not preserve the fixed ring")
    # one base action per kappa_Q table, so that its held U(R) is shared
    kappa_Q = coords.reshape(rR, Q.order, rR).transpose(1, 0, 2)
    base_action_Q = held(data, ("q_base_action", kappa_Q.tobytes()),
                         lambda: BaseAction(Q, R, kappa_Q))
    rep = OutRep(base_action=base_action_Q, A=C, lifts=lifts, name="crossed pair algebra")
    # bridge: U(T)^N coordinates -> units of R
    moduleQ, MNgrp, MN_incl, _ = amb.fixed_submodule_gmodule()

    def bridge_unit(mn_index: int) -> np.ndarray:
        coords = r_diag.solve(data.units.elements[MN_incl(mn_index)])
        if coords is None:
            raise CrossedPairError("fixed unit escaped the fixed ring")
        return coords % m

    return rep, res, (moduleQ, MNgrp, MN_incl, bridge_unit)
