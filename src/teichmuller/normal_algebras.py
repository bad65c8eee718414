"""Q-normal structures on finite algebras, their Teichmuller cocycles, the
structure-transport operations, crossed products, and the constructive
Deuring-embedding direction.

A Q-normal structure is represented concretely by a lift table: one algebra
automorphism matrix w_q per q in Q, semilinear of grade q over the base, with
w_1 = 1 and every defect w_p w_q w_{pq}^{-1} inner.  Out(A) is never
materialized; inner-ness is decided by solving the conjugator equations.

Every owner holds its per-element data as one stacked read-only int64 array,
reduced mod m when it is constructed from any array-like: the kappa matrices
of a ``BaseAction`` (|Q|, r, r), the lifts of an ``OutRep`` (|Q|, n, n), the
i-images (|K|, n) and theta (|Gamma|, n, n) of a ``CrossedProductSpec``, the
v_q of a ``CrossedProductResult`` (|Q|, flat C) and the basis matrices of an
``EndSide`` (E, flat C, flat C), with n the flat rank of the algebra.  Row
g of a stack belongs to the group element g; the transports, the twisted
unit extension, the End side and the Deuring checks are einsums and batched
solves over these stacks.

The Teichmuller cocycle is extracted by the crossed-module obstruction
routine ``crossed.obstruction_cocycle``: choose units f(p,q) trivializing the
defects, then

    xi(p,q,r) = f(p,q) f(pq,r) ( w_p(f(q,r)) f(p,qr) )^{-1}

lands in the units of the base ring and is a normalized 3-cocycle whose class
is independent of every choice made.  The routine reads it from arrays: the
|Q|^2 units f and their inverses, the lifts and the code lookup of U(S), which
the shared builder ``gmod_cohomology.gmodule_of_action`` makes a Q-module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .crossed import obstruction_cocycle
from .groups import FiniteGroup, GroupExtension, GroupHom, coordinate_array
from .gmod_cohomology import Cochain, GModule, gmodule_of_action
from .finrings import (
    UNITS_CAP,
    Algebra,
    FinCommRing,
    UnitsGroup,
    diagonalize_mod,
    find_conjugator,
    fixed_subring,
    is_algebra_morphism,
    is_ring_morphism_matrix,
    inverse_mod,
    kernel_mod,
    matrix_algebra_over,
    opposite_algebra,
    tensor_algebra,
    units_group,
    _enumerate_units,
    _expand_over_subring,
    _module_basis_over_subring,
    _same_ring,
)
from .modlinalg import (Holder, ModDiagonalization, colspans_equal,
                        first_nonmultiplicative_pair, held, hold_arrays, invertible_mod,
                        submodule_size)


class NormalStructureError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class BaseAction(Holder):
    """kappa_Q: an action of Q on the commutative ring S (not nec. injective).

    ``matrices`` (|Q|, rank S, rank S) holds kappa(q) in row q.  ``_held``
    keeps data derived from the action (``modlinalg.held``: its
    ``fixed_ring``, the diagonalized embedding ``fixed_ring_diag`` and
    ``unit_module``); it takes no part in construction, the repr or the pickle.
    """

    Q: FiniteGroup
    S: FinCommRing
    matrices: np.ndarray
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        S = self.S
        hold_arrays(self, S.modulus, matrices=np.reshape(self.matrices, (-1, S.rank, S.rank)))

    def validate(self) -> None:
        if len(self.matrices) != self.Q.order:
            raise NormalStructureError("need one matrix per group element")
        if not np.array_equal(self.matrices[self.Q.identity], np.eye(self.S.rank, dtype=np.int64)):
            raise NormalStructureError("identity must act trivially on S")
        for q, mat in enumerate(self.matrices):
            if not is_ring_morphism_matrix(self.S, mat):
                raise NormalStructureError(f"kappa({q}) is not a ring automorphism")
        pair = first_nonmultiplicative_pair(self.matrices, self.Q, self.S.modulus)
        if pair is not None:
            raise NormalStructureError(f"kappa is not a homomorphism at {pair}")

    def fixed_ring(self) -> tuple[FinCommRing, np.ndarray, np.ndarray, np.ndarray]:
        """(R, r_embed, s_basis, expand): the fixed ring R = S^Q, its embedding
        into S, an S-basis over R (columns, S-coords) and the matrix that
        expands S-coordinates over it (R-coordinates of s_basis column i at
        rows [i * rank R:(i + 1) * rank R]); built once and held."""
        def build():
            S = self.S
            R, r_embed = fixed_subring(S, self.matrices, name=f"{S.name}^Q")
            s_basis = _module_basis_over_subring(S, R, r_embed)
            if s_basis is None:
                raise NormalStructureError("S is not free over the fixed ring R")
            # S is free over R on s_basis, so expanding over it is a bijection
            expand = _expand_over_subring(S, R, r_embed, s_basis).solve(
                np.eye(S.rank, dtype=np.int64))
            if expand is None:
                raise NormalStructureError("element escaped the R-span (S not free?)")
            return R, r_embed, s_basis, expand
        return held(self, "fixed_ring", build)

    def fixed_ring_diag(self) -> ModDiagonalization:
        """The embedding of the fixed ring into S diagonalized, held: its
        ``solve`` reads an element of R back from S."""
        return held(self, "fixed_ring_diag",
                    lambda: diagonalize_mod(self.fixed_ring()[1], self.S.modulus))


def trivial_base_action(Q: FiniteGroup, S: FinCommRing) -> BaseAction:
    return BaseAction(Q, S, [np.eye(S.rank, dtype=np.int64)] * Q.order)


@dataclass(frozen=True, eq=False)
class OutRep(Holder):
    """A Q-normal structure: lift table q -> automorphism of A of grade q,
    ``lifts`` (|Q|, flat rank, flat rank) holding w_q in row q.  ``_held``
    keeps the inverse of each lift a defect reads and, per seed, the factor
    set (``modlinalg.held``); it takes no part in construction, the repr or the pickle."""

    base_action: BaseAction
    A: Algebra
    lifts: np.ndarray
    name: str = ""
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = self.A.flat_rank
        hold_arrays(self, self.A.modulus, lifts=np.reshape(self.lifts, (-1, n, n)))

    @property
    def Q(self) -> FiniteGroup:
        return self.base_action.Q

    def inverse_lift(self, q: int) -> np.ndarray:
        """w_q^-1, held per q; NormalStructureError when w_q is singular."""
        def build():
            inv = inverse_mod(self.lifts[q], self.A.modulus)
            if inv is None:
                raise NormalStructureError(f"lift {q} is not invertible")
            return inv
        return held(self, ("inverse_lift", int(q)), build)

    def defect(self, p: int, q: int) -> np.ndarray:
        """w_p w_q w_{pq}^{-1}, an automorphism over S."""
        m, w = self.A.modulus, self.lifts
        return (w[p] @ w[q] @ self.inverse_lift(self.Q.table[p, q])) % m

    def factor_set(self, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(f, f^-1), (|Q|, |Q|, flat rank) each: units f(p, q) with
        w_p w_q = Inn(f(p, q)) w_pq, found by ``find_conjugator`` with the
        seed, and 1 where p or q is 1; held per seed.  NormalStructureError at
        the first (p, q), in row-major order, whose defect is not inner."""
        def build():
            Q, A = self.Q, self.A
            f = np.broadcast_to(A.flat_unit(), (Q.order, Q.order, A.flat_rank)).copy()
            f_inv = f.copy()
            for p, q in itertools.product(np.flatnonzero(np.arange(Q.order) != Q.identity),
                                          repeat=2):
                u = find_conjugator(A, self.defect(p, q), seed=seed)
                if u is None:
                    raise NormalStructureError(
                        f"defect at ({p},{q}) is not inner: not a Q-normal structure")
                f[p, q], f_inv[p, q] = u, A.inv(u)
            return f, f_inv
        return held(self, ("factor_set", seed), build)

    def validate(self, seed: int = 0) -> None:
        Q, A = self.Q, self.A
        m = A.modulus
        self.base_action.validate()
        if len(self.lifts) != Q.order:
            raise NormalStructureError("need one lift per group element")
        if not np.array_equal(self.lifts[Q.identity], np.eye(A.flat_rank, dtype=np.int64)):
            raise NormalStructureError("w_1 must be the identity")
        emb = A.base_embedding()
        for q, w in enumerate(self.lifts):
            if not is_algebra_morphism(A, A, w):
                raise NormalStructureError(f"lift {q} is not an algebra morphism")
            if not invertible_mod(w, m, A.base.primes):
                raise NormalStructureError(f"lift {q} is not invertible")
            if not np.array_equal((w @ emb) % m, (emb @ self.base_action.matrices[q]) % m):
                raise NormalStructureError(f"lift {q} has the wrong grade on S")
        # w_1 = 1, so a defect at p = 1 or q = 1 is 1, inner
        self.factor_set(seed)

    def is_equivariant(self) -> bool:
        return first_nonmultiplicative_pair(self.lifts, self.Q, self.A.modulus) is None


def equivariant_rep(base_action: BaseAction, A: Algebra, lifts, name: str = "") -> OutRep:
    """An OutRep whose lift table is an exact homomorphism."""
    rep = OutRep(base_action=base_action, A=A, lifts=lifts, name=name)
    pair = first_nonmultiplicative_pair(rep.lifts, rep.Q, A.modulus)
    if pair is not None:
        raise NormalStructureError(f"lift table is not an exact homomorphism at {pair}")
    return rep


# ---------------------------------------------------------------------------
# U(S) as a Q-module

@dataclass(frozen=True)
class UnitModule:
    """U(S) in invariant-factor coordinates with the Q-action from kappa."""

    units: UnitsGroup
    module: GModule
    elem_to_coords: tuple
    coords_to_elem: dict

    def coords_of_unit_vec(self, vec) -> tuple[int, ...]:
        return self.elem_to_coords[self.units.index_of(vec)]

    def unit_vec_of_coords(self, coords) -> np.ndarray:
        return self.units.elements[self.coords_to_elem[tuple(coords)]]


def unit_module(base_action: BaseAction) -> UnitModule:
    """U(S) as a Q-module, built once per base action and held by it."""
    def build():
        units = units_group(base_action.S)
        # acted[q, u]: the index of kappa(q) applied to unit u
        acted = units.index_of(np.einsum("qab,ub->qua", base_action.matrices, units.elements))
        module, e2c, c2e = gmodule_of_action(base_action.Q, units.group,
                                             lambda q, u: acted[q, u])
        return UnitModule(units=units, module=module, elem_to_coords=tuple(e2c),
                          coords_to_elem=c2e)
    return held(base_action, "unit_module", build)


# ---------------------------------------------------------------------------
# Teichmuller cocycle

@dataclass
class TeichWitness:
    rep: OutRep
    unit_mod: UnitModule
    f: np.ndarray                # f[p, q]: flat unit of A
    cocycle: Cochain


def teichmuller_cocycle(rep: OutRep, seed: int = 0,
                        unit_mod: Optional[UnitModule] = None) -> TeichWitness:
    """xi in Z^3(Q, U(S)) measuring the failure of the lift table to compose.

    Reads the units f(p,q) with w_p w_q = Inn(f(p,q)) w_{pq}, normalized
    f(1,.) = f(.,1) = 1, from ``rep.factor_set(seed)``, and returns

        xi(p,q,r) = f(p,q) f(pq,r) ( w_p(f(q,r)) f(p,qr) )^{-1}

    read in U(S) through the base embedding.  Raises when some defect is not
    inner ("not Q-normal").
    """
    if unit_mod is None:
        unit_mod = unit_module(rep.base_action)
    f, f_inv = rep.factor_set(seed)
    z = obstruction_cocycle(unit_mod.module, rep.A, f, f_inv, rep.lifts, unit_mod.units.lookup,
                            coordinate_array(unit_mod.units.group))
    return TeichWitness(rep=rep, unit_mod=unit_mod, f=f, cocycle=z)


# ---------------------------------------------------------------------------
# transport of normal structures: opposite, matrix, tensor

def opposite_rep(rep: OutRep) -> OutRep:
    Aop = opposite_algebra(rep.A)
    return OutRep(base_action=rep.base_action, A=Aop, lifts=rep.lifts,
                  name=f"{rep.name}^op" if rep.name else "op")


def matrix_rep(rep: OutRep, k: int) -> OutRep:
    MA, n = matrix_algebra_over(rep.A, k), rep.A.flat_rank
    # w_q on every matrix entry: the block diagonal kron(1_{k^2}, w_q)
    lifts = np.einsum("xy,qab->qxayb", np.eye(k * k, dtype=np.int64), rep.lifts).reshape(
        rep.Q.order, k * k * n, k * k * n)
    return OutRep(base_action=rep.base_action, A=MA, lifts=lifts,
                  name=f"M_{k}({rep.name})" if rep.name else f"M_{k}")


def tensor_rep(rep1: OutRep, rep2: OutRep) -> tuple[OutRep, Algebra]:
    """(A1 (x) A2, w1 (x) w2); requires the same base action."""
    b1, b2 = rep1.base_action, rep2.base_action
    if b1 is not b2 and not (np.array_equal(b1.Q.table, b2.Q.table) and _same_ring(b1.S, b2.S)
                             and np.array_equal(b1.matrices, b2.matrices)):
        raise NormalStructureError("tensor needs a common base action")
    A, B = rep1.A, rep2.A
    AB = tensor_algebra(A, B)
    nq, sR = rep1.Q.order, A.base.rank
    # the column of the flat basis element (e_i s_u) (x) f_j is w1(e_i s_u) (x) w2(f_j)
    w1 = rep1.lifts.reshape(nq, A.rank, sR, A.rank, sR)
    w2 = np.einsum("qbyjv,v->qbyj", rep2.lifts.reshape(nq, B.rank, sR, B.rank, sR), B.base.one())
    lifts = np.einsum("qaxiu,qbyj,xyw->qabwiju", w1, w2 % AB.modulus, A.base.structure)
    return OutRep(base_action=rep1.base_action, A=AB,
                  lifts=lifts.reshape(nq, AB.flat_rank, AB.flat_rank),
                  name=f"({rep1.name})(x)({rep2.name})"), AB


# ---------------------------------------------------------------------------
# crossed products

@dataclass(frozen=True, eq=False)
class CrossedProductSpec(Holder):
    """(A, Q, e_Q, theta): extension K >-> Gamma ->> Q with a morphism of
    crossed modules (i, theta): (K, Gamma, j) -> (U(A), Aut(A), inner).

    ``i_images`` (|K|, flat rank) holds the unit i(y) in row y, and ``theta``
    (|Gamma|, flat rank, flat rank) the automorphism theta(g) in row g.
    """

    A: Algebra
    base_action: BaseAction
    ext: GroupExtension
    i_images: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        n = self.A.flat_rank
        hold_arrays(self, self.A.modulus, i_images=np.reshape(self.i_images, (self.K.order, n)),
                    theta=np.reshape(self.theta, (self.Gamma.order, n, n)))

    @property
    def Q(self) -> FiniteGroup:
        return self.ext.quotient_group

    @property
    def Gamma(self) -> FiniteGroup:
        return self.ext.middle

    @property
    def K(self) -> FiniteGroup:
        return self.ext.kernel_group

    def validate(self) -> None:
        A, Gamma, K, I, thetas = self.A, self.Gamma, self.K, self.i_images, self.theta
        m = A.modulus
        self.ext.validate()
        self.base_action.validate()
        emb = A.base_embedding()
        checked = set()          # theta takes few distinct values: check each once
        for g in range(Gamma.order):
            th, q = thetas[g], self.ext.quotient_hom(g)
            if (th.tobytes(), q) in checked:
                continue
            checked.add((th.tobytes(), q))
            if not is_algebra_morphism(A, A, th) or not invertible_mod(th, m, A.base.primes):
                raise NormalStructureError(f"theta({g}) is not an algebra automorphism")
            if not np.array_equal((th @ emb) % m, (emb @ self.base_action.matrices[q]) % m):
                raise NormalStructureError(f"theta({g}) has the wrong grade")
        pair = first_nonmultiplicative_pair(thetas, Gamma, m)
        if pair is not None:
            raise NormalStructureError(f"theta is not a homomorphism at {pair}")
        # row y of I is i(y); left[y] and right[y] multiply by it on either side
        left = np.einsum("ya,abc->ycb", I, A.flat_tensor) % m
        right = np.einsum("yb,abc->yca", I, A.flat_tensor) % m
        # i(1) = 1 and i(y) i(z) = i(yz) for the generators y make i multiplicative,
        # so i(y) i(y^-1) = 1; only a failure takes the checks that name the first error
        mult = np.array_equal(I[K.identity], A.flat_unit()) and np.array_equal(
            (left[K.gens_index] @ I.T) % m, I[K.table[K.gens_index]].transpose(0, 2, 1))
        if not mult and not all(A.is_unit(v) for v in I):
            raise NormalStructureError("i(K) contains a non-unit")
        if len({row.tobytes() for row in I}) != K.order:
            raise NormalStructureError("i is not injective")
        for y in range(0 if mult else K.order):
            bad = np.flatnonzero(((left[y] @ I.T) % m != I[K.table[y]].T).any(axis=0))
            if bad.size:
                raise NormalStructureError(f"i is not multiplicative at ({y}, {bad[0]})")
        # crossed-module morphism conditions; for the unit u = i(y),
        # theta(j(y)) = Inn(u) says theta(j(y))(a) u = u a for every a
        gmul, j_img = Gamma.table, np.array(self.ext.kernel_hom.images)
        bad = np.flatnonzero(((right @ thetas[j_img]) % m != left).any(axis=(1, 2)))
        if bad.size:
            raise NormalStructureError(f"theta(j(y)) differs from Inn(i(y)) at y = {bad[0]}")
        # conj[g, y] = y' with j(y') = g j(y) g^-1, or -1 when that lies outside j(K)
        conj = self.ext.kernel_hom.positions()[gmul[gmul[:, j_img], Gamma.inverse[:, None]]]
        for g, y in np.argwhere(conj < 0)[:1]:
            raise NormalStructureError(f"kernel is not normal in Gamma at ({g}, {y})")
        gs = Gamma.gens_index  # theta is a homomorphism: Gamma's generators decide equivariance
        ok = np.array_equal(I[conj[gs]], np.einsum("gab,yb->gya", thetas[gs], I) % m)
        for g in range(0 if ok else Gamma.order):
            bad = np.flatnonzero((I[conj[g]] != (I @ thetas[g].T) % m).any(axis=1))
            if bad.size:
                raise NormalStructureError(f"i is not Gamma-equivariant at ({g}, {bad[0]})")


@dataclass(eq=False)
class CrossedProductResult(Holder):
    spec: CrossedProductSpec
    C: Algebra                   # the crossed product, over R = S^Q
    R: FinCommRing
    r_embed: np.ndarray          # R -> S
    s_basis: np.ndarray          # S-basis over R (columns, S-coords)
    section: list                # Q -> Gamma (v_q)
    phi: list                    # phi[p][q] in K
    a_to_c: np.ndarray           # flat embedding A -> C
    v_units: np.ndarray          # (|Q|, flat rank of C): v_q in row q

    def __post_init__(self):
        hold_arrays(self, self.C.modulus, v_units=np.reshape(self.v_units, (-1, self.C.flat_rank)))

    def s_to_c(self) -> np.ndarray:
        return (self.a_to_c @ self.spec.A.base_embedding()) % self.C.modulus


def crossed_product(spec: CrossedProductSpec, seed: int = 0) -> CrossedProductResult:
    """Build the crossed product algebra directly on the left-A-basis {v_q}.

    C has the R-basis s_d e_i v_q at index (q * rank_A + i) * sigma + d, and
    (x v_p)(y v_q) = x theta_p(y) i(phi(p,q)) v_{pq} for x, y in A.
    """
    spec.validate()
    A, Q, Gamma = spec.A, spec.Q, spec.Gamma
    m, TA = A.modulus, A.flat_tensor
    R, r_embed, s_basis, expand = spec.base_action.fixed_ring()
    s = np.array(spec.ext.section(seed))
    # phi(p, q) = s(p) s(q) s(pq)^-1, in K
    phi = spec.ext.kernel_hom.preimage(Gamma.table[Gamma.table[s[:, None], s],
                                                   Gamma.inverse[s[Q.table]]]).tolist()
    n, nq, sigma = A.rank, Q.order, s_basis.shape[1]
    dimC = nq * n * sigma
    # to_c sends flat A into the v_1 block of C
    to_c = np.kron(np.eye(n, dtype=np.int64), expand)
    # L[x]: s_d e_i at x = i * sigma + d, flat in A
    L = np.einsum("ij,wd->idjw", np.eye(n, dtype=np.int64), s_basis).reshape(n * sigma, -1)
    theta_l = np.einsum("pab,yb->pya", spec.theta[s], L) % m
    left = np.einsum("xa,abc->xcb", L, TA) % m
    right_i = np.einsum("pqb,abc->pqca", spec.i_images[phi], TA) % m
    # prods[p, x, q, y] = (L[x] theta_p(L[y])) i(phi(p, q)), read in the v_1 block
    prods = np.einsum("pqca,pxya->pxqyc", right_i,
                      np.einsum("xcb,pyb->pxyc", left, theta_l) % m) % m
    blocks = np.einsum("za,pxqya->pxqyz", to_c, prods) % m
    # ... and moved to the block of v_{pq}
    at_pq = (Q.table[:, :, None] == np.arange(nq)).astype(np.int64)
    struct = np.einsum("pqr,pxqyz->pxqyrz", at_pq, blocks)
    v_units = np.kron(np.eye(nq, dtype=np.int64), (to_c @ A.flat_unit()) % m)
    C = Algebra(base=R, rank=dimC, structure=struct, unit=v_units[Q.identity],
                name=f"({A.name}) xt {Q.order}")
    C.validate()
    a_to_c = np.kron(np.eye(nq, dtype=np.int64)[:, [Q.identity]], to_c)
    return CrossedProductResult(spec=spec, C=C, R=R, r_embed=r_embed,
                                s_basis=s_basis, section=s.tolist(), phi=phi,
                                a_to_c=a_to_c, v_units=v_units)


# ---------------------------------------------------------------------------
# the endomorphism side: _A End(M_e) and the induced structures

@dataclass(eq=False)
class EndSide(Holder):
    """_A End(C) = M_{|Q|}(A^op) for a crossed product C, with translations.

    ``E`` is the endomorphism algebra over S on the basis f_{p,q,i} sending
    v_q to e_i v_p; ``basis_matrices`` (E flat rank, flat C, flat C) holds the
    C-matrix of E's flat basis element x in row x.  ``to_matrix`` and
    ``from_matrix`` translate between E and C-endomorphism matrices, the
    latter through ``basis_diag``.
    """

    product: CrossedProductResult
    E: Algebra
    basis_matrices: np.ndarray
    basis_diag: ModDiagonalization  # of the flattened basis matrices, as columns

    def __post_init__(self):
        n = self.product.C.flat_rank
        hold_arrays(self, self.E.modulus,
                    basis_matrices=np.reshape(self.basis_matrices, (self.E.flat_rank, n, n)))

    def to_matrix(self, e_vec) -> np.ndarray:
        m = self.E.modulus
        return np.tensordot(np.mod(np.asarray(e_vec, dtype=np.int64), m),
                            self.basis_matrices, axes=1) % m

    def from_matrix(self, mat) -> Optional[np.ndarray]:
        return self.basis_diag.solve(np.asarray(mat, dtype=np.int64).reshape(-1))


def end_algebra_of_crossed_product(res: CrossedProductResult) -> EndSide:
    """Build _A End(C) on the left-A-basis {v_q} of the crossed product."""
    A, C = res.spec.A, res.C
    m, n, nq, TC = A.modulus, A.rank, res.spec.Q.order, C.flat_tensor
    # f_{p,q,i} o f_{q,s,j}: v_s -> e_j e_i v_p, as A acts on the left
    E = matrix_algebra_over(opposite_algebra(A), nq, name=f"End_A({C.name})")
    # C has the R-basis r_u s_d e_k v_l at ((l * n + k) * sigma + d) * rR + u, and
    # f_{p,q,i} sends it to r_u s_d e_k e_i v_p when l = q, to 0 otherwise
    rs = np.einsum("au,bd,abk->duk", res.r_embed, res.s_basis, A.base.structure) % m
    x = np.einsum("kj,duw->kdujw", np.eye(n, dtype=np.int64), rs).reshape(n, *rs.shape[:2], -1)
    e_i = np.kron(np.eye(n, dtype=np.int64), A.base.one())
    prods = np.einsum("kdua,ib,abc->ikduc", x, e_i, A.flat_tensor) % m
    in_c = np.einsum("za,ikdua->ikduz", res.a_to_c, prods) % m
    right_v = np.einsum("pb,abc->pca", res.v_units, TC) % m
    images = np.einsum("pca,ikdua->pikduc", right_v, in_c) % m
    # the flat basis carries S-coordinates: (s_x . f)(b) = s_x f(b)
    left_s = np.einsum("ax,abc->xcb", res.s_to_c(), TC) % m
    scaled = np.einsum("xcz,pikduz->pixckdu", left_s, images) % m
    basis = np.einsum("ql,pixckdu->pqixclkdu", np.eye(nq, dtype=np.int64), scaled).reshape(
        E.flat_rank, C.flat_rank, C.flat_rank)
    return EndSide(product=res, E=E, basis_matrices=basis,
                   basis_diag=diagonalize_mod(basis.reshape(E.flat_rank, -1).T, m))


def end_equivariant_structure(side: EndSide) -> OutRep:
    """tau_{e_Q}: the exact Q-action (f -> x f(x^-1 .)) on _A End(C)."""
    res = side.product
    C = res.C
    m = C.modulus
    taus = []
    for x in res.v_units:
        # x f x^-1 for every basis matrix f, read back in E with one solve
        imgs = (C.left_mul_matrix(x) @ side.basis_matrices) % m @ C.left_mul_matrix(C.inv(x)) % m
        coords = side.basis_diag.solve(imgs.reshape(len(imgs), -1).T)
        if coords is None:
            raise NormalStructureError("tau image escaped End_A (internal error)")
        taus.append(coords)
    rep = OutRep(base_action=res.spec.base_action, A=side.E, lifts=taus, name="tau_endside")
    if not rep.is_equivariant():
        raise NormalStructureError("tau is not an exact action (tpf(ii) violated)")
    return rep


def end_fixed_subalgebra_check(side: EndSide, tau: OutRep) -> dict:
    """tpf(viii): u^op -> (b -> b u) identifies C^op with the tau-fixed part."""
    C = side.product.C
    m, T, flatC = C.modulus, C.flat_tensor, C.flat_rank
    # image of the right-multiplication map, in E-coordinates: column a holds
    # that of b -> b e_a, whose matrix is T[:, a, :].T
    rmap = side.basis_diag.solve(T.transpose(1, 2, 0).reshape(flatC, -1).T)
    if rmap is None:
        return {"right_mult_lands_in_end": False}
    # fixed submodule of tau
    eye = np.eye(side.E.flat_rank, dtype=np.int64)
    fixed = kernel_mod((tau.lifts - eye).reshape(-1, side.E.flat_rank) % m, m)
    fixed_ok = colspans_equal(rmap, fixed, m)
    # multiplicative from C^op: map(x .op y) = map(y x) = map(x) * map(y) in E;
    # the map is linear, so map(e_b e_a) is rmap applied to T[b, a]
    lhs = np.einsum("xc,bac->abx", rmap, T) % m
    rhs = np.einsum("xa,yb,xyz->abz", rmap, rmap, side.E.flat_tensor) % m
    inj = submodule_size(rmap, m) == C.size
    return {"right_mult_lands_in_end": True,
            "image_is_fixed_subalgebra": bool(fixed_ok),
            "multiplicative_from_opposite": bool(np.array_equal(lhs, rhs)),
            "injective": bool(inj)}


def end_entrywise_lift(side: EndSide, w: np.ndarray) -> np.ndarray:
    """The entrywise action of an A-automorphism on M_{|Q|}(A^op) = E."""
    nq = side.product.spec.Q.order
    return np.kron(np.eye(nq * nq, dtype=np.int64), np.asarray(w, dtype=np.int64)) \
        % side.E.modulus


# ---------------------------------------------------------------------------
# Deuring embedding

@dataclass
class DeuringWitness:
    rep: OutRep
    product: CrossedProductResult
    chi_units: np.ndarray        # row q: the unit of C representing chi(q)
    checks: dict


def deuring_embedding_from_splitting(rep: OutRep, ext: GroupExtension,
                                     i_images, theta, seed: int = 0
                                     ) -> tuple[DeuringWitness, OutRep]:
    """C = crossed product over the splitting data; chi(q) = class of v_q.

    Validates that the splitting induces the given normal structure, verifies
    the normalizer/grade/multiplicativity properties of chi, and returns the
    induced exact Q-structure on the endomorphism side.
    """
    A = rep.A
    m = A.modulus
    spec = CrossedProductSpec(A=A, base_action=rep.base_action, ext=ext,
                              i_images=i_images, theta=theta)
    res = crossed_product(spec, seed=seed)      # validates the spec
    for q, g in enumerate(res.section):
        diff = (spec.theta[g] @ inverse_mod(rep.lifts[q], m)) % m
        if find_conjugator(A, diff) is None:
            raise NormalStructureError(
                "splitting induces a different Q-normal structure than the rep")
    checks = chi_checks(rep, res)
    checks["rank_over_R"] = res.C.rank
    checks["expected_rank"] = rep.Q.order * A.rank * res.s_basis.shape[1]
    side = end_algebra_of_crossed_product(res)
    tau = end_equivariant_structure(side)
    checks["end_action_exact"] = tau.is_equivariant()
    # tpf(vii)/Thm fouro: tau agrees with the entrywise lift up to inner
    checks["tau_matches_matrix_structure_mod_inner"] = all(
        find_conjugator(side.E, (t @ inverse_mod(end_entrywise_lift(side, w), m)) % m) is not None
        for t, w in zip(tau.lifts, rep.lifts))
    witness = DeuringWitness(rep=rep, product=res, chi_units=res.v_units, checks=checks)
    return witness, tau


def chi_checks(rep: OutRep, res: CrossedProductResult) -> dict:
    """Does chi(q) = v_q normalize A, act on S by kappa(q), and compose up to
    units of A?  All q (and pairs p, q) at once."""
    A, C, Q = rep.A, res.C, rep.Q
    m, TC, v = C.modulus, C.flat_tensor, res.v_units
    v_inv = np.array([C.inv(x) for x in v])
    # inn[q] = Inn(v_q): a -> (v_q a) v_q^-1
    inn = (np.einsum("qb,abc->qca", v_inv, TC) % m) @ (np.einsum("qa,abc->qcb", v, TC) % m) % m
    a_img_diag = diagonalize_mod(res.a_to_c, m)
    normal = a_img_diag.in_image(np.concatenate(inn @ res.a_to_c % m, axis=1))
    s_img = res.s_to_c()
    grades = np.einsum("cu,quv->qcv", s_img, rep.base_action.matrices) % m
    # v_p v_q v_{pq}^-1 for every pair, read back in A
    vv = np.einsum("pa,qb,abc->pqc", v, v, TC) % m
    w = np.einsum("pqa,pqb,abc->pqc", vv, v_inv[Q.table], TC) % m
    sols = a_img_diag.solve(w.reshape(-1, C.flat_rank).T)
    return {"chi_normalizes_A": bool(normal.all()),
            "chi_has_grades": bool(np.array_equal(inn @ s_img % m, grades)),
            "chi_multiplicative_mod_UA": sols is not None and all(A.is_unit(x) for x in sols.T)}


def semidirect_splitting(rep: OutRep, cap: int = 256):
    """The split extension U(A) x| Q with theta(u,q) = Inn(u) w_q.

    Only valid when the rep is equivariant (the split extension realizes the
    vanishing certificate f = 1); sizes capped by the group-table limit.
    """
    if not rep.is_equivariant():
        raise NormalStructureError("semidirect splitting needs an equivariant rep")
    return _twisted_unit_extension(rep, phi_units=None, cap=cap)


def splitting_from_coboundary(witness: TeichWitness, c: Cochain, cap: int = 256):
    """Splitting data from a certificate dc = xi.

    Corrects the conjugator table f by the central units gamma = c so that the
    corrected factor set satisfies the exact cocycle condition, then builds
    the extension U(A) >-> Gamma ->> Q by the twisted product.
    """
    rep = witness.rep
    from .gmod_cohomology import coboundary
    if not np.array_equal(coboundary(c).table, witness.cocycle.table):
        raise NormalStructureError("certificate does not bound the cocycle")
    A, um, nq = rep.A, witness.unit_mod, rep.Q.order
    m = A.modulus
    # gamma(p, q): the unit of S with coordinates c(p, q), embedded in A
    coords = c.table.reshape(nq * nq, um.module.rank).tolist()
    gamma = np.array([um.unit_vec_of_coords(x) for x in coords]) @ A.base_embedding().T % m
    phi_units = np.einsum("xa,xb,abc->xc", np.reshape(witness.f, (nq * nq, -1)), gamma,
                          A.flat_tensor) % m
    return _twisted_unit_extension(rep, phi_units=phi_units.reshape(nq, nq, -1), cap=cap)


def _twisted_unit_extension(rep: OutRep, phi_units, cap: int):
    """Gamma = U(A) x Q with (u,p)(v,q) = (u w_p(v) phi(p,q), pq), the pair
    (u, q) at u * |Q| + q; phi_units[p, q] is phi(p, q), None for phi = 1.
    Returns the extension, i (the units of A, as rows) and theta(u, q) =
    Inn(u) w_q."""
    A, Q = rep.A, rep.Q
    m, T, nq = A.modulus, A.flat_tensor, Q.order
    # units_group refuses an A past UNITS_CAP; within it, the enumeration
    # stops as soon as more than cap // |Q| units show |U(A)| |Q| > cap
    units = units_group(A) if A.size > UNITS_CAP else _enumerate_units(A, most=cap // nq)
    if units is None:
        raise NormalStructureError("unit extension exceeds the table cap")
    U, K = units.elements, units.group
    nu = K.order
    if phi_units is None:
        phi_units = np.broadcast_to(A.flat_unit(), (nq, nq, A.flat_rank))
    # u w_p(v) phi(p, q) for every u, p, v, q, through right multiplications
    moved = np.einsum("pab,vb->pva", rep.lifts, U) % m
    uw = np.einsum("ua,pvac->upvc", U, np.einsum("pvb,abc->pvac", moved, T) % m) % m
    prods = np.einsum("upva,pqac->upvqc", uw, np.einsum("pqb,abc->pqac", phi_units, T) % m) % m
    mul = units.index_of(prods) * nq + Q.table[:, None, :]
    Gamma = FiniteGroup.from_table(mul.reshape(nu * nq, nu * nq), cap=max(cap, 256))
    kernel_hom = GroupHom.checked(K, Gamma, tuple(u * nq + Q.identity for u in range(nu)))
    quotient_hom = GroupHom.checked(Gamma, Q, tuple(g % nq for g in range(nu * nq)))
    ext = GroupExtension(kernel_hom, quotient_hom)
    ext.validate()
    # Inn(u) = L(u) R(u^-1), u^-1 read off the units group
    inn = (np.einsum("ua,abc->ucb", U, T) % m) @ (np.einsum("ub,abc->uca", U[K.inverse], T) % m)
    theta = np.einsum("uab,qbc->uqac", inn % m, rep.lifts) % m
    return ext, U, theta.reshape(nu * nq, A.flat_rank, A.flat_rank)
