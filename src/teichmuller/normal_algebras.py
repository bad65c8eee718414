"""Q-normal structures on finite algebras, their Teichmuller cocycles, the
structure-transport operations, crossed products, and the constructive
Deuring-embedding direction.

A Q-normal structure is represented concretely by a lift table: one algebra
automorphism matrix w_q per q in Q, semilinear of grade q over the base, with
w_1 = 1 and every defect w_p w_q w_{pq}^{-1} inner.  Out(A) is never
materialized; inner-ness is decided by solving the conjugator equations.

The Teichmuller cocycle is extracted by the crossed-module obstruction
routine ``crossed.obstruction_cocycle``: choose units f(p,q) trivializing the
defects, then

    xi(p,q,r) = f(p,q) f(pq,r) ( w_p(f(q,r)) f(p,qr) )^{-1}

lands in the units of the base ring and is a normalized 3-cocycle whose class
is independent of every choice made.  U(S) is made a Q-module by the shared
builder ``gmod_cohomology.gmodule_of_action``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .crossed import obstruction_cocycle
from .groups import FiniteGroup, GroupExtension, GroupHom
from .gmod_cohomology import Cochain, GModule, gmodule_of_action
from .finrings import (
    Algebra,
    FinCommRing,
    UnitsGroup,
    conjugation_matrix,
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
    _expand_over_subring,
    _module_basis_over_subring,
    _same_ring,
)
from .modlinalg import (ModDiagonalization, colspans_equal, first_nonmultiplicative_pair,
                        invertible_mod, submodule_size)


class NormalStructureError(ValueError):
    pass


@dataclass(frozen=True)
class BaseAction:
    """kappa_Q: an action of Q on the commutative ring S (not nec. injective).

    ``_held`` keeps data derived from the action (its ``fixed_ring`` and
    ``unit_module``); it takes no part in construction, equality, hashing or
    the repr.
    """

    Q: FiniteGroup
    S: FinCommRing
    matrices: tuple
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mat(self, q: int) -> np.ndarray:
        return np.asarray(self.matrices[q], dtype=np.int64)

    def validate(self) -> None:
        m = self.S.modulus
        if len(self.matrices) != self.Q.order:
            raise NormalStructureError("need one matrix per group element")
        ident = self.mat(self.Q.identity)
        if not np.array_equal(ident % m, np.eye(self.S.rank, dtype=np.int64)):
            raise NormalStructureError("identity must act trivially on S")
        for q in range(self.Q.order):
            if not is_ring_morphism_matrix(self.S, self.mat(q) % m):
                raise NormalStructureError(f"kappa({q}) is not a ring automorphism")
        pair = first_nonmultiplicative_pair(self.matrices, self.Q, m)
        if pair is not None:
            raise NormalStructureError(f"kappa is not a homomorphism at {pair}")

    def fixed_ring(self) -> tuple[FinCommRing, np.ndarray, np.ndarray, ModDiagonalization]:
        """(R, r_embed, s_basis, s_diag): the fixed ring R = S^Q, its embedding
        into S, an S-basis over R (columns, S-coords) and the diagonalization
        whose ``solve`` expands S-elements over it; built once and held."""
        held = self._held.get("fixed_ring")
        if held is None:
            R, r_embed = fixed_subring(self.S, [self.mat(q) for q in range(self.Q.order)],
                                       name=f"{self.S.name}^Q")
            s_basis = _module_basis_over_subring(self.S, R, r_embed)
            if s_basis is None:
                raise NormalStructureError("S is not free over the fixed ring R")
            held = self._held["fixed_ring"] = (
                R, r_embed, s_basis, _expand_over_subring(self.S, R, r_embed, s_basis))
        return held


def trivial_base_action(Q: FiniteGroup, S: FinCommRing) -> BaseAction:
    eye = np.eye(S.rank, dtype=np.int64)
    return BaseAction(Q, S, tuple(eye for _ in range(Q.order)))


@dataclass(frozen=True)
class OutRep:
    """A Q-normal structure: lift table q -> automorphism of A of grade q."""

    base_action: BaseAction
    A: Algebra
    lifts: tuple                # q -> flat matrix
    name: str = ""

    @property
    def Q(self) -> FiniteGroup:
        return self.base_action.Q

    def lift(self, q: int) -> np.ndarray:
        return np.asarray(self.lifts[q], dtype=np.int64)

    def defect(self, p: int, q: int) -> np.ndarray:
        """w_p w_q w_{pq}^{-1}, an automorphism over S."""
        m = self.A.modulus
        inv = inverse_mod(self.lift(self.Q.mul[p][q]), m)
        return (self.lift(p) @ self.lift(q) @ inv) % m

    def validate(self, seed: int = 0) -> None:
        Q, A = self.Q, self.A
        m = A.modulus
        self.base_action.validate()
        if len(self.lifts) != Q.order:
            raise NormalStructureError("need one lift per group element")
        if not np.array_equal(self.lift(Q.identity) % m, np.eye(A.flat_rank, dtype=np.int64)):
            raise NormalStructureError("w_1 must be the identity")
        emb = A.base_embedding()
        for q in range(Q.order):
            w = self.lift(q) % m
            if not is_algebra_morphism(A, A, w):
                raise NormalStructureError(f"lift {q} is not an algebra morphism")
            if not invertible_mod(w, m):
                raise NormalStructureError(f"lift {q} is not invertible")
            if not np.array_equal((w @ emb) % m, (emb @ self.base_action.mat(q)) % m):
                raise NormalStructureError(f"lift {q} has the wrong grade on S")
        for p in range(Q.order):
            for q in range(Q.order):
                if find_conjugator(A, self.defect(p, q), seed=seed) is None:
                    raise NormalStructureError(
                        f"defect at ({p},{q}) is not inner: not a Q-normal structure")

    def is_equivariant(self) -> bool:
        return first_nonmultiplicative_pair(self.lifts, self.Q, self.A.modulus) is None


def equivariant_rep(base_action: BaseAction, A: Algebra, lifts, name: str = "") -> OutRep:
    """An OutRep whose lift table is an exact homomorphism."""
    rep = OutRep(base_action=base_action, A=A,
                 lifts=tuple(np.asarray(w, dtype=np.int64) % A.modulus for w in lifts),
                 name=name)
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
        return self.units.element(self.coords_to_elem[tuple(coords)])


def unit_module(base_action: BaseAction) -> UnitModule:
    """U(S) as a Q-module, built once per base action and held by it."""
    held = base_action._held.get("unit_module")
    if held is None:
        S, Q = base_action.S, base_action.Q
        units = units_group(S)
        module, e2c, c2e = gmodule_of_action(
            Q, units.group,
            lambda q, u: units.index_of((base_action.mat(q) @ units.element(u)) % S.modulus))
        held = base_action._held["unit_module"] = UnitModule(
            units=units, module=module, elem_to_coords=tuple(e2c), coords_to_elem=c2e)
    return held


# ---------------------------------------------------------------------------
# Teichmuller cocycle

@dataclass
class TeichWitness:
    rep: OutRep
    unit_mod: UnitModule
    f: list                      # f[p][q]: flat unit of A
    cocycle: Cochain


def teichmuller_cocycle(rep: OutRep, seed: int = 0,
                        unit_mod: Optional[UnitModule] = None) -> TeichWitness:
    """xi in Z^3(Q, U(S)) measuring the failure of the lift table to compose.

    Chooses (via the conjugator solver, seed-dependent) units f(p,q) with
    w_p w_q = Inn(f(p,q)) w_{pq}, normalized f(1,.) = f(.,1) = 1, and returns

        xi(p,q,r) = f(p,q) f(pq,r) ( w_p(f(q,r)) f(p,qr) )^{-1}

    read in U(S) through the base embedding.  Raises when some defect is not
    inner ("not Q-normal").
    """
    Q, A = rep.Q, rep.A
    m = A.modulus
    if unit_mod is None:
        unit_mod = unit_module(rep.base_action)
    one = A.flat_unit()
    f = [[None] * Q.order for _ in range(Q.order)]
    for p in range(Q.order):
        for q in range(Q.order):
            if p == Q.identity or q == Q.identity:
                f[p][q] = one.copy()
                continue
            u = find_conjugator(A, rep.defect(p, q), seed=seed)
            if u is None:
                raise NormalStructureError(
                    f"defect at ({p},{q}) is not inner: not a Q-normal structure")
            f[p][q] = u
    emb_diag = diagonalize_mod(A.base_embedding(), m)
    lifts = [rep.lift(p) for p in range(Q.order)]

    def coords(val):
        s_coords = emb_diag.solve(val)
        if s_coords is None:
            raise NormalStructureError(
                "teichmuller value escaped the base ring (corrupted input)")
        return unit_mod.coords_of_unit_vec(s_coords)

    z = obstruction_cocycle(unit_mod.module, f, lambda p, u: (lifts[p] @ u) % m,
                            A.mul, A.inv, coords)
    return TeichWitness(rep=rep, unit_mod=unit_mod, f=f, cocycle=z)


# ---------------------------------------------------------------------------
# transport of normal structures: opposite, matrix, tensor

def opposite_rep(rep: OutRep) -> OutRep:
    Aop = opposite_algebra(rep.A)
    return OutRep(base_action=rep.base_action, A=Aop, lifts=rep.lifts,
                  name=f"{rep.name}^op" if rep.name else "op")


def matrix_rep(rep: OutRep, k: int) -> OutRep:
    MA = matrix_algebra_over(rep.A, k)
    lifts = tuple(np.kron(np.eye(k * k, dtype=np.int64), rep.lift(q)) % rep.A.modulus
                  for q in range(rep.Q.order))
    return OutRep(base_action=rep.base_action, A=MA, lifts=lifts,
                  name=f"M_{k}({rep.name})" if rep.name else f"M_{k}")


def tensor_flat_element(A: Algebra, B: Algebra, AB: Algebra, a, b) -> np.ndarray:
    """The image of a (x) b in the tensor algebra's flat coordinates."""
    S = A.base
    m = S.modulus
    sR = S.rank
    nA, nB = A.rank, B.rank
    av = np.asarray(a, dtype=np.int64).reshape(nA, sR)
    bv = np.asarray(b, dtype=np.int64).reshape(nB, sR)
    out = np.einsum("iu,jv,uvw->ijw", av, bv, S.structure) % m
    return out.reshape(nA * nB * sR)


def tensor_rep(rep1: OutRep, rep2: OutRep) -> tuple[OutRep, Algebra]:
    """(A1 (x) A2, w1 (x) w2); requires the same base action."""
    b1, b2 = rep1.base_action, rep2.base_action
    if b1 is not b2 and not (np.array_equal(b1.Q.table, b2.Q.table) and _same_ring(b1.S, b2.S)
                             and np.array_equal(np.asarray(b1.matrices) % b1.S.modulus,
                                                np.asarray(b2.matrices) % b2.S.modulus)):
        raise NormalStructureError("tensor needs a common base action")
    A, B = rep1.A, rep2.A
    AB = tensor_algebra(A, B)
    m = AB.modulus
    nA, nB, sR = A.rank, B.rank, A.base.rank
    lifts = []
    one = B.base.one()
    for q in range(rep1.Q.order):
        cols = []
        for i in range(nA):
            for j in range(nB):
                for u in range(sR):
                    # flat basis element (e_i s_u) (x) f_j
                    a = np.zeros(A.flat_rank, dtype=np.int64)
                    a[i * sR + u] = 1
                    b = np.zeros(B.flat_rank, dtype=np.int64)
                    b[j * sR:(j + 1) * sR] = one
                    wa = (rep1.lift(q) @ a) % m
                    wb = (rep2.lift(q) @ b) % m
                    cols.append(tensor_flat_element(A, B, AB, wa, wb))
        lifts.append(np.stack(cols, axis=1) % m)
    out = OutRep(base_action=rep1.base_action, A=AB, lifts=tuple(lifts),
                 name=f"({rep1.name})(x)({rep2.name})")
    return out, AB


def transform_normal(rep: OutRep, op: str, arg=None):
    """Structure transport: op in {"opposite", "matrix", "tensor"}."""
    if op == "opposite":
        return opposite_rep(rep)
    if op == "matrix":
        return matrix_rep(rep, int(arg))
    if op == "tensor":
        out, _ = tensor_rep(rep, arg)
        return out
    raise NormalStructureError(f"unknown transport {op!r}")


# ---------------------------------------------------------------------------
# crossed products

@dataclass(frozen=True)
class CrossedProductSpec:
    """(A, Q, e_Q, theta): extension K >-> Gamma ->> Q with a morphism of
    crossed modules (i, theta): (K, Gamma, j) -> (U(A), Aut(A), inner)."""

    A: Algebra
    base_action: BaseAction
    ext: GroupExtension
    i_images: tuple             # K-element -> flat unit vector of A
    theta: tuple                # Gamma-element -> flat automorphism matrix

    @property
    def Q(self) -> FiniteGroup:
        return self.ext.quotient_group

    @property
    def Gamma(self) -> FiniteGroup:
        return self.ext.middle

    @property
    def K(self) -> FiniteGroup:
        return self.ext.kernel_group

    def theta_mat(self, g: int) -> np.ndarray:
        return np.asarray(self.theta[g], dtype=np.int64)

    def i_vec(self, y: int) -> np.ndarray:
        return np.array(self.i_images[y], dtype=np.int64)

    def validate(self) -> None:
        A, Gamma, K = self.A, self.Gamma, self.K
        m = A.modulus
        self.ext.validate()
        self.base_action.validate()
        emb = A.base_embedding()
        thetas = np.mod(np.asarray(self.theta, dtype=np.int64), m)
        checked = set()          # theta takes few distinct values: check each once
        for g in range(Gamma.order):
            th, q = thetas[g], self.ext.quotient_hom(g)
            if (th.tobytes(), q) in checked:
                continue
            checked.add((th.tobytes(), q))
            if not is_algebra_morphism(A, A, th) or not invertible_mod(th, m):
                raise NormalStructureError(f"theta({g}) is not an algebra automorphism")
            if not np.array_equal((th @ emb) % m, (emb @ self.base_action.mat(q)) % m):
                raise NormalStructureError(f"theta({g}) has the wrong grade")
        pair = first_nonmultiplicative_pair(thetas, Gamma, m)
        if pair is not None:
            raise NormalStructureError(f"theta is not a homomorphism at {pair}")
        # row y of I is i(y); left[y] and right[y] multiply by it on either side
        I = np.array(self.i_images, dtype=np.int64).reshape(K.order, A.flat_rank)
        left = np.einsum("ya,abc->ycb", I, A.flat_tensor) % m
        right = np.einsum("yb,abc->yca", I, A.flat_tensor) % m
        # i(1) = 1 and i(y) i(z) = i(yz) for the generators y make i multiplicative,
        # so i(y) i(y^-1) = 1; only a failure takes the checks that name the first error
        mult = np.array_equal(I[K.identity] % m, A.flat_unit()) and np.array_equal(
            (left[K.gens_index] @ I.T) % m, I[K.table[K.gens_index]].transpose(0, 2, 1))
        if not mult and not all(A.is_unit(v) for v in I):
            raise NormalStructureError("i(K) contains a non-unit")
        if len({row.tobytes() for row in I % m}) != K.order:
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
        into_k = np.full(Gamma.order, -1)
        into_k[j_img] = np.arange(K.order)
        conj = into_k[gmul[gmul[:, j_img], Gamma.inverse[:, None]]]
        for g, y in np.argwhere(conj < 0)[:1]:
            raise NormalStructureError(f"kernel is not normal in Gamma at ({g}, {y})")
        gs = Gamma.gens_index  # theta is a homomorphism: Gamma's generators decide equivariance
        ok = np.array_equal(I[conj[gs]] % m, np.einsum("gab,yb->gya", thetas[gs], I) % m)
        for g in range(0 if ok else Gamma.order):
            bad = np.flatnonzero((I[conj[g]] % m != (I @ thetas[g].T) % m).any(axis=1))
            if bad.size:
                raise NormalStructureError(f"i is not Gamma-equivariant at ({g}, {bad[0]})")

    def kernel_index(self) -> dict:
        """Gamma element j(y) -> y, for the image of K in Gamma."""
        return {self.ext.kernel_hom(y): y for y in range(self.K.order)}


@dataclass
class CrossedProductResult:
    spec: CrossedProductSpec
    C: Algebra                   # the crossed product, over R = S^Q
    R: FinCommRing
    r_embed: np.ndarray          # R -> S
    s_basis: np.ndarray          # S-basis over R (columns, S-coords)
    section: list                # Q -> Gamma (v_q)
    phi: list                    # phi[p][q] in K
    a_to_c: np.ndarray           # flat embedding A -> C
    v_units: list                # flat C-vectors

    def s_to_c(self) -> np.ndarray:
        return (self.a_to_c @ self.spec.A.base_embedding()) % self.C.modulus


def _sde_flat(A: Algebra, s_vec, i: int) -> np.ndarray:
    """Flat A-vector of (s * e_i) for an S-element s."""
    out = np.zeros(A.flat_rank, dtype=np.int64)
    sR = A.base.rank
    out[i * sR:(i + 1) * sR] = np.asarray(s_vec, dtype=np.int64) % A.modulus
    return out


def crossed_product(spec: CrossedProductSpec, seed: int = 0) -> CrossedProductResult:
    """Build the crossed product algebra directly on the left-A-basis {v_q}.

    C has the R-basis s_d e_i v_q at index (q * rank_A + i) * sigma + d, and
    (x v_p)(y v_q) = x theta_p(y) i(phi(p,q)) v_{pq} for x, y in A.
    """
    spec.validate()
    A, Q, Gamma = spec.A, spec.Q, spec.Gamma
    m, TA = A.modulus, A.flat_tensor
    R, r_embed, s_basis, s_diag = spec.base_action.fixed_ring()
    sec = spec.ext.section(seed)
    into_k = spec.kernel_index()
    phi = [[into_k[Gamma.mul[Gamma.mul[sec[p]][sec[q]]][Gamma.inv[sec[Q.mul[p][q]]]]]
            for q in range(Q.order)] for p in range(Q.order)]
    n, sR, nq, sigma = A.rank, A.base.rank, Q.order, s_basis.shape[1]
    dimC = nq * n * sigma
    # S is free over R on s_basis, so expanding over it is a bijection: one
    # solve gives its matrix, and to_c sends flat A into the v_1 block of C
    expand = s_diag.solve(np.eye(sR, dtype=np.int64))
    if expand is None:
        raise NormalStructureError("element escaped the R-span (S not free?)")
    to_c = np.kron(np.eye(n, dtype=np.int64), expand)
    # L[x]: s_d e_i at x = i * sigma + d, flat in A
    L = np.einsum("ij,wd->idjw", np.eye(n, dtype=np.int64), s_basis).reshape(n * sigma, -1)
    theta_l = np.einsum("pab,yb->pya", np.asarray([spec.theta_mat(g) for g in sec]), L) % m
    left = np.einsum("xa,abc->xcb", L, TA) % m
    right_i = np.einsum("pqb,abc->pqca", np.asarray(spec.i_images, dtype=np.int64)[phi], TA) % m
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
                                s_basis=s_basis, section=sec, phi=phi,
                                a_to_c=a_to_c, v_units=list(v_units))


# ---------------------------------------------------------------------------
# the endomorphism side: _A End(M_e) and the induced structures

@dataclass
class EndSide:
    """_A End(C) = M_{|Q|}(A^op) for a crossed product C, with translations.

    ``E`` is the endomorphism algebra over S on the basis f_{p,q,i} sending
    v_q to e_i v_p; ``to_matrix`` and ``from_matrix`` translate between E and
    actual C-endomorphism matrices, the latter through ``basis_diag``.
    """

    product: CrossedProductResult
    E: Algebra
    basis_matrices: list         # E flat basis index -> C-matrix
    basis_diag: ModDiagonalization  # of the flattened basis matrices, as columns

    def to_matrix(self, e_vec) -> np.ndarray:
        m = self.E.modulus
        out = np.zeros_like(self.basis_matrices[0])
        for idx, coef in enumerate(np.asarray(e_vec, dtype=np.int64) % m):
            if coef:
                out = (out + coef * self.basis_matrices[idx]) % m
        return out

    def from_matrix(self, mat) -> Optional[np.ndarray]:
        return self.basis_diag.solve(np.asarray(mat, dtype=np.int64).reshape(-1))


def end_algebra_of_crossed_product(res: CrossedProductResult) -> EndSide:
    """Build _A End(C) on the left-A-basis {v_q} of the crossed product."""
    spec = res.spec
    A, Q = spec.A, spec.Q
    S = A.base
    m = A.modulus
    n = A.rank
    sR = S.rank
    nq = Q.order
    # f_{p,q,i} o f_{q,s,j}: v_s -> e_j e_i v_p, as A acts on the left
    E = matrix_algebra_over(opposite_algebra(A), nq, name=f"End_A({res.C.name})")
    # basis C-matrices: f_{p,q,i}(s_d e_k v_l) = delta_{lq} s_d e_k e_i v_p
    C = res.C
    flatC = C.flat_rank
    basis_matrices = []
    sigma = res.s_basis.shape[1]
    rR = res.R.rank
    s_img = res.s_to_c()
    for p, q, i in itertools.product(range(nq), range(nq), range(n)):
        mat = np.zeros((flatC, flatC), dtype=np.int64)
        for l, k2, d in itertools.product(range(nq), range(n), range(sigma)):
            ci = ((l * n + k2) * sigma + d)
            for u in range(rR):
                src = ci * rR + u
                if l != q:
                    continue
                # source vector = r_u s_d e_k2 v_q  ->  r_u s_d e_k2 e_i v_p
                ru = np.zeros(rR, dtype=np.int64)
                ru[u] = 1
                s_val = S.mul((res.r_embed @ ru) % m, res.s_basis[:, d])
                a_elt = A.mul(_sde_flat(A, s_val, k2), _sde_flat(A, S.one(), i))
                c_elt = (res.a_to_c @ a_elt) % m
                c_elt = C.mul(c_elt, res.v_units[p])
                mat[:, src] = c_elt
        # the flat basis carries S-coordinates: (s_u . f)(b) = s_u f(b)
        for u in range(sR):
            basis_matrices.append((C.left_mul_matrix(s_img[:, u]) @ mat) % m)
    cols = np.stack([bm.reshape(-1) for bm in basis_matrices], axis=1)
    return EndSide(product=res, E=E, basis_matrices=basis_matrices,
                   basis_diag=diagonalize_mod(cols, m))


def end_equivariant_structure(side: EndSide) -> OutRep:
    """tau_{e_Q}: the exact Q-action (f -> x f(x^-1 .)) on _A End(C)."""
    res = side.product
    spec = res.spec
    C, Q = res.C, spec.Q
    m = C.modulus
    taus = []
    for q in range(Q.order):
        x = res.v_units[q]
        Lx = C.left_mul_matrix(x)
        Lxi = C.left_mul_matrix(C.inv(x))
        cols = []
        for idx in range(side.E.flat_rank):
            e_vec = np.zeros(side.E.flat_rank, dtype=np.int64)
            e_vec[idx] = 1
            img = (Lx @ side.to_matrix(e_vec) @ Lxi) % m
            coords = side.from_matrix(img)
            if coords is None:
                raise NormalStructureError("tau image escaped End_A (internal error)")
            cols.append(coords)
        taus.append(np.stack(cols, axis=1) % m)
    rep = OutRep(base_action=spec.base_action, A=side.E, lifts=tuple(taus),
                 name="tau_endside")
    if not rep.is_equivariant():
        raise NormalStructureError("tau is not an exact action (tpf(ii) violated)")
    return rep


def end_fixed_subalgebra_check(side: EndSide, tau: OutRep) -> dict:
    """tpf(viii): u^op -> (b -> b u) identifies C^op with the tau-fixed part."""
    res = side.product
    C = res.C
    m = C.modulus
    flatC = C.flat_rank
    # image of the right-multiplication map, in E-coordinates
    cols = []
    for a in range(flatC):
        ea = np.zeros(flatC, dtype=np.int64)
        ea[a] = 1
        coords = side.from_matrix(C.right_mul_matrix(ea))
        if coords is None:
            return {"right_mult_lands_in_end": False}
        cols.append(coords)
    rmap = np.stack(cols, axis=1) % m
    # fixed submodule of tau
    eye = np.eye(side.E.flat_rank, dtype=np.int64)
    stacked = np.vstack([(tau.lift(q) - eye) % m for q in range(tau.Q.order)])
    fixed = kernel_mod(stacked, m)
    fixed_ok = colspans_equal(rmap, fixed, m)
    # multiplicative from C^op: map(x .op y) = map(y x) = map(x) * map(y) in E
    mult_ok = True
    for a in range(flatC):
        ea = np.zeros(flatC, dtype=np.int64)
        ea[a] = 1
        for b in range(flatC):
            eb = np.zeros(flatC, dtype=np.int64)
            eb[b] = 1
            lhs = side.from_matrix(C.right_mul_matrix(C.mul(eb, ea)))
            rhs = side.E.mul(rmap[:, a], rmap[:, b])
            if lhs is None or not np.array_equal(lhs % m, rhs):
                mult_ok = False
                break
        if not mult_ok:
            break
    inj = submodule_size(rmap, m) == C.size
    return {"right_mult_lands_in_end": True,
            "image_is_fixed_subalgebra": bool(fixed_ok),
            "multiplicative_from_opposite": bool(mult_ok),
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
    chi_units: list              # q -> unit of C representing chi(q)
    checks: dict


def deuring_embedding_from_splitting(rep: OutRep, ext: GroupExtension,
                                     i_images, theta, seed: int = 0
                                     ) -> tuple[DeuringWitness, OutRep]:
    """C = crossed product over the splitting data; chi(q) = class of v_q.

    Validates that the splitting induces the given normal structure, verifies
    the normalizer/grade/multiplicativity properties of chi elementwise, and
    returns the induced exact Q-structure on the endomorphism side.
    """
    A = rep.A
    m = A.modulus
    spec = CrossedProductSpec(A=A, base_action=rep.base_action, ext=ext,
                              i_images=tuple(tuple(int(x) for x in v) for v in i_images),
                              theta=tuple(theta))
    spec.validate()
    Q = spec.Q
    sec = ext.section(seed)
    for q in range(Q.order):
        diff = (spec.theta_mat(sec[q]) @ inverse_mod(rep.lift(q), m)) % m
        if find_conjugator(A, diff) is None:
            raise NormalStructureError(
                "splitting induces a different Q-normal structure than the rep")
    res = crossed_product(spec, seed=seed)
    C = res.C
    checks: dict = {}
    # chi(q) = v_q normalizes A and induces the right grade on S
    a_img_diag = diagonalize_mod(res.a_to_c, m)
    s_img = res.s_to_c()
    normal_ok = True
    grade_ok = True
    for q in range(Q.order):
        v = res.v_units[q]
        vinv = C.inv(v)
        for col in range(res.a_to_c.shape[1]):
            conj = C.mul(C.mul(v, res.a_to_c[:, col]), vinv)
            if a_img_diag.solve(conj) is None:
                normal_ok = False
        for u in range(s_img.shape[1]):
            conj = C.mul(C.mul(v, s_img[:, u]), vinv)
            expect = (s_img @ rep.base_action.mat(q)[:, u]) % m
            if not np.array_equal(conj, expect):
                grade_ok = False
    mult_ok = True
    for p in range(Q.order):
        for q in range(Q.order):
            pq = Q.mul[p][q]
            w = C.mul(C.mul(res.v_units[p], res.v_units[q]), C.inv(res.v_units[pq]))
            sol = a_img_diag.solve(w)
            if sol is None or not A.is_unit(sol):
                mult_ok = False
    checks["chi_normalizes_A"] = bool(normal_ok)
    checks["chi_has_grades"] = bool(grade_ok)
    checks["chi_multiplicative_mod_UA"] = bool(mult_ok)
    checks["rank_over_R"] = C.rank
    checks["expected_rank"] = Q.order * A.rank * res.s_basis.shape[1]
    side = end_algebra_of_crossed_product(res)
    tau = end_equivariant_structure(side)
    checks["end_action_exact"] = tau.is_equivariant()
    # tpf(vii)/Thm fouro: tau agrees with the entrywise lift up to inner
    vii_ok = True
    for q in range(Q.order):
        lift_w = end_entrywise_lift(side, rep.lift(q))
        diff = (tau.lift(q) @ inverse_mod(lift_w, m)) % m
        if find_conjugator(side.E, diff) is None:
            vii_ok = False
    checks["tau_matches_matrix_structure_mod_inner"] = bool(vii_ok)
    witness = DeuringWitness(rep=rep, product=res, chi_units=list(res.v_units),
                             checks=checks)
    return witness, tau


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
    Q = rep.Q
    A = rep.A
    m = A.modulus
    emb = A.base_embedding()
    phi_units = [[None] * Q.order for _ in range(Q.order)]
    for p in range(Q.order):
        for q in range(Q.order):
            gamma_coords = c.table[p, q]
            s_unit = witness.unit_mod.unit_vec_of_coords(tuple(int(x) for x in gamma_coords))
            gamma_in_A = (emb @ s_unit) % m
            phi_units[p][q] = A.mul(witness.f[p][q], gamma_in_A)
    return _twisted_unit_extension(rep, phi_units=phi_units, cap=cap)


def _twisted_unit_extension(rep: OutRep, phi_units, cap: int):
    """Gamma = U(A) x Q with (u,p)(v,q) = (u w_p(v) phi(p,q), pq)."""
    A, Q = rep.A, rep.Q
    m = A.modulus
    units = units_group(A)
    nu = units.group.order
    if nu * Q.order > cap:
        raise NormalStructureError("unit extension exceeds the table cap")
    one = A.flat_unit()

    def phi(p, q):
        if phi_units is None:
            return one
        return phi_units[p][q]

    def idx(u, q):
        return u * Q.order + q

    mul = [[0] * (nu * Q.order) for _ in range(nu * Q.order)]
    for u, p in itertools.product(range(nu), range(Q.order)):
        for v, q in itertools.product(range(nu), range(Q.order)):
            w = A.mul(A.mul(units.element(u), (rep.lift(p) @ units.element(v)) % m),
                      phi(p, q))
            mul[idx(u, p)][idx(v, q)] = idx(units.index_of(w), Q.mul[p][q])
    Gamma = FiniteGroup.from_table(mul, cap=max(cap, 256))
    K = units.group
    kernel_hom = GroupHom.checked(K, Gamma, tuple(idx(u, Q.identity) for u in range(nu)))
    quotient_hom = GroupHom.checked(Gamma, Q, tuple(g % Q.order for g in range(nu * Q.order)))
    ext = GroupExtension(kernel_hom, quotient_hom)
    ext.validate()
    i_images = tuple(tuple(int(x) for x in units.element(u)) for u in range(nu))
    theta = []
    for g in range(nu * Q.order):
        u, q = divmod(g, Q.order)
        theta.append((conjugation_matrix(A, units.element(u)) @ rep.lift(q)) % m)
    return ext, i_images, tuple(theta)
