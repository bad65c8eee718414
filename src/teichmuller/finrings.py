"""Finite commutative rings, finite algebras over them, units, the Azumaya
eta-test, and the Galois-extension criteria.

A FinCommRing is a free Z/m-module of finite rank with commutative unital
structure constants; an Algebra is a free module of finite rank over such a
base ring with a designated central embedding of the base.  Each holds its
structure constants as one read-only int64 array (over Z/m for a ring, over
the base ring for an algebra), and every constructor here (quotient
polynomial rings, products, subrings, matrix, triangular, opposite, tensor, a
ring over a subring) builds that array with an einsum, a slice or a solve;
ring morphisms and the Galois criteria read it the same way.  Elements are
coordinate vectors (numpy int64 mod m); algebra elements are flattened to
length rank * base.rank, where ``flat_tensor`` multiplies them, so that every
linear question (centers, conjugator equations, invertibility, module
comparisons) becomes Z/m linear algebra in modlinalg.

Everything is free over its base by design: that keeps "finitely generated
projective" decidable by basis search and the eta matrix square.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup
from .modlinalg import (
    Holder,
    ModDiagonalization,
    colspans_equal,
    diagonalize_mod,
    enumerate_colspan,
    first_nonmultiplicative_pair,
    held,
    hold_arrays,
    inverse_mod,
    invertible_mod,
    kernel_mod,
    prime_factors,
    submodule_size,
)

UNITS_CAP = 1 << 16
CONJUGATOR_SCAN_CAP = 1 << 16


class RingError(ValueError):
    pass


def _check_int64(m: int, rank: int) -> None:
    """The einsums on a ring or algebra of (flat) rank r over Z/m sum up to
    r^2 products of three residues, as in x y = sum x_a y_b T[a, b, c]; refuse
    m and r when that partial sum can leave int64."""
    if rank * rank * (m - 1) ** 3 >= 1 << 63:
        raise RingError(f"modulus m={m} at rank {rank} overflows int64 arithmetic: "
                        f"rank^2 (m - 1)^3 >= 2^63")


@dataclass(frozen=True, eq=False)
class FinCommRing(Holder):
    """Commutative ring, free of the given rank over Z/modulus.

    ``structure`` is a read-only int64 array of shape (rank, rank, rank):
    structure[i, j] holds the coordinates of e_i e_j.  ``unit`` is a
    read-only array of shape (rank,).  Both are reduced mod m on construction
    from any array-like, after m and the rank are checked against int64
    overflow (``RingError``).  Rings compare by identity.  ``_held`` keeps data
    derived from the ring (``modlinalg.held``: its ``units_group``, ``primes``);
    it takes no part in construction, the repr or the pickle.
    """

    modulus: int
    rank: int
    structure: np.ndarray
    unit: np.ndarray
    name: str = ""
    meta: tuple = ()            # provenance for constructions (frobenius etc.)
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = self.rank
        _check_int64(self.modulus, n)
        hold_arrays(self, self.modulus, structure=np.reshape(self.structure, (n, n, n)),
                    unit=np.reshape(self.unit, n))

    @property
    def size(self) -> int:
        return self.modulus ** self.rank

    @property
    def primes(self) -> list[int]:
        """The primes dividing the modulus, factored once and held."""
        return held(self, "primes", lambda: prime_factors(self.modulus))

    def zero(self) -> np.ndarray:
        return np.zeros(self.rank, dtype=np.int64)

    def one(self) -> np.ndarray:
        return self.unit.copy()

    def add(self, a, b) -> np.ndarray:
        return (np.asarray(a) + np.asarray(b)) % self.modulus

    def mul(self, a, b) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(a, dtype=np.int64),
                         np.asarray(b, dtype=np.int64), self.structure) % self.modulus

    def mul_matrix(self, a) -> np.ndarray:
        """Matrix of multiplication by a."""
        return np.einsum("i,ijk->kj", np.asarray(a, dtype=np.int64), self.structure) % self.modulus

    def is_unit(self, a) -> bool:
        return invertible_mod(self.mul_matrix(a), self.modulus, self.primes)

    def inv(self, a) -> np.ndarray:
        m = inverse_mod(self.mul_matrix(a), self.modulus)
        if m is None:
            raise RingError("element is not a unit")
        return (m @ self.one()) % self.modulus

    def power(self, a, k: int) -> np.ndarray:
        r = self.one()
        a = np.asarray(a, dtype=np.int64)
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def elements(self):
        for tup in itertools.product(range(self.modulus), repeat=self.rank):
            yield np.array(tup, dtype=np.int64)

    def validate(self) -> None:
        m, n = self.modulus, self.rank
        t = self.structure
        if not np.array_equal(t, t.transpose(1, 0, 2)):
            raise RingError("structure constants are not commutative")
        left = np.einsum("ijc,ckl->ijkl", t, t) % m
        right = np.einsum("jkc,icl->ijkl", t, t) % m
        if not np.array_equal(left, right):
            raise RingError("structure constants are not associative")
        one = self.one()
        prod = np.einsum("i,ijk->jk", one, t) % m
        if not np.array_equal(prod, np.eye(n, dtype=np.int64)):
            raise RingError("unit does not act as identity")


def _same_ring(R: FinCommRing, S: FinCommRing) -> bool:
    """Equal modulus and structure constants: the same ring on the same basis."""
    return R is S or (R.modulus == S.modulus and np.array_equal(R.structure, S.structure)
                      and np.array_equal(R.unit, S.unit))


# ---------------------------------------------------------------------------
# ring constructors

def zmod(m: int) -> FinCommRing:
    if m < 2:
        raise RingError("modulus must be >= 2")
    return FinCommRing(modulus=m, rank=1, structure=1, unit=1, name=f"Z/{m}")


def _poly_rem(a: list, b: list, p: int) -> list:
    """a mod b over Z/p, for coefficient lists from the constant term up; the
    remainder has no zero leading coefficient (0 is [])."""
    a, inv = [x % p for x in a], pow(b[-1], -1, p)
    while True:
        while a and not a[-1]:
            a.pop()
        if len(a) < len(b):
            return a
        c, s = a[-1] * inv % p, len(a) - len(b)
        for i, y in enumerate(b):
            a[s + i] = (a[s + i] - c * y) % p


def _is_irreducible(f: list, p: int) -> bool:
    """Rabin's test for monic f of degree k >= 2 over Z/p: x^(p^k) = x mod f,
    and x^(p^(k/q)) - x is prime to f for every prime q dividing k."""
    def mul(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _poly_rem(out, f, p)

    k, h, frob = len(f) - 1, [0, 1], []
    for _ in range(k):                  # h = x^(p^j) mod f, by square and multiply
        r, e = [1], p
        while e:
            r, h, e = mul(r, h) if e & 1 else r, mul(h, h), e >> 1
        h = r
        frob.append(h)
    for q in prime_factors(k):
        d = frob[k // q - 1] + [0, 0]
        d[1] -= 1                       # x^(p^(k/q)) - x, then Euclid with f
        a, b = f, _poly_rem(d, f, p)
        while b:
            a, b = b, _poly_rem(a, b, p)
        if len(a) > 1:
            return False
    return h == [0, 1]


def _find_irreducible(p: int, k: int) -> list[int]:
    """Lexicographically first monic irreducible of degree k over Z/p, last
    coefficient fastest; for k >= 2 the constant term is nonzero."""
    if k == 1:
        return [0, 1]
    for n in range(p ** (k - 1), p ** k):
        # the base-p digits of n, most significant first: one candidate at a
        # time, so memory does not grow with p
        f = [n // p ** (k - 1 - i) % p for i in range(k)] + [1]
        if _is_irreducible(f, p):
            return f
    raise RingError("no irreducible polynomial found")


def _quotient_poly_ring(m: int, p: int, f: list[int], name: str) -> FinCommRing:
    """(Z/m)[x]/(f) for monic f on the basis 1, x, .., x^(k-1): e_i e_j = x^(i+j),
    read off the first column of the (i+j)-th power of f's companion matrix."""
    k = len(f) - 1
    companion = np.eye(k, k, -1, dtype=np.int64)      # x x^j = x^(j+1) for j < k - 1
    companion[:, -1] = -np.asarray(f[:k], dtype=np.int64)
    powers = [np.eye(k, dtype=np.int64)[0]]
    for _ in range(2 * k - 2):
        powers.append((companion @ powers[-1]) % m)
    ij = np.add.outer(np.arange(k), np.arange(k))
    return FinCommRing(modulus=m, rank=k, structure=np.array(powers)[ij], unit=powers[0],
                       name=name, meta=(("poly", tuple(f)), ("char_p", p)))


def gf(p: int, k: int) -> FinCommRing:
    """The field F_{p^k} as (Z/p)[x]/(f) with a fixed irreducible f."""
    f = _find_irreducible(p, k)
    if k == 1:
        return zmod(p)
    return _quotient_poly_ring(p, p, f, f"GF({p}^{k})")


def galois_ring(p: int, n: int, k: int) -> FinCommRing:
    """GR(p^n, k) = (Z/p^n)[x]/(f) for a monic lift f of an irreducible mod p."""
    f = _find_irreducible(p, k)
    if k == 1:
        return zmod(p ** n)
    return _quotient_poly_ring(p ** n, p, f, f"GR({p}^{n},{k})")


def product_ring(factors: Sequence[FinCommRing], name: str = "") -> FinCommRing:
    ms = {r.modulus for r in factors}
    if len(ms) != 1:
        raise RingError("product factors must share the characteristic modulus")
    rank = sum(r.rank for r in factors)
    struct, unit = np.zeros((rank, rank, rank), dtype=np.int64), np.zeros(rank, dtype=np.int64)
    o = 0
    for r in factors:  # each factor's constants fill its diagonal block
        block = slice(o, o + r.rank)
        struct[block, block, block], unit[block] = r.structure, r.unit
        o += r.rank
    return FinCommRing(modulus=ms.pop(), rank=rank, structure=struct, unit=unit,
                       name=name or " x ".join(r.name or "?" for r in factors))


def map_ring(points: int, k: FinCommRing, name: str = "") -> FinCommRing:
    """Functions from a finite set to k, with pointwise operations."""
    return product_ring([k] * points, name=name or f"Map({points} pts, {k.name})")


# ---------------------------------------------------------------------------
# ring maps and subrings

def is_ring_morphism_matrix(R: FinCommRing, mat: np.ndarray) -> bool:
    """Is the Z/m-linear map given by mat a unital ring endomorphism of R?"""
    return _is_morphism(R.structure, R.unit, R.structure, R.unit, mat, R.modulus)


def _is_morphism(source_tensor, source_unit, target_tensor, target_unit, mat, m: int) -> bool:
    """Does the Z/m-linear map mat send the source unit to the target unit and
    every product of two source basis elements to the product of their images?"""
    mat = np.asarray(mat, dtype=np.int64)
    if not np.array_equal((mat @ source_unit) % m, target_unit):
        return False
    lhs = np.einsum("abc,dc->abd", source_tensor, mat) % m
    # sum_(u, v) mat[u, a] mat[v, b] T[u, v, w], one mat at a time: O(N^4), not
    # the O(N^5) of one three-operand einsum; each partial sum has N terms
    rhs = np.einsum("ua,uvw->avw", mat, target_tensor) % m
    rhs = np.einsum("vb,avw->abw", mat, rhs) % m
    return np.array_equal(lhs, rhs)


def frobenius_lift(R: FinCommRing) -> np.ndarray:
    """The Frobenius generator of Aut for gf/galois_ring constructions.

    Determined as the unique ring automorphism sending the adjoined root to
    the root congruent to its p-th power mod p.
    """
    meta = dict(R.meta)
    if "poly" not in meta:
        raise RingError("frobenius_lift needs a gf/galois_ring construction")
    p = meta["char_p"]
    f = list(meta["poly"])
    m = R.modulus
    x = np.zeros(R.rank, dtype=np.int64)
    x[1] = 1
    target_mod_p = R.power(x, p) % p
    # roots of f in R
    root = None
    for cand in R.elements():
        acc = R.zero()
        powc = R.one()
        for coef in f:
            acc = R.add(acc, (coef * powc) % m)
            powc = R.mul(powc, cand)
        if not acc.any():
            if np.array_equal(cand % p, target_mod_p):
                root = cand
                break
    if root is None:
        raise RingError("no Frobenius root found")
    # matrix: powers of the root
    cols = []
    powc = R.one()
    for i in range(R.rank):
        cols.append(powc.copy())
        powc = R.mul(powc, root)
    mat = np.stack(cols, axis=1) % m
    if not is_ring_morphism_matrix(R, mat):
        raise RingError("frobenius candidate is not a ring morphism")
    return mat


def subring_from_module(T: FinCommRing, gens: np.ndarray, name: str = "") -> tuple[FinCommRing, np.ndarray]:
    """The subring spanned (as a Z/m-module) by the given generator columns.

    The span must be multiplicatively closed, contain 1, and be FREE as a
    Z/m-module; returns the subring and the embedding matrix (columns = images
    of the subring basis).
    """
    m = T.modulus
    dg = diagonalize_mod(gens, m, want_inverses=True)
    # colspan(gens) = { U^-1 y : y_i in d_i (Z/m) }: the span is free exactly
    # when every nonzero direction is a full (Z/m) line (d_i a unit)
    basis = []
    for i in range(len(dg.d)):
        g = gcd(int(dg.d[i]), m)
        if g == m:
            continue  # zero direction
        if g != 1:
            raise RingError("submodule is not free over Z/m")
        basis.append(dg.U_inv[:, i] % m)
    if not basis:
        raise RingError("empty subring")
    B = np.stack(basis, axis=1)
    rank = B.shape[1]
    bd = diagonalize_mod(B, m)
    one_coords = bd.solve(T.one())
    if one_coords is None:
        raise RingError("subring does not contain 1")
    prods = np.einsum("ai,bj,abk->kij", B, B, T.structure).reshape(T.rank, rank * rank) % m
    coords = bd.solve(prods)
    if coords is None:
        raise RingError("module is not closed under multiplication")
    S = FinCommRing(modulus=m, rank=rank, structure=coords.T, unit=one_coords,
                    name=name or f"subring of {T.name}")
    S.validate()
    return S, B


def fixed_subring(T: FinCommRing, mats: Sequence[np.ndarray], name: str = "") -> tuple[FinCommRing, np.ndarray]:
    """The subring of elements fixed by all the given automorphism matrices."""
    return subring_from_module(T, _fixed_module(T, mats), name=name or f"{T.name}^fix")


def _fixed_module(T: FinCommRing, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Generators (columns) of the elements fixed by every matrix, then 1."""
    m, eye = T.modulus, np.eye(T.rank, dtype=np.int64)
    gens = kernel_mod(np.vstack([(np.asarray(a, dtype=np.int64) - eye) % m for a in mats]),
                      m) if len(mats) else eye
    return np.hstack([gens, T.one()[:, None]])


# ---------------------------------------------------------------------------
# algebras over a base ring

@dataclass(frozen=True, eq=False)
class Algebra(Holder):
    """Associative unital algebra, free over ``base`` with central embedding.

    ``structure`` is a read-only int64 array of shape (rank, rank, rank,
    base.rank): structure[i, j, c] holds the base coordinates of the
    coefficient of e_c in e_i e_j.  ``unit`` is a read-only array of shape
    (rank, base.rank).  Both are reduced mod m on construction from any
    array-like, after m and the flat rank are checked against int64 overflow
    (``RingError``).  Flat coordinates interleave: index i * base.rank + u is
    basis element e_i with base coordinate u.  Algebras compare by identity.
    ``_held`` keeps ``flat_tensor`` and ``base_diag``, outside the repr and pickle.
    """

    base: FinCommRing
    rank: int
    structure: np.ndarray
    unit: np.ndarray
    name: str = ""
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n, s = self.rank, self.base.rank
        _check_int64(self.modulus, n * s)
        hold_arrays(self, self.modulus, structure=np.reshape(self.structure, (n, n, n, s)),
                    unit=np.reshape(self.unit, (n, s)))

    @property
    def modulus(self) -> int:
        return self.base.modulus

    @property
    def flat_rank(self) -> int:
        return self.rank * self.base.rank

    @property
    def flat_tensor(self) -> np.ndarray:
        """T[a, b, c] with (xy)_c = sum x_a y_b T[a,b,c] in flat coordinates, held."""
        def build():
            N, m = self.flat_rank, self.modulus
            if N > 192:
                raise RingError(f"flat multiplication tensor too large ({N})")
            bt = self.base.structure
            # (e_i s_u)(e_j s_v) = sum_c (s_u s_v structure[i, j, c]) e_c
            coef = np.einsum("ijck,akw->ijcaw", self.structure, bt) % m
            return np.einsum("uva,ijcaw->iujvcw", bt, coef).reshape(N, N, N) % m
        return held(self, "flat_tensor", build)

    def flat_unit(self) -> np.ndarray:
        return self.unit.flatten()

    def zero(self) -> np.ndarray:
        return np.zeros(self.flat_rank, dtype=np.int64)

    def mul(self, x, y) -> np.ndarray:
        return np.einsum("a,b,abc->c", np.asarray(x, dtype=np.int64),
                         np.asarray(y, dtype=np.int64), self.flat_tensor) % self.modulus

    def left_mul_matrix(self, x) -> np.ndarray:
        return np.einsum("a,abc->cb", np.asarray(x, dtype=np.int64), self.flat_tensor) % self.modulus

    def right_mul_matrix(self, x) -> np.ndarray:
        return np.einsum("b,abc->ca", np.asarray(x, dtype=np.int64), self.flat_tensor) % self.modulus

    def is_unit(self, x) -> bool:
        return invertible_mod(self.left_mul_matrix(x), self.modulus, self.base.primes)

    def inv(self, x) -> np.ndarray:
        m = inverse_mod(self.left_mul_matrix(x), self.modulus)
        if m is None:
            raise RingError("element is not invertible")
        return (m @ self.flat_unit()) % self.modulus

    def power(self, x, k: int) -> np.ndarray:
        r = self.flat_unit()
        x = np.asarray(x, dtype=np.int64)
        if k < 0:
            x = self.inv(x)
            k = -k
        while k:
            if k & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            k >>= 1
        return r

    def base_embedding(self) -> np.ndarray:
        """Matrix (flat_rank x base.rank): s |-> s * 1_A."""
        return np.einsum("iv,uvw->iwu", self.unit, self.base.structure).reshape(
            self.flat_rank, self.base.rank) % self.modulus

    @property
    def base_diag(self) -> ModDiagonalization:
        """``base_embedding`` diagonalized once: its ``solve`` reads s * 1_A back as s."""
        return held(self, "base_diag",
                    lambda: diagonalize_mod(self.base_embedding(), self.modulus))

    def scalar_mul(self, s_elt, x) -> np.ndarray:
        """Multiply by a base-ring element (coordinatewise on blocks)."""
        x = np.asarray(x, dtype=np.int64).reshape(self.rank, self.base.rank)
        return np.einsum("u,iv,uvw->iw", np.asarray(s_elt, dtype=np.int64), x,
                         self.base.structure).reshape(-1) % self.modulus

    def elements(self):
        m = self.modulus
        for tup in itertools.product(range(m), repeat=self.flat_rank):
            yield np.array(tup, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.modulus ** self.flat_rank

    def validate(self) -> None:
        m = self.modulus
        T = self.flat_tensor
        N = self.flat_rank
        for i in range(N):  # chunked: N^4 at once is too large for big algebras
            left = np.einsum("jc,ckl->jkl", T[i], T) % m
            right = np.einsum("jkc,cl->jkl", T, T[i]) % m
            if not np.array_equal(left, right):
                raise RingError("algebra structure constants are not associative")
        one = self.flat_unit()
        if not np.array_equal(np.einsum("i,ijk->jk", one, T) % m, np.eye(self.flat_rank, dtype=np.int64)):
            raise RingError("unit fails on the left")
        if not np.array_equal(np.einsum("j,ijk->ik", one, T) % m, np.eye(self.flat_rank, dtype=np.int64)):
            raise RingError("unit fails on the right")
        # base embedding is central
        emb = self.base_embedding()
        for u in range(self.base.rank):
            x = emb[:, u]
            if not np.array_equal(self.left_mul_matrix(x), self.right_mul_matrix(x)):
                raise RingError("base ring is not central in the algebra")


def ring_as_algebra(R: FinCommRing) -> Algebra:
    """R as an algebra over itself (rank 1, basis element 1)."""
    one = R.one()
    return Algebra(base=R, rank=1, structure=one, unit=one, name=R.name)


def matrix_algebra_over(A: Algebra, k: int, name: str = "") -> Algebra:
    """M_k(A): basis E_pq (x) e_i at (p*k + q)*rank_A + i."""
    n, I = k * k * A.rank, np.eye(k, dtype=np.int64)
    # E_pq E_rs = delta_qr E_ps
    struct = np.einsum("pt,qr,su,ijcw->pqirsjtucw", I, I, I, A.structure)
    unit = np.einsum("pq,cw->pqcw", I, A.unit)
    return Algebra(base=A.base, rank=n, structure=struct, unit=unit,
                   name=name or f"M_{k}({A.name})")


def matrix_algebra(S: FinCommRing, k: int, name: str = "") -> Algebra:
    """M_k(S) on the matrix-unit basis E_{pq}, index p*k+q."""
    return matrix_algebra_over(ring_as_algebra(S), k, name=name)


def upper_triangular_algebra(S: FinCommRing, name: str = "") -> Algebra:
    """2x2 upper triangular matrices over S, basis (E11, E12, E22)."""
    M2, keep = matrix_algebra(S, 2), [0, 1, 3]
    return Algebra(base=S, rank=3, structure=M2.structure[np.ix_(keep, keep, keep)],
                   unit=M2.unit[keep], name=name or f"UT_2({S.name})")


def opposite_algebra(A: Algebra) -> Algebra:
    return Algebra(base=A.base, rank=A.rank, structure=A.structure.transpose(1, 0, 2, 3),
                   unit=A.unit, name=f"{A.name}^op" if A.name else "op")


def tensor_algebra(A: Algebra, B: Algebra, name: str = "") -> Algebra:
    """A tensor B over the common base ring, basis e_i (x) f_j at i*rank_B + j."""
    if not _same_ring(A.base, B.base):
        raise RingError("tensor factors must share the base ring")
    S = A.base
    n = A.rank * B.rank
    struct = np.einsum("ikau,jlbv,uvw->ijklabw", A.structure, B.structure, S.structure)
    unit = np.einsum("au,bv,uvw->abw", A.unit, B.unit, S.structure)
    return Algebra(base=S, rank=n, structure=struct, unit=unit,
                   name=name or f"({A.name})(x)({B.name})")


def commutative_ring_as_algebra_over(T: FinCommRing, S: FinCommRing,
                                     embed: np.ndarray, name: str = "") -> tuple[Algebra, np.ndarray]:
    """T as an S-algebra via the embedding matrix (columns = images of S-basis).

    Requires T free over S; returns the algebra and the chosen T-basis matrix
    (columns are the basis elements of T over S, in T-coordinates).
    """
    B = _module_basis_over_subring(T, S, embed)
    if B is None:
        raise RingError("T is not free over S")
    d = B.shape[1]
    # columns: every basis product B_i B_j, then 1
    prods = np.einsum("ai,bj,abk->kij", B, B, T.structure).reshape(T.rank, d * d) % T.modulus
    coords = _expand_over_subring(T, S, embed, B).solve(
        np.hstack([prods, T.one().reshape(-1, 1)]))
    if coords is None:
        raise RingError("basis products escaped the span")
    coords = coords.T.reshape(d * d + 1, d, S.rank)
    alg = Algebra(base=S, rank=d, structure=coords[:-1], unit=coords[-1],
                  name=name or f"{T.name} over {S.name}")
    return alg, B


def _module_basis_over_subring(T: FinCommRing, S: FinCommRing, embed: np.ndarray):
    """Greedy S-basis of T (free module test); columns in T-coordinates, or
    None when T is not free over S.  Each span is diagonalized once."""
    basis, span_diag = [], None
    for cand in T.elements():
        if not cand.any() or (span_diag is not None and span_diag.solve(cand) is not None):
            continue
        # accept only if the extended span is still free of the right size
        diag = diagonalize_mod(_span_columns(T, embed, np.stack(basis + [cand], axis=1)), T.modulus)
        if diag.image_size() == S.size ** (len(basis) + 1):
            basis.append(cand)
            span_diag = diag
            if diag.image_size() == T.size:
                return np.stack(basis, axis=1)
    return None


def _expand_over_subring(T: FinCommRing, S: FinCommRing, embed: np.ndarray,
                         B: np.ndarray) -> ModDiagonalization:
    """The diagonalization of the columns s_u B_i (index i * S.rank + u): its
    ``solve`` gives the S-coordinates of T-elements over the B-columns, those
    of B_i at [i * S.rank:(i + 1) * S.rank]."""
    return diagonalize_mod(_span_columns(T, embed, B), T.modulus, want_inverses=False)


def _span_columns(T: FinCommRing, embed: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The columns s_u B_i for the S-basis images s_u (columns of embed), at
    index i * S.rank + u."""
    return np.einsum("au,bi,abk->kiu", embed, B, T.structure).reshape(
        T.rank, B.shape[1] * embed.shape[1]) % T.modulus


# ---------------------------------------------------------------------------
# units

@dataclass(frozen=True, eq=False)
class UnitsGroup(Holder):
    """The units of a finite ring or algebra with their multiplication table.

    ``elements`` is a read-only int64 array of shape (|U|, flat rank) whose
    row i is the unit of index i, the units in lexicographic order;
    ``lookup`` maps the mixed-radix code of a flat vector (``_codes``) to its
    unit index, -1 off the units.
    """

    group: FiniteGroup
    modulus: int
    elements: np.ndarray
    lookup: np.ndarray

    def __post_init__(self):
        hold_arrays(self, self.modulus, elements=np.reshape(self.elements, (self.group.order, -1)))
        hold_arrays(self, lookup=np.ravel(self.lookup))

    def index_of(self, vecs):
        """The unit index of a flat vector, or the array of indices of a stack
        of them (along the last axis); RingError when one is not a unit."""
        idx = self.lookup[_codes(vecs, self.modulus)]
        if (idx < 0).any():
            raise RingError("element is not a recorded unit")
        return int(idx) if idx.ndim == 0 else idx


def units_group(A, cap: int = UNITS_CAP) -> UnitsGroup:
    """All invertible elements with their multiplication table.

    A FinCommRing computes its units group once and holds it, so every caller
    shares the same group and none may write into it.
    """
    if A.size > cap:
        raise RingError(f"unit enumeration capped at {cap} elements")
    if isinstance(A, FinCommRing):
        return held(A, "units_group", lambda: _enumerate_units(ring_as_algebra(A)))
    return _enumerate_units(A)


def _codes(vecs, m: int) -> np.ndarray:
    """Mixed-radix codes mod m of flat vectors (the last axis), the first
    coordinate most significant: lexicographic order is code order."""
    v = np.mod(np.asarray(vecs, dtype=np.int64), m)
    return v @ m ** np.arange(v.shape[-1] - 1, -1, -1)


def _enumerate_units(A: "Algebra", most: Optional[int] = None) -> Optional[UnitsGroup]:
    """The units group of A; None as soon as more than ``most`` units are found."""
    m = A.modulus
    found = []
    for x in A.elements():
        if A.is_unit(x):
            found.append(x)
            if most is not None and len(found) > most:
                return None
    U = np.array(found, dtype=np.int64).reshape(-1, A.flat_rank)
    lookup = np.full(A.size, -1)
    lookup[_codes(U, m)] = np.arange(len(U))
    # every product in one batch, looked up by code (-1, refused, off the units)
    mul = lookup[_codes(np.einsum("ia,jb,abc->ijc", U, U, A.flat_tensor), m)]
    G = FiniteGroup.from_table(mul, cap=max(len(U), 256))
    return UnitsGroup(group=G, modulus=m, elements=U, lookup=lookup)


# ---------------------------------------------------------------------------
# conjugators (inner automorphism witnesses)

def conjugation_matrix(A: Algebra, u) -> np.ndarray:
    """Matrix of x -> u x u^-1."""
    return (A.left_mul_matrix(u) @ A.right_mul_matrix(A.inv(u))) % A.modulus


def find_conjugator(A: Algebra, alpha: np.ndarray, seed: int = 0,
                    scan_cap: int = CONJUGATOR_SCAN_CAP) -> Optional[np.ndarray]:
    """A unit u with u a u^-1 = alpha(a) for all a, or None.

    Solves the linear system u a - alpha(a) u = 0 over Z/m, then scans the
    solution space (seed-rotated deterministic order) for an invertible u.
    """
    m, T = A.modulus, A.flat_tensor
    # rows (j, c): (u e_j - alpha(e_j) u)_c for the flat basis elements e_j
    system = (T.transpose(1, 2, 0) - np.einsum("aj,axc->jcx", np.mod(alpha, m), T)).reshape(
        -1, A.flat_rank) % m
    diag = diagonalize_mod(system, m, want_U=False)
    K = diag.kernel()
    if K.size == 0:
        return None
    size = diag.kernel_size()
    if size > scan_cap:
        raise RingError(f"conjugator solution space of size {size} exceeds scan cap")
    sols = enumerate_colspan(K, m, cap=scan_cap)
    n = len(sols)
    for step in range(n):
        cand = np.array(sols[(step + seed * 7919) % n], dtype=np.int64)
        if cand.any() and A.is_unit(cand):
            return cand
    return None


# ---------------------------------------------------------------------------
# Azumaya test

def center_submodule(A: Algebra) -> np.ndarray:
    """Generators (columns) of the center as a Z/m-submodule."""
    T = A.flat_tensor
    # rows (j, c): (e_j x - x e_j)_c
    return kernel_mod((T - T.transpose(1, 0, 2)).transpose(0, 2, 1).reshape(-1, A.flat_rank),
                      A.modulus)


def is_azumaya(A: Algebra) -> tuple[bool, dict]:
    """eta-test: eta(a (x) b)c = acb bijective and base = center.

    Returns (verdict, diagnostic) with the two sub-verdicts recorded.
    """
    S = A.base
    m = A.modulus
    n = A.rank
    sR = S.rank
    st = A.structure
    # center == embedded base?
    emb = A.base_embedding()
    cen = center_submodule(A)
    center_ok = colspans_equal(cen, emb, m)
    # eta over S, flattened: size (n^2 * sR)^2
    # column (i,j): endo c -> e_i c e_j; rows indexed by End_S(A) basis (k,l, u)
    bt = S.structure
    # trip[i, l, j, k] in S-coords: coefficient of e_k in e_i e_l e_j
    # first e_i e_l = sum_a st[i,l,a] e_a ; then e_a e_j = sum_k st[a,j,k] e_k
    trip = np.einsum("ilau,ajkv,uvw->iljkw", st, st, bt) % m
    # eta matrix over S: rows (k,l), cols (i,j); flatten S-linearly by
    # replacing each S-entry with its regular-representation block
    Nbig = n * n * sR
    eta = np.einsum("iljku,uvw->klwijv", trip, bt).reshape(Nbig, Nbig) % m
    eta_ok = invertible_mod(eta, m)
    return bool(center_ok and eta_ok), {"center_is_base": bool(center_ok),
                                        "eta_bijective": bool(eta_ok),
                                        "eta_size": int(Nbig)}


# ---------------------------------------------------------------------------
# Galois extensions of commutative rings

class FixedRingMismatch(RingError):
    pass


@dataclass(frozen=True, eq=False)
class GaloisData(Holder):
    """A candidate Galois extension T|S with explicit group action.

    ``action`` is a read-only int64 array of shape (|N|, rank T, rank T), the
    ring-automorphism matrix of T by which each element of N acts, and
    ``embed`` one of shape (rank T, rank S) with the images of the S-basis as
    columns; both are reduced mod m on construction.
    """

    T: FinCommRing
    S: FinCommRing
    embed: np.ndarray
    N: FiniteGroup
    action: np.ndarray

    def __post_init__(self):
        T = self.T
        hold_arrays(self, T.modulus, action=np.reshape(self.action, (-1, T.rank, T.rank)),
                    embed=np.reshape(self.embed, (T.rank, self.S.rank)))

    def validate_action(self) -> None:
        for n, mat in enumerate(self.action):
            if not is_ring_morphism_matrix(self.T, mat):
                raise RingError(f"action of element {n} is not a ring morphism")
        if not np.array_equal(self.action[self.N.identity], np.eye(self.T.rank, dtype=np.int64)):
            raise RingError("identity must act trivially")
        pair = first_nonmultiplicative_pair(self.action, self.N, self.T.modulus)
        if pair is not None:
            raise RingError(f"action is not a group homomorphism at {pair}")


def idempotents(R: FinCommRing) -> list[np.ndarray]:
    return [x for x in R.elements() if np.array_equal(R.mul(x, x), x)]


def primitive_idempotents(R: FinCommRing) -> list[np.ndarray]:
    """Atoms of the idempotent order e <= f iff ef = e (nonzero ones)."""
    idem = [e for e in idempotents(R) if e.any()]

    def leq(e, f):
        return np.array_equal(R.mul(e, f), e)

    return [e for e in idem if all(not (leq(f, e) and not np.array_equal(e, f)) for f in idem)]


def _corner_unit_test(R: FinCommRing, e: np.ndarray):
    """The test of whether x*e is a unit of the corner ring e*R, as a function of x."""
    m = R.modulus
    corner = R.mul_matrix(e)                  # its columns span eR
    size = submodule_size(corner, m)
    return lambda x: submodule_size((R.mul_matrix(R.mul(x, e)) @ corner) % m, m) == size


def galois_check(data: GaloisData) -> dict:
    """Per-criterion report for the Galois-extension criteria.

    (i)  T free over S and j: T^tN -> End_S(T) bijective;
    (iii) for every maximal ideal (primitive idempotent corner) and every
          n != 1 some s in S with s - n.s a unit in the corner;
    (iv) h: T (x)_S T -> Map(N, T) bijective;
    (ii) Galois-descent spot-check on T and on T^tN.

    Raises FixedRingMismatch when S is not the fixed ring of the action.
    """
    T, S, N = data.T, data.S, data.N
    m = T.modulus
    data.validate_action()
    fixed = _fixed_module(T, data.action)
    if not colspans_equal(fixed, data.embed, m):
        raise FixedRingMismatch("S is not the fixed ring of the action")
    report: dict = {}

    # --- (i) freeness + twisted group ring isomorphism ---------------------
    basis = _module_basis_over_subring(T, S, data.embed)
    free_ok = basis is not None
    j_ok = False
    if free_ok:
        d = basis.shape[1]
        if d == N.order:
            # j(s_u b_i . n): t -> s_u b_i (n.t), on the basis b_l of T over S;
            # imgs[:, i, n, u, l] is its value at b_l
            acted = np.einsum("nab,bl->anl", data.action, basis) % m
            lead = _span_columns(T, data.embed, basis).reshape(T.rank, d, S.rank)
            imgs = np.einsum("aiu,bnl,abk->kinul", lead, acted, T.structure) % m
            x = _expand_over_subring(T, S, data.embed, basis).solve(imgs.reshape(T.rank, -1))
            if x is not None:
                # rows: the End_S(T) basis (k <- l) times S-coordinates v
                sR = S.rank
                J = x.reshape(d, sR, d, N.order, sR, d).transpose(0, 5, 1, 2, 3, 4)
                j_ok = invertible_mod(J.reshape(d * d * sR, d * N.order * sR), m)
    report["criterion_i"] = bool(free_ok and j_ok)
    report["free_over_S"] = bool(free_ok)

    # --- (iii) ideal separation: for each maximal ideal (primitive corner)
    # and n != 1 some t in T with t - n.t a unit in the corner ---------------
    failures = []
    for e in primitive_idempotents(T):
        unit_in_corner = _corner_unit_test(T, e)
        failures += [(tuple(int(x) for x in e), n) for n in range(N.order)
                     if n != N.identity and not any(
                         unit_in_corner((t - data.action[n] @ t) % m) for t in T.elements())]
    report["criterion_iii"] = not failures
    report["criterion_iii_failures"] = failures

    # --- (iv) h: T (x)_S T -> Map(N, T) -------------------------------------
    report["criterion_iv"] = _bijective_on_balanced_tensor(*_criterion_iv_system(data), m)
    # --- (ii) spot check ----------------------------------------------------
    report["criterion_ii_spot"] = _descent_spot_check(data)
    report["all_equivalent_criteria_agree"] = (
        report["criterion_i"] == report["criterion_iii"] == report["criterion_iv"])
    return report


def _bijective_on_balanced_tensor(W: np.ndarray, rel: np.ndarray, m: int) -> bool:
    """Does W, given on the free module over the generators x (x) y, kill the
    balancing relations rel and induce a bijection from the tensor product
    (the free module over rel) onto (Z/m)^(rows of W)?"""
    if ((W @ rel) % m).any():
        return False
    tensor_size = m ** W.shape[1] // submodule_size(rel, m)
    return bool(submodule_size(W, m) == m ** W.shape[0] == tensor_size)


def _balancing_relations(data: GaloisData, s_right: np.ndarray) -> np.ndarray:
    """The relations (s_u e_i) (x) f_j - e_i (x) (s_u f_j) for the S-basis
    images s_u, at column (u, i, j), on the free module over the e_i (x) f_j
    (row (i, j)); s_right[:, u, j] holds s_u f_j over the f."""
    T, m, k = data.T, data.T.modulus, s_right.shape[0]
    s_mul = np.einsum("cu,cia->uai", data.embed, T.structure) % m   # s_u e_i
    return (np.einsum("uai,bj->abuij", s_mul, np.eye(k, dtype=np.int64))
            - np.einsum("ai,buj->abuij", np.eye(T.rank, dtype=np.int64), s_right)
            ).reshape(T.rank * k, -1) % m


def _criterion_iv_system(data: GaloisData) -> tuple[np.ndarray, np.ndarray]:
    """h: e_i (x) e_j -> (n -> e_i n(e_j)), rows (n, T-coordinates) and
    columns (i, j), with the balancing relations of T (x)_S T."""
    T, m, acts = data.T, data.T.modulus, data.action
    H = np.einsum("nbj,ibk->nkij", acts, T.structure).reshape(len(acts) * T.rank, -1) % m
    return H, _balancing_relations(data, np.einsum("cu,cjb->buj", data.embed, T.structure) % m)


def _descent_spot_check(data: GaloisData) -> bool:
    """w: T (x)_S M^N -> M bijective for M = T and M = T^tN."""
    systems = [_descent_on_module(data, *mats) for mats in _descent_modules(data)]
    return all(system is not None and _bijective_on_balanced_tensor(*system, data.T.modulus)
               for system in systems)


def _descent_modules(data: GaloisData) -> list[tuple[np.ndarray, np.ndarray]]:
    """(t_mats, n_mats) for M = T and M = T^tN: t_mats[a] multiplies M by the
    basis element e_a of T, n_mats[n] is the action of n on M.  T^tN is free
    of rank |N| over T, block k holding t e_k, with n.(t e_k) = (n.t) e_{nk}."""
    T, N, acts = data.T, data.N, data.action
    t_mats, eye_n = T.structure.transpose(0, 2, 1), np.eye(N.order, dtype=np.int64)
    dim = N.order * T.rank
    # moves[n][nk, k] = 1: block k goes to block nk
    moves = eye_n[N.table].transpose(0, 2, 1)
    return [(t_mats, acts),
            (np.einsum("xy,akb->axkyb", eye_n, t_mats).reshape(-1, dim, dim),
             np.einsum("nxy,nab->nxayb", moves, acts).reshape(-1, dim, dim))]


def _descent_on_module(data: GaloisData, t_mats: np.ndarray, n_mats: np.ndarray):
    """(W, rel) for w: T (x)_S M^N -> M, e_i (x) f_j -> e_i f_j, on the
    generators f_j of M^N, with its balancing relations; None when M^N is 0
    or not an S-module over the f_j."""
    m, dim = data.T.modulus, n_mats.shape[1]
    fixed = kernel_mod(np.vstack(n_mats - np.eye(dim, dtype=np.int64)) % m, m)
    if fixed.size == 0:
        return None
    W = np.einsum("iab,bj->aij", t_mats, fixed).reshape(dim, -1) % m
    # s_u f_j, still N-fixed, over the f_j
    s_mats = np.einsum("au,axy->uxy", data.embed, t_mats)
    coords = diagonalize_mod(fixed, m).solve(
        np.einsum("uab,bj->auj", s_mats, fixed).reshape(dim, -1) % m)
    if coords is None:
        return None
    return W, _balancing_relations(data, coords.reshape(fixed.shape[1], data.S.rank, -1))


def galois_from_free_action(points: int, perms: Sequence[Sequence[int]],
                            N: FiniteGroup, k: FinCommRing) -> GaloisData:
    """Map(P, k) over Map(P/N, k) for a free N-action on a finite set P.

    ``perms[n]`` is the permutation of the points by the group element n.
    """
    P = np.asarray(perms)
    if (np.delete(P, N.identity, axis=0) == np.arange(points)).any():
        raise RingError("action is not free")
    T, eye_k = map_ring(points, k), np.eye(k.rank, dtype=np.int64)
    # (n.f)(p) = f(n^-1 p): a permutation of the point blocks
    mats = np.kron(np.eye(points, dtype=np.int64)[P[N.inverse]], eye_k)
    # S is spanned by the orbit-constant functions with value s_u, orbits
    # named by their least point
    least = P.min(axis=0)
    gens = np.kron(least[:, None] == np.array(sorted(set(least.tolist()))), eye_k)
    S, embed = subring_from_module(T, gens, name=f"Map(P/N, {k.name})")
    return GaloisData(T=T, S=S, embed=embed, N=N, action=mats)


# ---------------------------------------------------------------------------
# algebra maps

def is_algebra_morphism(source: Algebra, target: Algebra, mat) -> bool:
    """Multiplicative and unital in flat coordinates."""
    return _is_morphism(source.flat_tensor, source.flat_unit(), target.flat_tensor,
                        target.flat_unit(), mat, target.modulus)
