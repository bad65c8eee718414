"""Linear algebra over Z/m for composite m, vectorized with numpy.

Z/m is a principal ideal ring, so every matrix is equivalent to a diagonal one
by invertible transformations; that diagonalization drives kernels, solving,
image membership, cokernel presentations and invertibility tests.  All
matrices are int64 numpy arrays with entries reduced into [0, m).

The elimination in ``diagonalize_mod`` scans the active block once per pivot
(an argmin over a narrow gcd array) and updates only the rows and columns the
pivot changes, so a sparse system costs about its nonzeros plus that scan.
Blocks up to 20 x 20 (``SMALL_CELLS``) take the same steps on Python ints,
where a numpy call costs more than its arithmetic, and so does the F_p walk
of ``pivot_columns_mod_p`` up to ``SMALL_CELLS`` cells.  Dot products of
r-term vectors reach r * (m - 1)^2, so ``diagonalize_mod`` refuses m with
max(rows, cols) * (m - 1)^2 >= 2^63 before any work.

Solving runs all right-hand sides of one system at once.  The one
elimination over a prime field F_p, ``pivot_columns_mod_p``, decides
``invertible_mod`` (units of rings, lifts of an outer action) and picks the
generators of the free resolutions in gmod_cohomology.

This is the one exact linear-algebra layer of the package: cohomology, finite
rings and the finite abelian presentations of exact_linalg all run on it.

The package's one size limit is here too: ``check_cells`` refuses a step,
before it allocates, whose cells exceed ``CELL_BUDGET``: n^2 for a group
table, |G| |Z^1(N, M)| |Gamma| for an Aut_G(e), (ring size)^2 for a unit
table, (span size) rows for a span, N^3 for a flat tensor, rows x cols for
a matrix.

It also holds the package's one way to hold derived data: ``hold_arrays`` sets
read-only int64 array fields (reduced mod m when asked), and ``held`` is the
memo over an owner's ``_held`` dict that every owner (groups, homomorphisms,
modules, ambients, rings, actions, Aut_G(e)) keeps its built data in.  Every
such owner, and every dataclass with read-only array fields, is a ``Holder``,
whose pickle leaves the held data out and whose unpickling holds the arrays
read-only again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

import numpy as np

# diagonalize_mod eliminates on Python ints when A, U and V each have at most
# this many cells, and pivot_columns_mod_p when A has at most this many
SMALL_CELLS = 400

# cells of any one table, matrix or enumeration a step builds or eliminates
CELL_BUDGET = 1 << 22


class BudgetExceeded(ValueError):
    pass


def check_cells(what: str, cells: int) -> None:
    """Refuse the step ``what``, before it allocates, when its cells exceed ``CELL_BUDGET``."""
    if cells > CELL_BUDGET:
        raise BudgetExceeded(f"{what}: {cells} cells exceed CELL_BUDGET = {CELL_BUDGET}")


def as_mod_array(data, m: int) -> np.ndarray:
    a = np.array(data, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.mod(a, m)


class Holder:
    """Base of the owners of held data.  A pickle carries an owner's ``_held``
    dict empty, so held data never rides along and an unpickled owner rebuilds
    it, read-only; unpickling runs a ``__post_init__`` again, as it holds the
    arrays read-only and numpy's pickle does not keep the flag."""

    def __getstate__(self):
        return {name: {} if name == "_held" else value for name, value in self.__dict__.items()}

    def __setstate__(self, state):
        self.__dict__.update(state)
        if hasattr(self, "__post_init__"):
            self.__post_init__()


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def hold_arrays(owner, m: int | None = None, **values) -> None:
    """Set each named field of owner, a frozen dataclass or not, to a read-only
    int64 copy of its array-like value, reduced mod m unless m is None.  A
    value that is already a read-only int64 array is shared when m is None."""
    for name, value in values.items():
        shared = (m is None and isinstance(value, np.ndarray) and value.dtype == np.int64
                  and not value.flags.writeable)
        arr = value if shared else np.array(value, dtype=np.int64)
        if m is not None:
            arr %= m
        object.__setattr__(owner, name, _read_only(arr))


def held(owner, key, build):
    """owner._held[key], built by build() on first use and held from then on.

    An ndarray value, or an ndarray member of a tuple value, is held
    read-only, as every later caller shares it.  Keys are content keys
    (names, degrees, moduli, table entries), never object identities."""
    value = owner._held.get(key)
    if value is None:
        value = owner._held[key] = build()
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                _read_only(arr)
    return value


def unit_multiplier(a: int, m: int) -> int:
    """A unit u mod m with u*a = gcd(a, m) mod m."""
    a %= m
    g = gcd(a, m)
    if g == 0:
        return 1
    b = a // g
    step = m // g
    # b + k*step is coprime to m for some k < number of prime divisors of m
    cand = b
    while gcd(cand, m) != 1:
        cand += step
    return pow(cand, -1, m)


@dataclass
class ModDiagonalization:
    """U @ A @ V = diag(d) over Z/m, with U, V invertible mod m.

    Each d_i divides m and d_i | d_{i+1}; trailing entries may equal 0 (=m).
    """

    m: int
    rows: int
    cols: int
    d: np.ndarray          # length min(rows, cols), entries divide m
    U: np.ndarray
    V: np.ndarray
    U_inv: np.ndarray
    row_divisors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # (U A V)[i, i] = row_divisors[i]: U b lies in the image of the
        # diagonal exactly when each entry i is a multiple of it (m past the
        # diagonal)
        m = self.m
        self.row_divisors = np.array([gcd(x, m) for x in self.d.tolist()]
                                     + [m] * (self.rows - len(self.d)), dtype=np.int64)

    def solve(self, b: np.ndarray):
        """One x with A x = b (mod m), or None; for a 2-D b, one column of x
        per column of b, and None when any column has no solution."""
        m = self.m
        y = (self.U @ np.mod(b, m)) % m
        q, rem = np.divmod(y, self.row_divisors if y.ndim == 1 else self.row_divisors[:, None])
        if rem.any():
            return None
        # the diagonal entries divide m, so x_i = y_i / d_i (0 where d_i = m)
        x = np.zeros((self.cols,) + y.shape[1:], dtype=np.int64)
        r = len(self.d)
        x[:r] = q[:r]
        return (self.V @ x) % m

    def in_image(self, B: np.ndarray) -> np.ndarray:
        """For each column of B, whether it lies in the column span of A."""
        y = (self.U @ np.mod(B, self.m)) % self.m
        return ~(y % self.row_divisors[:, None]).any(axis=0)

    def kernel(self) -> np.ndarray:
        """Columns generate {x : A x = 0 mod m}."""
        m = self.m
        cols = []
        for j in range(self.cols):
            dj = int(self.d[j]) if j < len(self.d) else 0
            scale = m // gcd(dj, m)
            if scale % m == 0:
                continue
            v = (self.V[:, j] * scale) % m
            if v.any():
                cols.append(v)
        if not cols:
            return np.zeros((self.cols, 0), dtype=np.int64)
        return np.stack(cols, axis=1)

    def kernel_size(self) -> int:
        """|{x : A x = 0 mod m}|: gcd(d_j, m) values of each coordinate of V^-1 x,
        m past the diagonal."""
        return self.m ** (self.cols - len(self.d)) * prod(gcd(int(d), self.m) for d in self.d)

    def image_size(self) -> int:
        return prod(self.m // gcd(int(d), self.m) for d in self.d)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and all(gcd(int(x), self.m) == 1 for x in self.d)


def diagonalize_mod(A, m: int, want_inverses: bool = False,
                    want_U: bool = True) -> ModDiagonalization:
    """Diagonalize A over Z/m by invertible row/column operations.

    Pivots are chosen by smallest gcd with m (then position), every diagonal
    entry is normalized to a divisor of m, and the divisibility chain
    gcd(d_i, m) | gcd(d_{i+1}, m) is enforced, so the diagonal is canonical.
    U tracking can be disabled to halve the work on large one-sided problems
    (kernels need only V); ``want_inverses`` also tracks U^-1.

    Cost: one argmin per pivot over the active block of a gcd array in the
    narrowest unsigned type that holds m; each clear then touches only the
    lines with a nonzero quotient, where the pivot's line is nonzero, and
    recomputes gcds only there.  That is about 25 numpy calls a pivot, so
    when A, U and V each have at most ``SMALL_CELLS`` cells the same steps
    run on Python ints, with the same d, U, V and U^-1.  On a 2 vCPU Xeon
    the Python loop wins on every square block up to 40 x 40 dense over
    Z/9 and 48 x 48 over Z/2 or sparse, so the crossover is past
    ``SMALL_CELLS``; on tall blocks numpy catches up from about 24 x 1.  Raises
    ValueError when max(rows, cols) * (m - 1)^2 >= 2^63, which bounds the
    int64 dot products here, in ``solve`` and in ``inverse_mod``.
    """
    shape = np.shape(A)
    if max(shape, default=0) * (m - 1) ** 2 >= 1 << 63:
        raise ValueError(f"modulus m={m} overflows int64 arithmetic on a matrix of shape {shape}")
    A = as_mod_array(A, m)
    if max(A.shape) ** 2 <= SMALL_CELLS:
        return _diagonalize_lists(A, m, want_inverses, want_U)
    return _diagonalize_arrays(A, m, want_inverses, want_U)


def _diagonalize_arrays(A: np.ndarray, m: int, want_inverses: bool,
                        want_U: bool) -> ModDiagonalization:
    """The elimination of ``diagonalize_mod`` on numpy arrays, for a reduced A it owns."""
    rows, cols = A.shape
    U = np.eye(rows, dtype=np.int64) if want_U else None
    V = np.eye(cols, dtype=np.int64)
    Ui = np.eye(rows, dtype=np.int64) if want_inverses and want_U else None
    # gcd(0, m) = m and every nonzero entry has gcd < m, so zeros never win
    # the argmin and a block minimum of m means the block is zero
    gcds = np.gcd(A, m).astype(np.min_scalar_type(m))
    # a column operation is a row operation on the transposes: each side is
    # (matrix, gcds, transform, inverse transform) seen from its rows
    sides = ((A, gcds, U, Ui), (A.T, gcds.T, V.T, None))
    t = 0
    limit = min(rows, cols)
    while t < limit:
        sub = gcds[t:, t:]
        pivot = divmod(int(np.argmin(sub)), cols - t)
        if sub[pivot] == m:
            break
        for (X, gx, T, Ti), p in zip(sides, pivot):
            p += t
            if p != t:
                X[[t, p]] = X[[p, t]]
                gx[[t, p]] = gx[[p, t]]
                if T is not None:
                    T[[t, p]] = T[[p, t]]
                if Ti is not None:
                    Ti[:, [t, p]] = Ti[:, [p, t]]
        # normalize pivot to gcd(pivot, m); a unit leaves the row's gcds as they are
        u = unit_multiplier(int(A[t, t]), m)
        if u != 1:
            A[t] = (A[t] * u) % m
            if want_U:
                U[t] = (U[t] * u) % m
            if Ui is not None:
                Ui[:, t] = (Ui[:, t] * pow(u, -1, m)) % m
        g = int(A[t, t])
        # clear column t below, then row t to the right: only the lines with a
        # nonzero quotient change, and only where the pivot's line is nonzero
        for X, gx, T, Ti in sides:
            q = X[t + 1:, t] // g
            r = q.nonzero()[0]
            if r.size:
                q = q[r]
                r += t + 1
                block = r[:, None], X[t].nonzero()[0]
                new = (X[block] - q[:, None] * X[t, block[1]]) % m
                X[block] = new
                gx[block] = np.gcd(new, m)
                if T is not None:
                    T[r] = (T[r] - q[:, None] * T[t]) % m
                if Ti is not None:
                    Ti[:, t] = (Ti[:, t] + Ti[:, r] @ q) % m
        if A[t + 1:, t].any() or A[t, t + 1:].any():
            continue  # residues left a smaller pivot candidate
        # divisibility of the remaining block by the pivot gcd (always true for g = 1)
        if g > 1 and t + 1 < limit:
            rem = gcds[t + 1:, t + 1:] % g
            if rem.any():
                bad = t + 1 + int(np.argmax(rem.any(axis=1)))
                A[t] = (A[t] + A[bad]) % m
                gcds[t, t:] = np.gcd(A[t, t:], m)
                if want_U:
                    U[t] = (U[t] + U[bad]) % m
                if Ui is not None:
                    Ui[:, bad] = (Ui[:, bad] - Ui[:, t]) % m
                continue
        t += 1
    d = np.array([gcd(int(A[i, i]), m) for i in range(limit)], dtype=np.int64)
    return ModDiagonalization(m=m, rows=rows, cols=cols, d=d,
                              U=U % m if want_U else None, V=V % m,
                              U_inv=Ui % m if Ui is not None else None)


def _eye(n: int, m: int) -> list:
    """The n x n identity over Z/m as lists of Python ints."""
    eye = [[0] * n for _ in range(n)]
    for i in range(n):
        eye[i][i] = 1 % m
    return eye


def _diagonalize_lists(A: np.ndarray, m: int, want_inverses: bool,
                       want_U: bool) -> ModDiagonalization:
    """``_diagonalize_arrays`` step for step on lists of Python ints.  V and
    U^-1 are held transposed, so that every operation on a transform is one
    on its rows, and each clear runs over the nonzeros of the pivot's lines."""
    rows, cols = A.shape
    a = A.tolist()
    U = _eye(rows, m) if want_U else None
    Vt = _eye(cols, m)
    Uit = _eye(rows, m) if want_inverses and want_U else None
    t, limit = 0, min(rows, cols)
    while t < limit:
        # least gcd with m, then row-major position, over the nonzero entries
        # (each has gcd < m)
        g, p, q = m, -1, -1
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                if row[j] and (h := gcd(row[j], m)) < g:
                    g, p, q = h, i, j
                    if g == 1:
                        break
            if g == 1:
                break
        if p < 0:
            break
        if p != t:
            a[t], a[p] = a[p], a[t]
            if U is not None:
                U[t], U[p] = U[p], U[t]
            if Uit is not None:
                Uit[t], Uit[p] = Uit[p], Uit[t]
        if q != t:
            for row in a:
                row[t], row[q] = row[q], row[t]
            Vt[t], Vt[q] = Vt[q], Vt[t]
        # normalize the pivot to g = gcd(pivot, m)
        piv = a[t]
        if piv[t] != g:
            u = unit_multiplier(piv[t], m)
            a[t] = piv = [x * u % m for x in piv]
            if U is not None:
                U[t] = [x * u % m for x in U[t]]
            if Uit is not None:
                w = pow(u, -1, m)
                Uit[t] = [x * w % m for x in Uit[t]]
        # clear column t below by row operations: A[i] -= c A[t], U[i] -= c U[t],
        # U^-1[:, t] += c U^-1[:, i]; a residue below g is left in A[i, t]
        line = [(j, x) for j, x in enumerate(piv) if x]
        uline = None if U is None else [(j, x) for j, x in enumerate(U[t]) if x]
        for i in range(t + 1, rows):
            row = a[i]
            c = row[t] // g
            if c:
                for j, x in line:
                    row[j] = (row[j] - c * x) % m
                if U is not None:
                    urow = U[i]
                    for j, x in uline:
                        urow[j] = (urow[j] - c * x) % m
                if Uit is not None:
                    Uit[t] = [(x + c * y) % m for x, y in zip(Uit[t], Uit[i])]
        # then row t to the right by column operations: A[:, j] -= c A[:, t],
        # V[:, j] -= c V[:, t]
        steps = [(j, piv[j] // g) for j in range(t + 1, cols) if piv[j] >= g]
        if steps:
            for row in a:
                x = row[t]
                if x:
                    for j, c in steps:
                        row[j] = (row[j] - c * x) % m
            vline = [(k, x) for k, x in enumerate(Vt[t]) if x]
            for j, c in steps:
                vrow = Vt[j]
                for k, x in vline:
                    vrow[k] = (vrow[k] - c * x) % m
        # residues left a smaller pivot candidate, or the remaining block is
        # not divisible by the pivot: A[t] += A[bad], U[t] += U[bad],
        # U^-1[:, bad] -= U^-1[:, t] (no residues and no repair for g = 1)
        if g > 1:
            if any(piv[t + 1:]) or any(a[i][t] for i in range(t + 1, rows)):
                continue
            bad = next((i for i in range(t + 1, rows) if any(x % g for x in a[i][t + 1:])), -1)
            if bad >= 0:
                a[t] = [(x + y) % m for x, y in zip(piv, a[bad])]
                if U is not None:
                    U[t] = [(x + y) % m for x, y in zip(U[t], U[bad])]
                if Uit is not None:
                    Uit[bad] = [(x - y) % m for x, y in zip(Uit[bad], Uit[t])]
                continue
        t += 1
    d = np.array([gcd(a[i][i], m) for i in range(limit)], dtype=np.int64)
    return ModDiagonalization(
        m=m, rows=rows, cols=cols, d=d,
        U=None if U is None else np.array(U, dtype=np.int64).reshape(rows, rows),
        V=np.array(Vt, dtype=np.int64).reshape(cols, cols).T,
        U_inv=None if Uit is None else np.array(Uit, dtype=np.int64).reshape(rows, rows).T)


def kernel_mod(A, m: int) -> np.ndarray:
    """Columns generating the kernel of A over Z/m."""
    return diagonalize_mod(A, m, want_U=False).kernel()


def solve_matrix_mod(diag: ModDiagonalization, B) -> np.ndarray | None:
    """Solve A X = B columnwise against a stored diagonalization; None when
    some column has no solution."""
    return diag.solve(as_mod_array(np.asarray(B, dtype=np.int64), diag.m))


@dataclass
class ModCokernel:
    """Presentation of (Z/m)^n / colspan(R) with canonical coordinates.

    ``factors`` lists the nontrivial cyclic orders in ascending divisibility;
    coords(v) gives the class of v; lift(c) returns a representative.
    """

    m: int
    n: int
    factors: tuple[int, ...]
    _U: np.ndarray
    _U_inv: np.ndarray
    _keep: tuple[int, ...]

    @property
    def order(self) -> int:
        return prod(self.factors)

    def coords(self, v):
        """The class of v as a tuple; for a 2-D v, the classes of its columns
        as the columns of an array."""
        v = np.mod(np.asarray(v, dtype=np.int64), self.m)
        y = (self._U @ v) % self.m
        if y.ndim == 2:
            return y[list(self._keep)] % np.array(self.factors, dtype=np.int64)[:, None]
        return tuple(int(y[i]) % f for i, f in zip(self._keep, self.factors))

    def lift(self, coords) -> np.ndarray:
        y = np.zeros(self.n, dtype=np.int64)
        for i, c in zip(self._keep, coords):
            y[i] = c
        return (self._U_inv @ y) % self.m


def cokernel_mod(R, m: int, n: int | None = None) -> ModCokernel:
    """Structure of (Z/m)^n modulo the column span of R."""
    R = as_mod_array(np.asarray(R, dtype=np.int64), m)
    if R.ndim == 1:
        R = R.reshape(-1, 1)
    rows = R.shape[0] if n is None else n
    if R.shape[0] != rows:
        raise ValueError("ambient dimension mismatch")
    diag = diagonalize_mod(R, m, want_inverses=True)
    full = [gcd(int(diag.d[i]), m) if i < len(diag.d) else m for i in range(rows)]
    keep = tuple(i for i in range(rows) if full[i] != 1)
    factors = tuple(full[i] for i in keep)
    return ModCokernel(m=m, n=rows, factors=factors, _U=diag.U, _U_inv=diag.U_inv, _keep=keep)


def prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def pivot_columns_mod_p(A, p: int) -> list[int]:
    """The columns of A that, taken in order, each leave the span of the
    columns before them over F_p: the pivot columns of a row echelon form.

    One walk over the columns, in which each pivot row is scaled to a leading
    1 and clears its column from the rows below it, so every product stays
    below p^2.  Up to ``SMALL_CELLS`` cells the walk runs on Python ints,
    where a numpy call costs more than its arithmetic; above that on numpy
    rows, and for p = 2 on rows packed eight columns to a byte and cleared by
    XOR.  Raises ValueError when (p - 1)^2 >= 2^63.
    """
    if (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"prime p={p} overflows int64 arithmetic")
    A = np.mod(np.asarray(A, dtype=np.int64), p)
    if A.size <= SMALL_CELLS:
        return _pivot_columns_lists(A.tolist(), p)
    return _pivot_columns_arrays(A, p)


def _pivot_columns_arrays(A: np.ndarray, p: int) -> list[int]:
    """The walk of ``pivot_columns_mod_p`` on numpy rows, for a reduced A it owns."""
    rows, cols = A.shape
    if p == 2:
        A = np.packbits(A.astype(np.uint8), axis=1, bitorder="little")
    piv: list[int] = []
    for col in range(cols):
        t = len(piv)
        if t == rows:
            break
        b = col >> 3 if p == 2 else col         # the byte or the entry of col in a row
        on = np.flatnonzero(A[t:, b] & np.uint8(1 << (col & 7)) if p == 2 else A[t:, b])
        if on.size == 0:
            continue
        s = t + int(on[0])
        if s != t:
            A[[t, s]] = A[[s, t]]
        # the row swapped down to s is zero in this column
        below = t + on[1:]
        if p == 2:
            A[below, b:] ^= A[t, b:]
        else:
            A[t, b:] = (A[t, b:] * pow(int(A[t, b]), -1, p)) % p
            A[below, b:] = (A[below, b:] - np.outer(A[below, b], A[t, b:])) % p
        piv.append(col)
    return piv


def _pivot_columns_lists(a: list, p: int) -> list[int]:
    """The walk of ``pivot_columns_mod_p`` on the rows of A, lists of Python
    ints reduced mod p, which it owns.  Rows above the next pivot and columns
    left of the next one are never read again, so a clear writes only the
    entries right of its column, and the pivot row is scaled only there."""
    rows = len(a)
    piv: list[int] = []
    for col in range(len(a[0]) if a else 0):
        t = len(piv)
        if t == rows:
            break
        on = [i for i in range(t, rows) if a[i][col]]
        if not on:
            continue
        s = on[0]
        a[t], a[s] = a[s], a[t]
        # the row swapped down to s is zero in this column
        w = pow(a[t][col], -1, p)
        right = [x * w % p for x in a[t][col + 1:]]
        for i in on[1:] if right else ():
            row, c = a[i], a[i][col]
            row[col + 1:] = [(x - c * y) % p for x, y in zip(row[col + 1:], right)]
        piv.append(col)
    return piv


def invertible_mod(A, m: int, primes=None) -> bool:
    """Is A invertible over Z/m?  ``primes``, those dividing m, saves factoring m."""
    A = np.asarray(A, dtype=np.int64)
    if A.shape[0] != A.shape[1]:
        return False
    # invertible over Z/m iff invertible over F_p for every prime p | m
    return all(len(pivot_columns_mod_p(A, p)) == len(A) for p in primes or prime_factors(m))


def inverse_mod(A, m: int) -> np.ndarray | None:
    """Matrix inverse over Z/m, or None when singular."""
    A = as_mod_array(A, m)
    diag = diagonalize_mod(A, m, want_inverses=False)
    if not diag.is_invertible():
        return None
    # A = U^-1 D V^-1  =>  A^-1 = V D^-1 U
    dinv = np.array([pow(int(x), -1, m) if m > 1 else 0 for x in diag.d], dtype=np.int64)
    return (diag.V @ ((dinv[:, None] * diag.U) % m)) % m


def first_nonmultiplicative_pair(mats, G, m) -> tuple[int, int] | None:
    """The first (g, h), in row-major order, with mats[g] @ mats[h] != mats[gh] mod m.

    ``mats`` holds one square matrix per element of the FiniteGroup G; None means g -> mats[g]
    is multiplicative.  ``m`` may also be a column of moduli, one per row.  The g at which every
    h passes are closed under products, so ``G.gens`` decide it and only a failure scans every g;
    each g costs one batched product over all h, so memory stays at |G| matrices.
    """
    A = np.mod(np.asarray(mats, dtype=np.int64), m)

    def failing(g):
        return np.flatnonzero(((A[g] @ A) % m != A[G.table[g]]).any(axis=(1, 2)))

    if not any(failing(g).size for g in G.gens):
        return None
    g = next(g for g in range(len(A)) if failing(g).size)
    return g, int(failing(g)[0])


def submodule_size(A, m: int) -> int:
    """Cardinality of the column span of A over Z/m."""
    return diagonalize_mod(A, m, want_U=False).image_size()


def colspans_equal(A, B, m: int) -> bool:
    A = as_mod_array(np.asarray(A, dtype=np.int64), m)
    B = as_mod_array(np.asarray(B, dtype=np.int64), m)
    da = diagonalize_mod(A, m)
    db = diagonalize_mod(B, m, want_U=False)
    if da.image_size() != db.image_size():
        return False
    return solve_matrix_mod(da, B) is not None


def enumerate_colspan(A, m: int):
    """All elements of the column span of A over Z/m (deterministic order);
    its size times the rows of A is checked against ``CELL_BUDGET`` first."""
    A = as_mod_array(np.asarray(A, dtype=np.int64), m)
    size = diagonalize_mod(A, m, want_U=False).image_size()
    check_cells(f"a span of {size} vectors in (Z/{m})^{A.shape[0]}", size * A.shape[0])
    elems = {tuple(np.zeros(A.shape[0], dtype=np.int64))}
    order = [tuple(np.zeros(A.shape[0], dtype=np.int64))]
    gens = [A[:, j] for j in range(A.shape[1])]
    frontier = list(order)
    while frontier:
        cur = np.array(frontier.pop(), dtype=np.int64)
        for g in gens:
            nxt = tuple((cur + g) % m)
            if nxt not in elems:
                elems.add(nxt)
                order.append(nxt)
                frontier.append(nxt)
    return order
