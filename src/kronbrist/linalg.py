"""Exact dense linear algebra over prime fields GF(p) and the rationals.

Everything here is exact: GF(p) entries are ints reduced into [0, p),
rational entries are ``fractions.Fraction`` in lowest terms.  All values
are immutable after construction and all operations are pure, so they are
safe to use from concurrent contexts.

Row reduction over GF(p) runs on int64 numpy arrays (entries stay below p,
intermediate products below p^2 < 2^62, so int64 arithmetic is exact);
rational row reduction uses Fractions directly.  Pivot choice is
deterministic: first nonzero entry scanning columns left to right, rows
top to bottom.  Subspaces are kept in reduced row-echelon form, so two
subspaces are equal iff their basis matrices are entrywise equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]
Vector = tuple


class DimensionMismatch(ValueError):
    """Operands live in incompatible spaces or over different fields."""


class InternalCheckFailed(RuntimeError):
    """An internal consistency guard tripped: a bug, never valid data."""


# Deterministic Miller-Rabin; these witnesses decide primality below 3.2e9,
# which covers the allowed characteristics 2 <= p < 2^31.
_MR_WITNESSES = (2, 3, 5, 7)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for w in _MR_WITNESSES:
        if p % w == 0:
            return p == w
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Field context: GF(p) for a prime p, or the rationals (characteristic 0)."""

    kind: str  # "prime-field" | "rationals"
    characteristic: int

    def __post_init__(self):
        if self.kind == "prime-field":
            p = self.characteristic
            if not (2 <= p < 2**31 and is_prime(p)):
                raise ValueError(f"characteristic must be a prime in [2, 2^31), got {p}")
        elif self.kind == "rationals":
            if self.characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def gf(p: int) -> "FieldSpec":
        return FieldSpec("prime-field", p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rationals", 0)

    @property
    def is_finite(self) -> bool:
        return self.kind == "prime-field"

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("the rationals are infinite")
        return self.characteristic

    def zero(self) -> Scalar:
        return 0 if self.is_finite else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.is_finite else Fraction(1)

    def normalize(self, x) -> Scalar:
        if self.is_finite:
            return int(x) % self.characteristic
        return Fraction(x)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.characteristic if self.is_finite else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.characteristic if self.is_finite else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.characteristic if self.is_finite else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.characteristic if self.is_finite else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.is_finite:
            a %= self.characteristic
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.characteristic - 2, self.characteristic)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

    def elements(self) -> Iterable[Scalar]:
        """All field elements in canonical order 0, 1, ..., p-1 (finite only)."""
        if not self.is_finite:
            raise ValueError("cannot enumerate the rationals")
        return range(self.characteristic)

    def __str__(self) -> str:
        return f"gf({self.characteristic})" if self.is_finite else "q"


QQ = FieldSpec.rationals()


def GF(p: int) -> FieldSpec:
    return FieldSpec.gf(p)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; ``data`` is a tuple of row tuples."""

    field: FieldSpec
    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("matrix data does not match declared shape")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        data = tuple(tuple(field.normalize(x) for x in r) for r in rows)
        m = len(data)
        n = len(data[0]) if m else (cols if cols is not None else 0)
        return Matrix(field, m, n, data)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        o, z = field.one(), field.zero()
        return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    # -- shape helpers -----------------------------------------------------

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.field != other.field:
            raise DimensionMismatch("hstack shape/field mismatch")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      tuple(self.data[i] + other.data[i] for i in range(self.rows)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols or self.field != other.field:
            raise DimensionMismatch("vstack shape/field mismatch")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.data + other.data)

    def col_block(self, j0: int, j1: int) -> "Matrix":
        return Matrix(self.field, self.rows, j1 - j0, tuple(r[j0:j1] for r in self.data))

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise DimensionMismatch("matmul shape/field mismatch")
        f = self.field
        if self.rows == 0 or other.cols == 0:
            return Matrix.zeros(f, self.rows, other.cols)
        if self.cols == 0:
            return Matrix.zeros(f, self.rows, other.cols)
        if f.is_finite and self.cols * (f.characteristic - 1) ** 2 < 2**62:
            p = f.characteristic
            out = (_np(self) @ _np(other)) % p
            return _from_np(f, out)
        rows = []
        for i in range(self.rows):
            ri = self.data[i]
            rows.append(tuple(
                sum((ri[k] * other.data[k][j] for k in range(self.cols)), f.zero()) % f.characteristic
                if f.is_finite else
                sum((ri[k] * other.data[k][j] for k in range(self.cols)), f.zero())
                for j in range(other.cols)))
        return Matrix(f, self.rows, other.cols, tuple(rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise DimensionMismatch("matrix addition shape/field mismatch")
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      tuple(tuple(f.add(a, b) for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.field.normalize(-1 if self.field.is_finite else Fraction(-1)))

    def scale(self, c: Scalar) -> "Matrix":
        f = self.field
        c = f.normalize(c)
        return Matrix(f, self.rows, self.cols, tuple(tuple(f.mul(c, x) for x in r) for r in self.data))

    def apply(self, v: Sequence) -> Vector:
        """Apply to a column vector, returning the image as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        f = self.field
        return tuple(
            f.normalize(sum((r[k] * v[k] for k in range(self.cols)), f.zero()))
            for r in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def entries_flat(self) -> Vector:
        return tuple(x for r in self.data for x in r)


def block_diag(field: FieldSpec, blocks: Sequence[Matrix]) -> Matrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[field.zero()] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0:c0 + b.cols] = list(b.data[i])
        r0 += b.rows
        c0 += b.cols
    return Matrix.from_rows(field, out, cols=cols)


# -- numpy bridge (finite fields only) --------------------------------------

def _np(M: Matrix) -> np.ndarray:
    return np.array(M.data, dtype=np.int64).reshape(M.rows, M.cols)


def _from_np(field: FieldSpec, a: np.ndarray) -> Matrix:
    return Matrix(field, a.shape[0], a.shape[1],
                  tuple(tuple(int(x) for x in row) for row in a))


# -- row reduction -----------------------------------------------------------

class RrefResult(NamedTuple):
    matrix: Matrix
    pivot_cols: tuple
    rank: int


def _rref_gf(a: np.ndarray, p: int):
    R = a.copy()
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = R[r] * inv % p
        col = R[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            R[mask] = (R[mask] - np.outer(col[mask], R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def _rref_exact(rows, field: FieldSpec):
    R = [list(r) for r in rows]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = field.inv(R[r][c])
        R[r] = [field.mul(inv, x) for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def rref(A: Matrix) -> RrefResult:
    """Reduced row-echelon form with deterministic first-nonzero pivoting."""
    if A.rows == 0 or A.cols == 0:
        return RrefResult(A, (), 0)
    if A.field.is_finite:
        R, pivots = _rref_gf(_np(A), A.field.characteristic)
        return RrefResult(_from_np(A.field, R), tuple(pivots), len(pivots))
    R, pivots = _rref_exact(A.data, A.field)
    return RrefResult(Matrix.from_rows(A.field, R, cols=A.cols), tuple(pivots), len(pivots))


def rank(A: Matrix) -> int:
    return rref(A).rank


def solve(A: Matrix, b: Sequence) -> Optional[Vector]:
    """Some x with A x = b, free variables set to 0; None if inconsistent."""
    if len(b) != A.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    f = A.field
    bcol = Matrix.from_rows(f, [[x] for x in b], cols=1) if A.rows else Matrix.zeros(f, 0, 1)
    R, pivots, rk = rref(A.hstack(bcol))
    if A.cols in pivots:
        return None
    x = [f.zero()] * A.cols
    for r, p in enumerate(pivots):
        x[p] = R.data[r][A.cols]
    return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """Subspace of the row-vector space k^ambient_dim, basis in RREF.

    The canonical basis makes equality a plain comparison: two subspaces are
    equal iff their basis matrices agree entrywise.
    """

    field: FieldSpec
    ambient_dim: int
    basis: Matrix
    pivot_cols: tuple

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim or self.basis.rows != len(self.pivot_cols):
            raise ValueError("subspace basis inconsistent with ambient/pivots")

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim), ())

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, Matrix.identity(field, ambient_dim),
                        tuple(range(ambient_dim)))

    @staticmethod
    def from_spanning(field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        vecs = [v for v in vectors]
        if not vecs:
            return Subspace.zero(field, ambient_dim)
        A = Matrix.from_rows(field, vecs, cols=ambient_dim)
        if A.cols != ambient_dim:
            raise DimensionMismatch("spanning vectors have wrong length")
        R, pivots, rk = rref(A)
        return Subspace(field, ambient_dim, Matrix(field, rk, ambient_dim, R.data[:rk]), pivots)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def reduce_vector(self, v: Sequence) -> Vector:
        """Residual of v after subtracting its projection onto the subspace."""
        f = self.field
        w = [f.normalize(x) for x in v]
        for r, p in enumerate(self.pivot_cols):
            c = w[p]
            if c != 0:
                row = self.basis.data[r]
                w = [f.sub(w[j], f.mul(c, row[j])) for j in range(self.ambient_dim)]
        return tuple(w)

    def contains_vector(self, v: Sequence) -> bool:
        return all(x == 0 for x in self.reduce_vector(v))

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the RREF basis, or None if v is outside."""
        if not self.contains_vector(v):
            return None
        f = self.field
        return tuple(f.normalize(v[p]) for p in self.pivot_cols)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if other.dim == 0:
            return True
        return rank(self.basis.vstack(other.basis)) == self.dim

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionMismatch("subspaces in different ambient spaces")


def subspace_sum(U: Subspace, *more: Subspace) -> Subspace:
    """U plus every subspace in ``more``: one reduction of all their basis rows."""
    rows = list(U.basis.data)
    for V in more:
        U._check_compatible(V)
        rows.extend(V.basis.data)
    return Subspace.from_spanning(U.field, U.ambient_dim, rows)


def kernel_basis(A: Matrix) -> Subspace:
    """Canonical basis of {v : A v = 0} as a subspace of k^cols."""
    f = A.field
    n = A.cols
    if n == 0:
        return Subspace.zero(f, 0)
    if A.rows == 0:
        return Subspace.full(f, n)
    R, pivots, rk = rref(A)
    free = [c for c in range(n) if c not in set(pivots)]
    vecs = []
    for fc in free:
        v = [f.zero()] * n
        v[fc] = f.one()
        for r, p in enumerate(pivots):
            v[p] = f.neg(R.data[r][fc])
        vecs.append(v)
    return Subspace.from_spanning(f, n, vecs)


def joint_kernel(field: FieldSpec, dim: int, maps: Sequence[Matrix]) -> Subspace:
    """{v in k^dim : A v = 0 for every A in maps}, the kernel of the stacked maps."""
    rows = []
    for A in maps:
        if A.cols != dim or A.field != field:
            raise DimensionMismatch("joint kernel of maps with different sources")
        rows.extend(A.data)
    return kernel_basis(Matrix(field, len(rows), dim, tuple(rows)))


def image_subspace(A: Matrix) -> Subspace:
    """Column space of A, canonically, as row vectors of length A.rows."""
    return Subspace.from_spanning(A.field, A.rows, A.transpose().data)


def quotient_projection(U: Subspace) -> Matrix:
    """Canonical projection k^ambient -> k^(ambient - dim U) with kernel U.

    Coordinates on the quotient are the non-pivot columns of U's basis,
    taken in ascending order (greedy pivot completion).
    """
    f = U.field
    m = U.ambient_dim
    free = [c for c in range(m) if c not in set(U.pivot_cols)]
    rows = []
    for fc in free:
        row = [f.zero()] * m
        row[fc] = f.one()
        for r, p in enumerate(U.pivot_cols):
            row[p] = f.neg(U.basis.data[r][fc])
        rows.append(row)
    return Matrix.from_rows(f, rows, cols=m)


def embed_free_coordinates(U: Subspace) -> Matrix:
    """Section of quotient_projection: unit columns at the non-pivot slots."""
    f = U.field
    m = U.ambient_dim
    free = [c for c in range(m) if c not in set(U.pivot_cols)]
    rows = []
    for i in range(m):
        rows.append([f.one() if (j < len(free) and free[j] == i) else f.zero()
                     for j in range(len(free))])
    return Matrix.from_rows(f, rows, cols=len(free))
