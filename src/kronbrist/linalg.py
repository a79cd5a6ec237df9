"""Exact dense linear algebra over prime fields GF(p) and the rationals.

Everything here is exact.  A ``Matrix`` holds one read-only numpy array:
int64 entries reduced into [0, p) over GF(p), an object array of
``fractions.Fraction`` over Q.  All values are immutable after construction
and all operations are pure, so they are safe to use from concurrent
contexts.  Entries leave a matrix (``row``, ``apply``, ``solve``,
coordinates) as Python ``int`` or ``Fraction``, never as numpy scalars.

Arithmetic runs on integers; over Q entries become Fractions again only
at the end.  One elimination routine serves both fields and never divides
mid-way: it works on integer rows (over Q each row scaled by the lcm of its
denominators), clears a column from a row x with pivot row y as
piv * x - x[c] * y, and puts each updated row back in lowest terms: reduced
mod p over GF(p), divided by the gcd of its entries over Q.  Each pivot row
is divided by its pivot at the end.  A product over Q multiplies integer
numerators over one common denominator per operand and builds one Fraction
per nonzero entry of the result.

Over GF(p) every intermediate product stays below p^2 < 2^62, so int64
arithmetic is exact; a matrix product switches to Python integers once a
sum of products could reach 2^62.  Pivot choice is deterministic: first
nonzero entry scanning columns left to right, rows top to bottom.
Subspaces are kept in reduced row-echelon form, so two subspaces are equal
iff their basis matrices are entrywise equal.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


def _fraction(x) -> Fraction:
    """x as an element of Q: an integer (Python or numpy) or a Fraction.
    Anything else (a float, a string) is refused with ValueError."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(operator.index(x))
    except TypeError:  # no __index__
        raise ValueError(f"{x!r} is not an element of Q: entries must be "
                         f"integers or Fractions") from None


_to_fractions = np.frompyfunc(_fraction, 1, 1)


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
        """x as a field element.  Over Q an integer or a Fraction is kept as a
        Fraction.  Over GF(p) an integer is reduced mod p and a Fraction a/b
        becomes a * b^-1 mod p.  Anything else (a float, a string, or over
        GF(p) a Fraction whose denominator p divides) is refused with
        ValueError."""
        if not self.is_finite:
            return _fraction(x)
        p = self.characteristic
        try:
            if isinstance(x, Fraction):
                return x.numerator * pow(x.denominator, -1, p) % p
            return operator.index(x) % p
        except (TypeError, ValueError):  # no __index__, or b has no inverse mod p
            raise ValueError(f"{x!r} is not an element of GF({p}): entries must be "
                             f"integers or Fractions with denominator prime to {p}") from None

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.characteristic if self.is_finite else a + b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.characteristic if self.is_finite else a * b

    def inv(self, a: Scalar) -> Scalar:
        if self.is_finite:
            a = int(a) % self.characteristic
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

    # -- arrays of field elements ----------------------------------------------

    @property
    def dtype(self):
        return np.int64 if self.is_finite else object

    def array(self, values) -> np.ndarray:
        """Nested sequences (or an array) as field entries: int64 reduced mod p,
        or an object array of Fractions."""
        if not self.is_finite:
            return _to_fractions(np.array(values, dtype=object))
        a = np.asarray(values)
        if a.dtype.kind not in "ib":
            # Fractions, Python ints past int64, floats: one by one through
            # normalize, which maps or refuses each entry
            a = np.frompyfunc(self.normalize, 1, 1)(np.array(values, dtype=object))
        return a.astype(np.int64, copy=False) % self.characteristic

    def zeros(self, shape) -> np.ndarray:
        if self.is_finite:
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, Fraction(0), dtype=object)

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Canonical entries of an integer combination of canonical entries."""
        return a % self.characteristic if self.is_finite else a

    def __str__(self) -> str:
        return f"gf({self.characteristic})" if self.is_finite else "q"


QQ = FieldSpec.rationals()


def GF(p: int) -> FieldSpec:
    return FieldSpec.gf(p)


# (numerators, denominators) of an array of Fractions, one call per entry
_integer_ratios = np.frompyfunc(Fraction.as_integer_ratio, 1, 2)
_fraction_over = np.frompyfunc(Fraction, 2, 1)


def _fractions(num: np.ndarray, den) -> np.ndarray:
    """The Fractions num / den for an integer array num; den is an integer or
    an integer array that broadcasts against num.

    Every zero entry is one shared Fraction(0): most entries of the systems
    built here are zero, and making a Fraction is the costly step.
    """
    out = np.full(num.shape, Fraction(0), dtype=object)
    nz = num != 0
    out[nz] = _fraction_over(num[nz], np.broadcast_to(den, num.shape)[nz])
    return out


def _over_common_denominator(a: np.ndarray):
    """Integer numerators and one denominator d with a == numerators / d."""
    num, den = _integer_ratios(a)
    d = lcm(*den.flat)
    return (num if d == 1 else num * (d // den)), d


def _dot(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field; b may be a vector.

    Over GF(p) the product runs on int64 while every sum of products stays
    below 2^62 (inner length times (p-1)^2); past that bound the same
    expression runs on Python integers.  Over Q it runs on the integer
    numerators of both operands over a common denominator, which is exact
    and avoids a Fraction normalization per product.
    """
    inner = a.shape[-1]
    if inner == 0:
        return field.zeros(a.shape[:-1] + b.shape[1:])
    if not field.is_finite:
        (na, da), (nb, db) = _over_common_denominator(a), _over_common_denominator(b)
        return _fractions(na @ nb, da * db)
    p = field.characteristic
    if inner * (p - 1) ** 2 < 2**62:
        return a @ b % p
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense matrix; ``data`` is a read-only 2-d array of field entries.

    Over Q every entry is a ``Fraction`` (``from_rows`` converts integers);
    the rational arithmetic reads numerators and denominators from them.
    Equality and hashing go by field, shape and entries.
    """

    field: FieldSpec
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.dtype != self.field.dtype:
            raise ValueError("matrix data must be a 2-d array of the field's dtype")
        self.data.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.data.shape == other.data.shape
                and bool((self.data == other.data).all()))

    def __hash__(self) -> int:
        # object arrays hold pointers, so hash their entries, not their bytes
        entries = self.data.tobytes() if self.field.is_finite else self.entries_flat()
        return hash((self.field, self.data.shape, entries))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        if len(rows) == 0:
            return Matrix.zeros(field, 0, cols if cols is not None else 0)
        data = field.array(rows)
        if data.ndim != 2:
            raise ValueError("matrix rows differ in length")
        return Matrix(field, data)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, field.zeros((rows, cols)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        a = field.zeros((n, n))
        np.fill_diagonal(a, field.one())
        return Matrix(field, a)

    # -- shape helpers -----------------------------------------------------

    def row(self, i: int) -> Vector:
        return tuple(self.data[i].tolist())

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T)

    def hstack(self, *others: "Matrix") -> "Matrix":
        if any(o.rows != self.rows or o.field != self.field for o in others):
            raise DimensionMismatch("hstack shape/field mismatch")
        return Matrix(self.field, np.hstack([self.data] + [o.data for o in others]))

    def vstack(self, *others: "Matrix") -> "Matrix":
        if any(o.cols != self.cols or o.field != self.field for o in others):
            raise DimensionMismatch("vstack shape/field mismatch")
        return Matrix(self.field, np.vstack([self.data] + [o.data for o in others]))

    def col_block(self, j0: int, j1: int) -> "Matrix":
        return Matrix(self.field, self.data[:, j0:j1])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; row-major vec(A X B) = (A kron B^T) vec(X)."""
        if self.field != other.field:
            raise DimensionMismatch("kron field mismatch")
        f, a, b = self.field, self.data, other.data
        if not f.is_finite:
            (a, da), (b, db) = _over_common_denominator(a), _over_common_denominator(b)
        out = (a[:, None, :, None] * b[None, :, None, :]).reshape(
            a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
        return Matrix(f, f.reduce(out) if f.is_finite else _fractions(out, da * db))

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise DimensionMismatch("matmul shape/field mismatch")
        return Matrix(self.field, _dot(self.field, self.data, other.data))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.data.shape != other.data.shape or self.field != other.field:
            raise DimensionMismatch("matrix addition shape/field mismatch")
        return Matrix(self.field, self.field.reduce(self.data + other.data))

    def scale(self, c: Scalar) -> "Matrix":
        f, c = self.field, self.field.normalize(c)
        if f.is_finite:
            return Matrix(f, f.reduce(self.data * c))
        num, d = _over_common_denominator(self.data)
        return Matrix(f, _fractions(num * c.numerator, d * c.denominator))

    def apply(self, v: Sequence) -> Vector:
        """Apply to a column vector, returning the image as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        f = self.field
        return tuple(_dot(f, self.data, f.array(v)).tolist())

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.data)

    def entries_flat(self) -> Vector:
        return tuple(self.data.ravel().tolist())


def block_diag(field: FieldSpec, blocks: Sequence[Matrix]) -> Matrix:
    out = field.zeros((sum(b.rows for b in blocks), sum(b.cols for b in blocks)))
    r0 = c0 = 0
    for b in blocks:
        out[r0:r0 + b.rows, c0:c0 + b.cols] = b.data
        r0 += b.rows
        c0 += b.cols
    return Matrix(field, out)


# -- row reduction -----------------------------------------------------------

class RrefResult(NamedTuple):
    matrix: Matrix
    pivot_cols: tuple
    rank: int


def _integer_rows(a: np.ndarray, field: FieldSpec) -> np.ndarray:
    """A copy of a whose rows span the same row space and hold integers:
    as is over GF(p); over Q each row times the lcm of its denominators."""
    if field.is_finite:
        return a.copy()
    num, den = _integer_ratios(a)
    return num * (np.lcm.reduce(den, axis=1)[:, None] // den)


def _lowest_terms(U: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Put integer rows in lowest terms, in place: reduced mod p over GF(p);
    over Q each row divided by the gcd of its entries."""
    if field.is_finite:
        return np.remainder(U, field.characteristic, out=U)
    g = np.gcd.reduce(U, axis=1)
    g[g == 0] = 1
    return np.floor_divide(U, g[:, None], out=U)


def _rref(a: np.ndarray, field: FieldSpec):
    """Gauss-Jordan elimination on integer rows (see ``_integer_rows``).

    The pivot is the first nonzero entry scanning columns left to right,
    rows top to bottom.  Clearing column c from a row x with pivot row y
    replaces x by piv * x - x[c] * y, put back in lowest terms, so no entry
    is ever divided.  Over GF(p) the pivot has an inverse, so the pivot row
    is scaled to pivot 1 when it is chosen; over Q each pivot row is divided
    by its pivot at the end.  The reduced row-echelon form depends only on
    the row space, so this gives the same matrix as dividing at every step.
    """
    R = _integer_rows(a, field)
    m, n = R.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        piv = R[r, c]
        if field.is_finite and piv != 1:
            R[r] = field.reduce(R[r] * field.inv(piv))
            piv = 1
        col = R[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            U = R[mask]
            if piv != 1:
                U *= piv
            U -= np.outer(col[mask], R[r])
            R[mask] = _lowest_terms(U, field)
        pivots.append(c)
    if field.is_finite:
        return R, pivots
    d = np.ones((m, 1), dtype=object)
    d[:len(pivots), 0] = R[np.arange(len(pivots)), pivots]
    return _fractions(R, d), pivots


def rref(A: Matrix) -> RrefResult:
    """Reduced row-echelon form with deterministic first-nonzero pivoting."""
    if A.rows == 0 or A.cols == 0:
        return RrefResult(A, (), 0)
    R, pivots = _rref(A.data, A.field)
    return RrefResult(Matrix(A.field, R), tuple(pivots), len(pivots))


def rank(A: Matrix) -> int:
    return rref(A).rank


def solve(A: Matrix, b: Sequence) -> Optional[Vector]:
    """Some x with A x = b, free variables set to 0; None if inconsistent."""
    if len(b) != A.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != rows {A.rows}")
    f = A.field
    bcol = Matrix(f, f.array(b).reshape(A.rows, 1))
    R, pivots, rk = rref(A.hstack(bcol))
    if A.cols in pivots:
        return None
    x = f.zeros(A.cols)
    x[list(pivots)] = R.data[:rk, A.cols]
    return tuple(x.tolist())


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
        A = Matrix.from_rows(field, vectors, cols=ambient_dim)
        if A.cols != ambient_dim:
            raise DimensionMismatch("spanning vectors have wrong length")
        return _row_space(A)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _residual(self, w: np.ndarray) -> np.ndarray:
        """Each row of w minus its projection onto the subspace.

        The RREF basis is the identity on the pivot columns, so the
        projection has the pivot entries of w as its coordinates.
        """
        if self.dim == 0:
            return w
        f = self.field
        return f.reduce(w - _dot(f, w[..., list(self.pivot_cols)], self.basis.data))

    def reduce_vector(self, v: Sequence) -> Vector:
        """Residual of v after subtracting its projection onto the subspace."""
        return tuple(self._residual(self.field.array(v)).tolist())

    def contains_vector(self, v: Sequence) -> bool:
        return not any(self.reduce_vector(v))

    def contains_rows(self, A: Matrix) -> bool:
        """Every row of A lies in the subspace."""
        if A.cols != self.ambient_dim or A.field != self.field:
            raise DimensionMismatch("rows live in a different ambient space")
        return not np.count_nonzero(self._residual(A.data))

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the RREF basis, or None if v is outside."""
        if not self.contains_vector(v):
            return None
        return tuple(self.field.array(v)[list(self.pivot_cols)].tolist())

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.contains_rows(other.basis)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionMismatch("subspaces in different ambient spaces")


def _row_space(A: Matrix) -> Subspace:
    R, pivots, rk = rref(A)
    return Subspace(A.field, A.cols, Matrix(A.field, R.data[:rk]), pivots)


def subspace_sum(U: Subspace, *more: Subspace) -> Subspace:
    """U plus every subspace in ``more``: one reduction of all their basis rows."""
    for V in more:
        U._check_compatible(V)
    return _row_space(U.basis.vstack(*(V.basis for V in more)))


def _free_column_rows(field: FieldSpec, R: np.ndarray, pivots: tuple, n: int) -> np.ndarray:
    """One row per non-pivot column c of the RREF rows R: the unit vector at c
    minus column c of R placed at the pivot slots.

    These rows span the kernel of R; as a map they project k^n onto the
    non-pivot coordinates with kernel the row space of R.
    """
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = field.zeros((len(free), n))
    out[np.arange(len(free)), free] = field.one()
    out[:, list(pivots)] = field.reduce(-R[:len(pivots), free].T)
    return out


def kernel_basis(A: Matrix) -> Subspace:
    """Canonical basis of {v : A v = 0} as a subspace of k^cols."""
    f = A.field
    n = A.cols
    if n == 0:
        return Subspace.zero(f, 0)
    if A.rows == 0:
        return Subspace.full(f, n)
    R, pivots, rk = rref(A)
    return _row_space(Matrix(f, _free_column_rows(f, R.data, pivots, n)))


def joint_kernel(field: FieldSpec, dim: int, maps: Sequence[Matrix]) -> Subspace:
    """{v in k^dim : A v = 0 for every A in maps}, the kernel of the stacked maps."""
    if any(A.cols != dim or A.field != field for A in maps):
        raise DimensionMismatch("joint kernel of maps with different sources")
    return kernel_basis(Matrix.zeros(field, 0, dim).vstack(*maps))


def image_subspace(A: Matrix) -> Subspace:
    """Column space of A, canonically, as row vectors of length A.rows."""
    return _row_space(A.transpose())


def quotient_projection(U: Subspace) -> Matrix:
    """Canonical projection k^ambient -> k^(ambient - dim U) with kernel U.

    Coordinates on the quotient are the non-pivot columns of U's basis,
    taken in ascending order (greedy pivot completion).
    """
    return Matrix(U.field, _free_column_rows(U.field, U.basis.data, U.pivot_cols, U.ambient_dim))


def embed_free_coordinates(U: Subspace) -> Matrix:
    """Section of quotient_projection: unit columns at the non-pivot slots."""
    f = U.field
    pivot_set = set(U.pivot_cols)
    free = [c for c in range(U.ambient_dim) if c not in pivot_set]
    out = f.zeros((U.ambient_dim, len(free)))
    out[free, np.arange(len(free))] = f.one()
    return Matrix(f, out)
