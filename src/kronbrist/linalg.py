"""Exact linear algebra over prime fields GF(p) and the rationals.

Everything here is exact.  A ``Matrix`` is one read-only integer numpy
array over one positive denominator, in the same format for both fields:
over GF(p) int64 in [0, p) over 1; over Q an object array of Python ints
in lowest terms with its denominator, so equal matrices hold equal
integers.  Entries are converted only on the way in (``FieldSpec.array``,
``from_rows``; a raw ``Matrix(...)`` is checked) and out (``row``,
``apply``, coordinates: Python ``int`` or ``Fraction``, never numpy
scalars).  Values are immutable and operations pure.

Each operation is one integer expression for both fields.  A product
multiplies the arrays and the denominators; stacking and block placement
bring their parts to the lcm of the denominators.  ``intertwining_system``,
the one Hom-system builder, lists only the nonzeros of a system, a
``SparseSystem``; ``sparse_rank`` and the sparse kernels peel its singleton
rows and columns without arithmetic and eliminate only the dense core that
is left.  Morphisms from the (1, 1) modules with scalar maps p (bristles)
into one module N are laid out for a whole list of points at once by
``bristle_hom_system``: one block-diagonal system, the nonzeros of N's
stacked maps tiled once per block and p_i at each block's y columns.
``sparse_block_ranks`` reads every block's rank off one peel of it: the
peeled columns of each block from one count, and only the blocks left
with a core are eliminated, each through ``rank``.

One elimination routine never divides mid-way: it clears a
column from a row x with pivot row y as piv * x - x[c] * y and puts each
updated row back in lowest terms: reduced mod p over GF(p), divided by the
gcd of its entries over Q.  Over Q the pivot rows are brought to the lcm of
the pivots.

Over GF(p) every intermediate product stays below p^2 < 2^62, so int64
arithmetic is exact; a matrix product switches to Python integers once a
sum of products could reach 2^62.  Below that bound a product whose dense
form takes more than 2^16 multiply-adds, and one of whose operands has
fewer than 1/8 nonzeros (τ-translates and preinjectives have about one per
row), adds up the products of that operand's nonzeros, unreduced, and
reduces mod p at the end: each output entry still sums at most
inner-length products below p^2, so the same bound keeps it exact.

Pivot choice is deterministic: first nonzero entry scanning columns left to
right, rows top to bottom.  Subspaces are kept in reduced row-echelon form,
so two subspaces are equal iff their basis matrices are entrywise equal.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
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

    def array(self, values):
        """Nested sequences (or an array) of field entries as integers over one
        denominator, the pair (array, denominator): int64 reduced mod p over 1,
        or Python ints over the lcm of the entries' denominators over Q."""
        if not self.is_finite:
            num, den = _integer_ratios(_to_fractions(np.array(values, dtype=object)))
            d = lcm(*den.flat)
            return num * (d // den), d
        a = np.asarray(values)
        if a.dtype.kind not in "ib":
            # Fractions, Python ints past int64, floats: one by one through
            # normalize, which maps or refuses each entry
            a = np.frompyfunc(self.normalize, 1, 1)(np.array(values, dtype=object))
        return a.astype(np.int64, copy=False) % self.characteristic, 1

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

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
_as_int = np.frompyfunc(operator.index, 1, 1)


def _scalars(field: FieldSpec, num: np.ndarray, den: int) -> list:
    """num / den as nested lists of Python ints (GF(p)) or Fractions (Q)."""
    return num.tolist() if field.is_finite else _fraction_over(num, den).tolist()


# a product over GF(p) whose dense form takes more multiply-adds than this,
# with an operand of fewer than 1/_SPARSE_DENSITY nonzeros, is summed over
# that operand's nonzeros; below it the dense product is faster
_SPARSE_MIN_WORK = 2**16
_SPARSE_DENSITY = 8


def _dot(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integer product a @ b, reduced mod p over GF(p); b may be a vector.

    Over GF(p) the product runs on int64 while every sum of products stays
    below 2^62 (inner length times (p-1)^2); past that bound the same
    expression runs on Python integers, as it always does over Q.  Below the
    bound a large product with a sparse operand is summed over that
    operand's nonzeros (``_sparse_dot``; a sparse right operand through the
    transposes), over the operand that gives fewer products when both are
    sparse.  Integer sums do not depend on their order, so both paths give
    the same array.
    """
    if not field.is_finite:
        return a @ b
    p = field.characteristic
    if a.shape[-1] * (p - 1) ** 2 >= 2**62:
        return (a.astype(object) @ b.astype(object) % p).astype(np.int64)
    n = b.shape[1] if b.ndim == 2 else 1
    work = a.size * n  # multiply-adds of the dense product
    if a.ndim == 2 and work > _SPARSE_MIN_WORK:
        # products of a scatter over a's nonzeros, and over b's
        cost_a = np.count_nonzero(a) * n
        cost_b = np.count_nonzero(b) * a.shape[0] if b.ndim == 2 else cost_a
        if min(cost_a, cost_b) * _SPARSE_DENSITY < work:
            if cost_a <= cost_b:
                return _sparse_dot(a, b, p)
            return _sparse_dot(b.T, a.T, p).T
    return a @ b % p


def _sparse_dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b % p as, for each nonzero a[r, c], a[r, c] * b[c] added to row r.

    The nonzeros are taken at most as many at a time as a has rows, so no
    chunk's products take more cells than the output.  Every output entry
    sums at most a.shape[1] products below p^2, unreduced, as the dense
    product does.
    """
    r, c = np.nonzero(a)
    out = np.zeros((a.shape[0],) + b.shape[1:], np.int64)
    step = max(a.shape[0], 1)
    for s in range(0, r.size, step):
        rs, cs = r[s:s + step], c[s:s + step]
        prods = b[cs]
        prods *= a[rs, cs][:, None] if b.ndim == 2 else a[rs, cs]
        np.add.at(out, rs, prods)
    return np.remainder(out, p, out=out)


def _numerators(field: FieldSpec, mats: Sequence["Matrix"]):
    """The arrays of mats over the lcm of their denominators, and that lcm."""
    if field.is_finite:
        return [m.data for m in mats], 1
    den = lcm(*(m.den for m in mats))
    return [m.data if m.den == den else m.data * (den // m.den) for m in mats], den


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable dense matrix: the read-only 2-d integer array ``data`` over
    the positive denominator ``den``.

    Over GF(p) ``data`` is int64 in [0, p) and ``den`` is 1.  Over Q ``data``
    is an object array of Python ints, divided with ``den`` by their gcd.
    Both parts are canonical, so equality and hashing go by value.  An array
    from outside (``Matrix(...)``) with an entry outside [0, p), or over Q
    not an integer, is refused with ValueError, and is copied, so the
    caller's array stays writeable; linalg's results skip both.
    """

    field: FieldSpec
    data: np.ndarray
    den: int = 1

    def __post_init__(self):
        a, den, f = self.data, self.den, self.field
        if a.ndim != 2 or a.dtype != f.dtype:
            raise ValueError("matrix data must be a 2-d array of the field's dtype")
        if f.is_finite:
            if den != 1:
                raise ValueError("a matrix over GF(p) has denominator 1")
            if a.size and not (0 <= a.min() and a.max() < f.characteristic):
                raise ValueError(f"entries of a matrix over {f} lie in [0, {f.characteristic})")
            a = a.copy()  # the caller keeps its array writeable; over Q _as_int copies
        else:
            try:  # operator.index refuses a Fraction, a float, a string
                a, den = _as_int(a), operator.index(den)
            except TypeError:
                raise ValueError("a matrix over Q holds integers over an integer denominator") from None
            if den <= 0:
                raise ValueError(f"denominator must be positive, got {den}")
        self._set(a, den)

    @classmethod
    def _of(cls, field: FieldSpec, data: np.ndarray, den: int = 1, lowest: bool = True) -> "Matrix":
        """Integers linalg computed, unchecked; a rearrangement skips the gcd (``lowest=False``)."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        m._set(data, den, lowest)
        return m

    def _set(self, a: np.ndarray, den: int, lowest: bool = True):
        if lowest and den != 1 and (g := gcd(den, *a.flat)) > 1:  # over 1 the gcd is 1
            a, den = a // g, den // g
        a.flags.writeable = False
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "den", den)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.den == other.den
                and self.data.shape == other.data.shape and bool((self.data == other.data).all()))

    def __hash__(self) -> int:
        # object arrays hold pointers, so hash their entries, not their bytes
        entries = self.data.tobytes() if self.field.is_finite else tuple(self.data.ravel().tolist())
        return hash((self.field, self.data.shape, self.den, entries))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        if len(rows) == 0:
            return Matrix.zeros(field, 0, cols if cols is not None else 0)
        data, den = field.array(rows)
        if data.ndim != 2:
            raise ValueError("matrix rows differ in length")
        return Matrix._of(field, data, den)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._of(field, field.zeros((rows, cols)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        a = field.zeros((n, n))
        np.fill_diagonal(a, 1)
        return Matrix._of(field, a)

    # -- shape helpers -----------------------------------------------------

    def _with(self, data: np.ndarray, lowest: bool = True) -> "Matrix":
        """Entries of this matrix selected or rearranged, over the same denominator."""
        return Matrix._of(self.field, data, self.den, lowest)

    def row(self, i: int) -> Vector:
        return tuple(_scalars(self.field, self.data[i], self.den))

    def transpose(self) -> "Matrix":
        return self._with(self.data.T, lowest=False)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The entries in row-major order read into rows x cols (one may be -1)."""
        return self._with(self.data.reshape(rows, cols), lowest=False)

    def transpose_blocks(self, a: int, b: int) -> "Matrix":
        """This matrix as an a x b grid of equal blocks, with the grid
        transposed and every block kept: block (i, j) moves to (j, i)."""
        r, c = self.rows // a, self.cols // b
        grid = self.data.reshape(a, r, b, c).swapaxes(0, 2)
        return self._with(grid.reshape(b * r, a * c), lowest=False)

    def split_rows(self, k: int) -> list:
        """The k blocks of equal height that stack to this matrix."""
        h = self.rows // k if k else 0
        return [self._with(self.data[j * h:(j + 1) * h]) for j in range(k)]

    def col_block(self, j0: int, j1: int) -> "Matrix":
        return self._with(self.data[:, j0:j1])

    def select_cols(self, cols: Sequence[int]) -> "Matrix":
        return self._with(self.data[:, list(cols)])

    def select_rows(self, rows: Sequence[int]) -> "Matrix":
        """Rows of this matrix by index, in the order given; an index may repeat."""
        return self._with(self.data[np.asarray(rows, np.int64)])

    def hstack(self, *others: "Matrix") -> "Matrix":
        if any(o.rows != self.rows or o.field != self.field for o in others):
            raise DimensionMismatch("hstack shape/field mismatch")
        arrays, den = _numerators(self.field, (self,) + others)
        return Matrix._of(self.field, np.hstack(arrays), den)

    def vstack(self, *others: "Matrix") -> "Matrix":
        if any(o.cols != self.cols or o.field != self.field for o in others):
            raise DimensionMismatch("vstack shape/field mismatch")
        arrays, den = _numerators(self.field, (self,) + others)
        return Matrix._of(self.field, np.vstack(arrays), den)

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise DimensionMismatch("matmul shape/field mismatch")
        return Matrix._of(self.field, _dot(self.field, self.data, other.data), self.den * other.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.data.shape != other.data.shape or self.field != other.field:
            raise DimensionMismatch("matrix addition shape/field mismatch")
        (a, b), den = _numerators(self.field, (self, other))
        return Matrix._of(self.field, self.field.reduce(a + b), den)

    def row_kron(self, other: "Matrix") -> "Matrix":
        """Row r is the Kronecker product of row r of this matrix with row r
        of ``other``: entry (r, i * other.cols + k) is self[r, i] * other[r, k]."""
        if self.rows != other.rows or self.field != other.field:
            raise DimensionMismatch("row_kron shape/field mismatch")
        prod = self.data[:, :, None] * other.data[:, None, :]
        prod = prod.reshape(self.rows, self.cols * other.cols)
        if self.field.is_finite:
            np.remainder(prod, self.field.characteristic, out=prod)
        return Matrix._of(self.field, prod, self.den * other.den)

    def scale(self, c: Scalar) -> "Matrix":
        f = self.field
        num, d = f.normalize(c).as_integer_ratio()
        return Matrix._of(f, f.reduce(self.data * num), self.den * d)

    def apply(self, v: Sequence) -> Vector:
        """Apply to a column vector, returning the image as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        f = self.field
        num, d = f.array(v)
        return tuple(_scalars(f, _dot(f, self.data, num), self.den * d))

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.data)


def place_blocks(field: FieldSpec, rows: int, cols: int, blocks: Sequence) -> Matrix:
    """The rows x cols matrix holding each (row offset, column offset, Matrix)
    of ``blocks`` at its offsets and zeros elsewhere."""
    if any(B.field != field for _, _, B in blocks):
        raise DimensionMismatch("block over another field")
    arrays, den = _numerators(field, [B for _, _, B in blocks])
    out = field.zeros((rows, cols))
    for (r, c, B), a in zip(blocks, arrays):
        out[r:r + B.rows, c:c + B.cols] = a
    return Matrix._of(field, out, den)


class SparseSystem(NamedTuple):
    """A rows x cols integer matrix over denominator 1 given by its nonzeros:
    v[t] at row i[t], column j[t], each cell at most once.  Over GF(p) v is
    int64 in [0, p); over Q it holds Python ints."""

    field: FieldSpec
    rows: int
    cols: int
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray

    @staticmethod
    def of(field: FieldSpec, cols: int, mats: Sequence[Matrix]) -> "SparseSystem":
        """The nonzeros of the integers of ``mats`` (each with ``cols``
        columns), stacked: each row is a row of a matrix times its
        denominator, so the rank, row space and kernel are those of the
        stacked matrices."""
        nonzeros = [np.nonzero(A.data) for A in mats]
        offsets = np.cumsum([0] + [A.rows for A in mats])
        return SparseSystem(
            field, int(offsets[-1]), cols,
            np.concatenate([np.zeros(0, np.int64)] + [i + o for (i, _), o in zip(nonzeros, offsets)]),
            np.concatenate([np.zeros(0, np.int64)] + [j for _, j in nonzeros]),
            np.concatenate([field.zeros(0)] + [A.data[i, j] for A, (i, j) in zip(mats, nonzeros)]))


def intertwining_system(field: FieldSpec, rows: int, cols: int, terms: Sequence) -> SparseSystem:
    """Coefficients of F2 A = B F1 in row-major vec(F1), vec(F2): for each term
    (row offset, F1 column offset, F2 column offset, A: X1 -> X2, B: Y1 -> Y2)
    a block of rows with -B kron I at the F1 columns and I kron A^T at the F2
    columns; an offset of None places no unknowns.  The terms cover disjoint
    cells, and only their nonzeros are listed; over Q each block is
    multiplied by A.den * B.den, so the system has the same kernel over
    denominator 1."""
    ii, jj, vv = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [field.zeros(0)]
    for r, c1, c2, A, B in terms:
        x1, x2 = A.cols, A.rows
        if c1 is not None:  # -B[i, k] at (i, j) of the rows and (k, j) of F1
            i, k = B.data.nonzero()
            j = np.arange(x1)
            ii.append(((r + i * x1)[:, None] + j).ravel())
            jj.append(((c1 + k * x1)[:, None] + j).ravel())
            vv.append(field.reduce(-B.data[i, k] * A.den).repeat(x1))
        if c2 is not None:  # A[l, j] at (i, j) of the rows and (i, l) of F2
            l, j = A.data.nonzero()
            i = np.arange(B.rows)[:, None]
            ii.append((r + j + i * x1).ravel())
            jj.append((c2 + l + i * x2).ravel())
            vv.append((A.data[l, j] * B.den)[None, :].repeat(B.rows, axis=0).ravel())
    return SparseSystem(field, rows, cols, np.concatenate(ii), np.concatenate(jj), np.concatenate(vv))


def bristle_hom_system(maps: Sequence[Matrix], points: Matrix) -> SparseSystem:
    """Morphisms into the module N with structure maps ``maps`` (each
    d2 x d1) from the (1, 1) module B_p with scalar maps p, for every row p
    of ``points``, as one block-diagonal system.

    Block b holds Hom(B_p, N) for p = points[b]: unknowns (x, y) in
    columns b (d1 + d2) onwards, and for each arrow i the d2 rows of
    p_i y - a_i x = 0, the layout of ``intertwining_system`` for the pair
    (B_p, N).  The nonzeros of the stacked maps [a_1; ...; a_n] are tiled
    once per block, and p_i sits at each block's y columns; over Q every
    block is multiplied by the denominators of the maps and of the points.
    """
    field = points.field
    d2, d1 = maps[0].rows, maps[0].cols
    A = maps[0].vstack(*maps[1:])
    height, width, blocks = A.rows, d1 + d2, np.arange(points.rows)[:, None]
    r, c = np.nonzero(A.data)
    x_v = field.reduce(-A.data[r, c] * points.den)
    b, i = np.nonzero(points.data)  # p_i at rows i d2 + k, columns d1 + k of block b
    k = np.arange(d2)
    y_i, y_j = (b * height + i * d2)[:, None] + k, (b * width + d1)[:, None] + k
    return SparseSystem(
        field, points.rows * height, points.rows * width,
        np.concatenate([(blocks * height + r).ravel(), y_i.ravel()]),
        np.concatenate([(blocks * width + c).ravel(), y_j.ravel()]),
        np.concatenate([np.tile(x_v, points.rows), (points.data[b, i] * A.den).repeat(d2)]))


# -- row reduction -----------------------------------------------------------

class RrefResult(NamedTuple):
    matrix: Matrix
    pivot_cols: tuple
    rank: int


def _lowest_terms(U: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Put integer rows in lowest terms, in place: reduced mod p over GF(p);
    over Q each row divided by the gcd of its entries."""
    if field.is_finite:
        return np.remainder(U, field.characteristic, out=U)
    g = np.gcd.reduce(U, axis=1)
    g[g == 0] = 1
    return np.floor_divide(U, g[:, None], out=U)


def _rref(a: np.ndarray, field: FieldSpec):
    """Gauss-Jordan elimination on a copy of the integer rows a, which span
    the row space of a over any denominator.

    The pivot is the first nonzero entry scanning columns left to right,
    rows top to bottom.  Clearing column c from a row x with pivot row y
    replaces x by piv * x - x[c] * y, put back in lowest terms, so no entry
    is ever divided.  Over GF(p) the pivot has an inverse, so the pivot row
    is scaled to pivot 1 when it is chosen; over Q each pivot row is
    multiplied at the end by lcm / piv, for the lcm of all pivots, which
    becomes the denominator.  The reduced row-echelon form depends only on
    the row space, so this gives the same matrix as dividing at every step.
    Returns (integer rows, pivot columns, denominator).
    """
    R = a.copy()
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
    if field.is_finite or not pivots:
        return R, pivots, 1
    piv = R[np.arange(len(pivots)), pivots]
    den = lcm(*piv)
    R[:len(pivots)] *= (den // piv)[:, None]
    return R, pivots, den


def rref(A: Matrix) -> RrefResult:
    """Reduced row-echelon form with deterministic first-nonzero pivoting."""
    if A.rows == 0 or A.cols == 0:
        return RrefResult(A, (), 0)
    R, pivots, den = _rref(A.data, A.field)
    return RrefResult(Matrix._of(A.field, R, den), tuple(pivots), len(pivots))


def rank(A: Matrix) -> int:
    return rref(A).rank


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
        return Subspace.row_space(A)

    @staticmethod
    def row_space(A: Matrix) -> "Subspace":
        """The span of the rows of A, a subspace of k^(A.cols)."""
        R, pivots, rk = rref(A)
        return Subspace(A.field, A.cols, Matrix._of(A.field, R.data[:rk], R.den), pivots)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _residual(self, w: np.ndarray) -> np.ndarray:
        """Each integer row of w minus its projection onto the subspace, over
        the basis denominator times that of w.

        The RREF basis is the identity on the pivot columns, so the
        projection has the pivot entries of w as its coordinates.
        """
        if self.dim == 0:
            return w
        f, B = self.field, self.basis
        proj = _dot(f, w[..., list(self.pivot_cols)], B.data)
        return f.reduce((w if B.den == 1 else w * B.den) - proj)

    def contains_rows(self, A: Matrix) -> bool:
        """Every row of A lies in the subspace."""
        if A.cols != self.ambient_dim or A.field != self.field:
            raise DimensionMismatch("rows live in a different ambient space")
        return not np.count_nonzero(self._residual(A.data))

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the RREF basis, or None if v is outside."""
        num, d = self.field.array(v)
        if np.count_nonzero(self._residual(num)):
            return None
        return tuple(_scalars(self.field, num[list(self.pivot_cols)], d))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.contains_rows(other.basis)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionMismatch("subspaces in different ambient spaces")


def subspace_sum(U: Subspace, *more: Subspace) -> Subspace:
    """U plus every subspace in ``more``: one reduction of all their basis rows."""
    for V in more:
        U._check_compatible(V)
    return Subspace.row_space(U.basis.vstack(*(V.basis for V in more)))


def _free_column_rows(R: Matrix, pivots: tuple, n: int) -> Matrix:
    """One row per non-pivot column c of the RREF rows R: the unit vector at c
    minus column c of R placed at the pivot slots.

    These rows span the kernel of R; as a map they project k^n onto the
    non-pivot coordinates with kernel the row space of R.
    """
    f = R.field
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = f.zeros((len(free), n))
    out[np.arange(len(free)), free] = R.den
    out[:, list(pivots)] = f.reduce(-R.data[:len(pivots), free].T)
    return Matrix._of(f, out, R.den)


def kernel_basis(A: Matrix) -> Subspace:
    """Canonical basis of {v : A v = 0} as a subspace of k^cols."""
    f = A.field
    n = A.cols
    if n == 0:
        return Subspace.zero(f, 0)
    if A.rows == 0:
        return Subspace.full(f, n)
    R, pivots, rk = rref(A)
    return Subspace.row_space(_free_column_rows(R, pivots, n))


class _Peeled(NamedTuple):
    batches: list        # each batch's pivot entries (r, c), by entry index, in peel order
    removed: np.ndarray  # per column: determined or forced to 0
    live: np.ndarray     # the entries left in remaining rows and columns: the core


def _peel(S: SparseSystem) -> _Peeled:
    """Structured Gaussian elimination without arithmetic (LaMacchia and
    Odlyzko): remove singletons from S until none is left.

    A column with one entry (r, c) in the remaining rows is determined by row
    r, which is removed with it; a row holding several such columns
    determines only one of them, the others are left with no entry.  A row
    with one entry (r, c) in the remaining columns forces x_c = 0, and column
    c is removed.  Each removed column adds 1 to the rank, and each kernel
    vector is its restriction to the remaining columns with the determined
    columns back-substituted.  No row of a batch holds a column determined in
    the same batch or earlier, so batches back-substitute in reverse order.
    """
    i, j = S.i, S.j
    row_alive, col_alive = np.ones(S.rows, bool), np.ones(S.cols, bool)
    live = np.arange(i.size)  # entries in remaining rows and columns
    batches = []
    while live.size:
        li, lj = i[live], j[live]
        single = live[np.bincount(lj, minlength=S.cols)[lj] == 1]
        if single.size:
            owner = np.full(S.rows, -1)  # one singleton entry per row, any one will do
            owner[i[single]] = single
            batches.append(owner[owner >= 0])
            row_alive[i[single]] = False
            col_alive[j[batches[-1]]] = False
            live = live[row_alive[li]]
            li, lj = i[live], j[live]
        forced = lj[np.bincount(li, minlength=S.rows)[li] == 1]
        if forced.size:
            col_alive[forced] = False
            live = live[col_alive[lj]]
        elif not single.size:
            break
    return _Peeled(batches, ~col_alive, live)


def _dense_core(S: SparseSystem, entries: np.ndarray):
    """(columns, core): the rows and columns of S that hold ``entries``, in
    ascending order, as a dense Matrix of those entries, and its columns."""
    rows, r = np.unique(S.i[entries], return_inverse=True)
    cols, c = np.unique(S.j[entries], return_inverse=True)
    core = S.field.zeros((rows.size, cols.size))
    core[r, c] = S.v[entries]
    return cols, Matrix._of(S.field, core)


def sparse_rank(S: SparseSystem) -> int:
    """Rank of the sparse system S: its peeled columns plus the rank of its core."""
    P = _peel(S)
    return int(np.count_nonzero(P.removed)) + rank(_dense_core(S, P.live)[1])


def sparse_block_ranks(S: SparseSystem, blocks: int):
    """An iterator of (block, rank) for each of the ``blocks`` diagonal
    blocks of S, a system whose block b has its entries only in the b-th of
    ``blocks`` equal spans of rows and of columns (``bristle_hom_system``).

    Blocks do not meet, so one ``_peel`` of S, done at once, peels each
    block as it would alone: a block's rank is its peeled columns, counted
    for all blocks with one bincount, plus the rank of its own dense core.
    The blocks the peel decided, with no core left, come first in block
    order; then the blocks with a core, in block order, each core
    eliminated only when the caller asks for its rank, so a caller that
    stops early ranks no more.
    """
    if S.cols == 0:
        return iter([(b, 0) for b in range(blocks)])
    width = S.cols // blocks
    P = _peel(S)
    ranks = np.bincount(np.flatnonzero(P.removed) // width, minlength=blocks)
    owner = S.j[P.live] // width
    order = np.argsort(owner, kind="stable")
    cored, starts = np.unique(owner[order], return_index=True)
    decided = np.ones(blocks, bool)
    decided[cored] = False
    return chain(((int(b), int(ranks[b])) for b in np.flatnonzero(decided)),
                 ((int(b), int(ranks[b]) + rank(_dense_core(S, part)[1]))
                  for b, part in zip(cored, np.split(P.live[order], starts[1:]))))


def sparse_blocks(S: SparseSystem, blocks: int) -> list:
    """The ``blocks`` diagonal blocks of S (as in ``sparse_block_ranks``),
    each as its own system, its entries in the order S lists them."""
    height, width = S.rows // blocks, S.cols // blocks
    owner = S.j // max(width, 1)
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(1, blocks))
    return [SparseSystem(S.field, height, width, S.i[e] - b * height, S.j[e] - b * width, S.v[e])
            for b, e in enumerate(np.split(order, bounds))]


def sparse_kernel_rows(S: SparseSystem) -> Matrix:
    """A basis of {x : S x = 0} as matrix rows, not in canonical form: use it
    where only the span matters, and ``sparse_kernel`` for the canonical one.

    The free columns and the kernel of the core give the kernel vectors K
    restricted to the unknowns left after peeling.  Then, last batch first,
    each batch fills in its columns x_c = -(sum of a_rk x_k over k != c) /
    a_rc with one elementwise product of its rows' entries with K and one
    summation per row.  Over GF(p) each product is reduced mod p before it
    is summed, since at p near 2^31 a sum of a few products passes 2^63;
    over Q the vectors are first scaled by the lcm of the batch's pivots
    a_rc, so the quotients are integers.
    """
    f = S.field
    P = _peel(S)
    core_cols, core_matrix = _dense_core(S, P.live)
    R, pivots, _ = rref(core_matrix)
    core = _free_column_rows(R, pivots, core_matrix.cols)
    free = P.removed.copy()
    free[core_cols] = True
    free = np.flatnonzero(~free)  # columns with no entry left: free unknowns
    den = core.den
    K = f.zeros((core.rows + free.size, S.cols))
    K[:core.rows, core_cols] = core.data
    K[core.rows + np.arange(free.size), free] = den
    # the batch of each entry's row, and the row's place in its batch
    batch_of_row, slot = np.full(S.rows, -1), np.zeros(S.rows, np.int64)
    for t, batch in enumerate(P.batches):
        batch_of_row[S.i[batch]] = t
        slot[S.i[batch]] = np.arange(batch.size)
    batch_of = batch_of_row[S.i]
    for t in reversed(range(len(P.batches))):
        # each row holds its pivot, whose column is still 0 in K, so every
        # slot has an entry: the entries by slot sum as runs of columns
        entries = np.flatnonzero(batch_of == t)
        entries = entries[np.argsort(slot[S.i[entries]], kind="stable")]
        batch, runs = P.batches[t], np.flatnonzero(np.diff(slot[S.i[entries]], prepend=-1))
        terms = f.reduce(K[:, S.j[entries]] * S.v[entries])
        sums = f.reduce(np.add.reduceat(terms, runs, axis=1))
        piv = S.v[batch]
        if f.is_finite:
            p = f.characteristic
            K[:, S.j[batch]] = f.reduce(-sums * np.array([pow(int(a), -1, p) for a in piv]))
        else:
            m = lcm(*piv)
            if m != 1:
                K *= m
                den *= m
            K[:, S.j[batch]] = -sums * (m // piv)
    return Matrix._of(f, K, den)


def sparse_kernel(S: SparseSystem) -> Subspace:
    """Canonical basis of {x : S x = 0}, the same subspace as ``kernel_basis``
    of S written out densely."""
    return Subspace.row_space(sparse_kernel_rows(S))


def joint_kernel(field: FieldSpec, dim: int, maps: Sequence[Matrix]) -> Subspace:
    """{v in k^dim : A v = 0 for every A in maps}, the kernel of the stacked maps."""
    if any(A.cols != dim or A.field != field for A in maps):
        raise DimensionMismatch("joint kernel of maps with different sources")
    return kernel_basis(Matrix.zeros(field, 0, dim).vstack(*maps))


def image_subspace(A: Matrix) -> Subspace:
    """Column space of A, canonically, as row vectors of length A.rows."""
    return Subspace.row_space(A.transpose())


def quotient_projection(U: Subspace) -> Matrix:
    """Canonical projection k^ambient -> k^(ambient - dim U) with kernel U.

    Coordinates on the quotient are the non-pivot columns of U's basis,
    taken in ascending order (greedy pivot completion).
    """
    return _free_column_rows(U.basis, U.pivot_cols, U.ambient_dim)


def embed_free_coordinates(U: Subspace) -> Matrix:
    """Section of quotient_projection: unit columns at the non-pivot slots."""
    pivot_set = set(U.pivot_cols)
    free = [c for c in range(U.ambient_dim) if c not in pivot_set]
    return Matrix.identity(U.field, U.ambient_dim).select_cols(free)
