"""Exact linear algebra over prime fields GF(p) and the rationals.

Everything here is exact.  A field is its characteristic, 0 for Q.  A
``Matrix`` is one read-only integer numpy array over one positive
denominator, in the same format for both fields: over GF(p) int64 in
[0, p) over 1; over Q an object array of Python ints in lowest terms with
its denominator, so equal matrices hold equal integers.  Entries are
converted only on the way in (``FieldSpec.array``, ``from_rows``; a raw
``Matrix(...)`` is checked) and out (``row``, ``apply``: Python ``int`` or
``Fraction``, never numpy scalars).  Values are immutable and operations
pure.  The points of the projective space of k^dim over GF(q) are one
such matrix, ``projective_points``, from the base-q digits of its rows.

Each operation is one integer expression for both fields.  A product
multiplies the arrays and the denominators; stacking and block placement
bring their parts to the lcm of the denominators.  ``hom_system``, the one
Hom-system builder, lists only the nonzeros of a system, a ``SparseSystem``:
Hom(M_b, N) from a list of sources M_b of one dimension vector into one
module N, as one block-diagonal system with the nonzeros of N's stacked
maps tiled once per block.  The system of one pair of modules is its
one-block case, a sweep over bristles (the (1, 1) modules with scalar maps)
its case (1, 1), and the system of two cover representations that of their
push-downs on the unknowns that map each vertex's block into the same
vertex's block (``SparseSystem.select_cols``).  ``intertwines``, the one
intertwining guard, checks rows of such kernels arrow by arrow, with no
system.  ``sparse_rank`` and the sparse kernels peel its singleton rows and
columns without arithmetic and eliminate only the dense core that is left.
``sparse_block_ranks`` reads every block's rank, in block order, off one
peel of it: the peeled columns of each block from one count, and only the
blocks left with a core are eliminated, each through ``rank`` when the
caller reaches it.  ``sparse_block_kernels`` gives every block's kernel
from the same one peel: each block's core through ``rref``, then one
back-substitution per peel batch over an array of all blocks' kernel
vectors, in gathers of at most a fixed number of cells;
``sparse_block_kernels(S, 1)[0]`` are the kernel rows of one system.
``kernel_basis`` reads the canonical kernel of a dense matrix off one
elimination of its columns in reverse order.

Elimination never divides mid-way: it clears the pivot column c from each
row x with pivot row y as piv * x - x[c] * y and puts the row back in lowest
terms: reduced mod p over GF(p), divided by the gcd of its entries over Q.
Over GF(p) the pivot is scaled to 1 and a row not yet a pivot row is zero
left of c, so only columns c onwards change; over Q the gcd takes the whole
row, and the pivot rows are brought to the lcm of the pivots at the end.
``_rref`` makes reduced forms; ``_rank_stack`` ranks stacks.  ``_rref``
eliminates one matrix, gathering by index only the rows with a nonzero in
c (a single row needs no column loop at all); it serves ``rref`` and
everything built on it: ranks, kernels, canonical bases, sums of
subspaces, the dense cores of sparse systems, and, through its single-row
path, the canonical point of a line.  ``_rank_stack`` ranks a stack of
small matrices over GF(p) in one sweep of pivot steps by the same update,
each member with its own pivots, neither scaling a pivot to 1 nor clearing
above it.  It serves the subset search ``spanning_by_size`` (each level's
subsets, gathered as index sets) and ``subset_ranks``, whose callers all
enumerate bristles over a finite field.  It pays numpy's per-call cost once
per step for the stack, where ``_rref`` pays it per matrix.

Over GF(p) every intermediate product of an elimination stays below
p^2 < 2^62, so int64 arithmetic is exact.  A matrix product keeps one
bound for both fields: each operand's entries are at most m in absolute
value (p - 1 over GF(p), over Q the operand's largest |entry|), and while
inner length times m_a m_b stays below 2^62 no sum of products can leave
int64, so the product runs on int64; past it on Python integers.  Over Q
the result is an object array of Python ints again, so a ``Matrix`` over
Q keeps its format.  Below the bound a product whose dense form takes
more than 2^16 multiply-adds, and one of whose operands has fewer than
1/8 nonzeros (τ-translates and preinjectives have about one per row), adds
up the products of that operand's nonzeros, unreduced, and reduces mod p
at the end over GF(p): each output entry still sums at most inner-length
products, so the same bound keeps it exact.

Pivot choice is deterministic: first nonzero entry scanning columns left to
right, rows top to bottom.  A subspace is its basis in reduced row-echelon
form, with the pivot columns every projection reads; its field and ambient
dimension are the basis's, and ``rref`` gives the one a matrix's rows span.
So two subspaces are equal iff their basis matrices are entrywise equal; a
sum of subspaces extends the basis of its largest summand and eliminates
only what the others add to it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, gcd, lcm
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]
Vector = tuple


class DimensionMismatch(ValueError):
    """Operands live in incompatible spaces or over different fields."""


class CharacteristicError(ValueError):
    """A prime field was asked for with a characteristic that is not a prime
    in [2, 2^31): bad input, which the CLI and the module file refuse."""


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


def _require_prime(p: int):
    if not (2 <= p < 2**31 and is_prime(p)):
        raise CharacteristicError(f"characteristic must be a prime in [2, 2^31), got {p}")


@dataclass(frozen=True)
class FieldSpec:
    """Field context: GF(p) for a prime p, or the rationals (characteristic 0)."""

    characteristic: int

    def __post_init__(self):
        if self.characteristic:
            _require_prime(self.characteristic)

    @staticmethod
    def gf(p: int) -> "FieldSpec":
        _require_prime(p)  # refuses 0 too, which FieldSpec reads as Q
        return FieldSpec(p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @property
    def is_finite(self) -> bool:
        return self.characteristic != 0

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("the rationals are infinite")
        return self.characteristic

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

    # -- arrays of field elements ----------------------------------------------

    @property
    def dtype(self):
        return np.int64 if self.is_finite else object

    def array(self, values):
        """Nested sequences (or an array) of field entries as integers over one
        denominator, the pair (array, denominator): int64 reduced mod p over 1,
        or Python ints over the lcm of the entries' denominators over Q.

        Input that numpy reads as machine integers is taken as it is: over Q
        (any integer dtype) as its own numerators over 1, over GF(p) (a
        signed integer or bool dtype) reduced mod p.  Anything else (Fractions, Python ints past
        int64, floats, strings; bools over Q) goes entry by entry through
        ``Fraction`` over Q and ``normalize`` over GF(p), which map or
        refuse each entry."""
        a = np.asarray(values)
        if not self.is_finite:
            if a.dtype.kind in "iu":
                return a.astype(object), 1
            num, den = _integer_ratios(_to_fractions(np.array(values, dtype=object)))
            d = lcm(*den.flat)
            return num * (d // den), d
        if a.dtype.kind not in "ib":
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
GF = FieldSpec.gf


# (numerators, denominators) of an array of Fractions, one call per entry
_integer_ratios = np.frompyfunc(Fraction.as_integer_ratio, 1, 2)
_fraction_over = np.frompyfunc(Fraction, 2, 1)
_as_int = np.frompyfunc(operator.index, 1, 1)


def _scalars(field: FieldSpec, num: np.ndarray, den: int) -> list:
    """num / den as nested lists of Python ints (GF(p)) or Fractions (Q)."""
    return num.tolist() if field.is_finite else _fraction_over(num, den).tolist()


# a product whose dense form takes more multiply-adds than this, with an
# operand of fewer than 1/_SPARSE_DENSITY nonzeros, is summed over that
# operand's nonzeros; below it the dense product is faster
_SPARSE_MIN_WORK = 2**16
_SPARSE_DENSITY = 8


def _magnitude(a: np.ndarray) -> int:
    """The largest |entry| of an int64 array, as a Python int."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _dot(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integer product a @ b of two 2-d arrays, or of two stacks of
    them member by member, reduced mod p over GF(p).

    One bound decides the arithmetic for both fields.  Each operand has a
    magnitude m: p - 1 over GF(p), and over Q its largest |entry|, read
    off the operand (an entry past int64 is past the bound).  While inner
    length times m_a m_b stays below 2^62, no product and no sum of
    products can leave int64, and the product runs there; past the bound
    the same expression runs on Python integers.
    Below the bound a large 2-d product with a sparse operand is summed
    over that operand's nonzeros (``_sparse_dot``; a sparse right operand
    through the transposes), over the operand that gives fewer products
    when both are sparse.  Integer sums do not depend on their order, so
    every path gives the same integers; over Q they come back as an object
    array of Python ints, the format of a Matrix over Q.
    """
    p = field.characteristic
    if p:
        m_a = m_b = p - 1
    else:
        try:
            a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
            m_a, m_b = _magnitude(a), _magnitude(b)
        except OverflowError:  # an entry past int64; a and b are as given
            m_a = m_b = 2**62
    if a.shape[-1] * m_a * m_b >= 2**62:
        c = a.astype(object, copy=False) @ b.astype(object, copy=False)
        return (c % p).astype(np.int64) if p else c
    c = None
    n = b.shape[-1]
    work = a.size * n  # multiply-adds of the dense product
    if a.ndim == 2 and work > _SPARSE_MIN_WORK:
        # products of a scatter over a's nonzeros, and over b's
        cost_a = np.count_nonzero(a) * n
        cost_b = np.count_nonzero(b) * a.shape[0]
        if min(cost_a, cost_b) * _SPARSE_DENSITY < work:
            c = _sparse_dot(a, b, p) if cost_a <= cost_b else _sparse_dot(b.T, a.T, p).T
    if c is None:
        c = a @ b
        if p:
            np.remainder(c, p, out=c)
    return c if p else c.astype(object)


def _sparse_dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b of int64 arrays as, for each nonzero a[r, c], a[r, c] * b[c]
    added to row r, reduced mod p over GF(p) (p > 0) and left as it is
    over Q (p = 0).

    The nonzeros go in layers: layer t holds the t-th nonzero of every row
    that has one, so the rows of a layer are distinct, its products take no
    more cells than the output, and a plain indexed ``+=`` adds them up.
    Every output entry sums at most a.shape[1] products, unreduced, as the
    dense product does, so ``_dot``'s bound keeps it in int64.
    """
    r, c = np.nonzero(a)  # sorted by row
    layer = np.arange(r.size) - np.searchsorted(r, r)
    out = np.zeros((a.shape[0], b.shape[1]), np.int64)
    for t in range(int(layer.max(initial=-1)) + 1):
        rs, cs = r[layer == t], c[layer == t]
        prods = b[cs]
        prods *= a[rs, cs][:, None]
        out[rs] += prods
    return np.remainder(out, p, out=out) if p else out


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

    def split_rows(self, k: int) -> list:
        """The k blocks of equal height that stack to this matrix."""
        h = self.rows // k if k else 0
        return [self._with(self.data[j * h:(j + 1) * h]) for j in range(k)]

    def columns_of_rows(self, d: int, m: int) -> "Matrix":
        """Row r m + j is column j of row r read row-major as a d x m matrix:
        at m = 1 the rows themselves, with no copy."""
        a = self.data.reshape(self.rows, d, m).transpose(0, 2, 1)
        return self._with(a.reshape(self.rows * m, d), lowest=False)

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
        """This matrix's rows and then the others'; with no others, itself."""
        if not others:
            return self
        if any(o.cols != self.cols or o.field != self.field for o in others):
            raise DimensionMismatch("vstack shape/field mismatch")
        arrays, den = _numerators(self.field, (self,) + others)
        return Matrix._of(self.field, np.concatenate(arrays), den)

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows or self.field != other.field:
            raise DimensionMismatch("matmul shape/field mismatch")
        return Matrix._of(self.field, _dot(self.field, self.data, other.data), self.den * other.den)

    def apply(self, v: Sequence) -> Vector:
        """Apply to a column vector, returning the image as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        f = self.field
        num, d = f.array(v)
        return tuple(_scalars(f, _dot(f, self.data, num[:, None])[:, 0], self.den * d))

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


def projective_points(field: FieldSpec, dim: int) -> Matrix:
    """One point of each line of k^dim over GF(q), one row each with first
    nonzero 1, in lexicographic order: later leading positions first, as
    their rows start with more zeros, and within one the tails in product
    order, the base-q digits of 0, 1, ... with the most significant first."""
    q = field.order
    blocks = []
    for k in range(dim):  # k tail entries after the leading 1
        block = np.zeros((q**k, dim), np.int64)
        block[:, dim - 1 - k] = 1
        block[:, dim - k:] = np.arange(q**k)[:, None] // q ** np.arange(k - 1, -1, -1) % q
        blocks.append(block)
    return Matrix._of(field, np.concatenate(blocks) if blocks else np.zeros((0, 0), np.int64))


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

    def select_cols(self, cols: Sequence[int]) -> "SparseSystem":
        """The system on the unknowns ``cols`` alone, in the order given, the
        other unknowns set to 0: column t of the result is column cols[t]."""
        at = np.full(self.cols, -1)
        at[np.asarray(cols, np.int64)] = np.arange(len(cols))
        j = at[self.j]
        keep = j >= 0
        return SparseSystem(self.field, self.rows, len(cols), self.i[keep], j[keep], self.v[keep])


def hom_system(maps: Sequence[Matrix], sources: Matrix, dims: tuple) -> SparseSystem:
    """Hom(M_b, N) for a list of sources M_b as one block-diagonal system.

    N has the structure maps ``maps`` (each d2 x d1).  Every M_b has the
    dimension vector dims = (m1, m2), and row b of ``sources`` holds its
    maps, each m2 x m1, read row-major one after another.  Block b has the
    unknowns vec(F1) ++ vec(F2), F1 d1 x m1 and F2 d2 x m2 row-major, in
    columns b (d1 m1 + d2 m2) onwards, and for each arrow i the d2 m1 rows
    of F2 aM_i - a_i F1 = 0, entry (k, j) in row (i d2 + k) m1 + j.  The
    nonzeros of N's stacked maps [a_1; ...; a_n] are tiled once per j and
    once per block; each nonzero aM_i[l, j] of a source sits at F2[k, l] for
    every k.  Over Q every block is multiplied by the denominators of the
    maps and of the sources, which leaves its kernel as it is.
    """
    field = sources.field
    m1, m2 = dims
    d2, d1 = maps[0].rows, maps[0].cols
    arrays, den = _numerators(field, maps)
    A = np.concatenate(arrays)
    count, height, width = sources.rows, A.shape[0] * m1, d1 * m1 + d2 * m2
    block, j = np.arange(count)[:, None, None], np.arange(m1)
    # -a_i[k, c] at row (i d2 + k) m1 + j, column c m1 + j: F1[c, j]
    r, c = np.nonzero(A)
    x_v = field.reduce(-A[r, c] * sources.den).repeat(m1)
    x_i = block * height + (r * m1)[:, None] + j
    x_j = block * width + (c * m1)[:, None] + j
    # aM_i[l, j] at row (i d2 + k) m1 + j, column d1 m1 + k m2 + l: F2[k, l]
    aM = sources.data.reshape(count, len(maps), m2, m1)
    b, i, l, j = np.nonzero(aM)
    k = np.arange(d2)
    y_i = (b * height + i * (d2 * m1) + j)[:, None] + k * m1
    y_j = (b * width + l + d1 * m1)[:, None] + k * m2
    return SparseSystem(
        field, count * height, count * width,
        np.concatenate([x_i.ravel(), y_i.ravel()]), np.concatenate([x_j.ravel(), y_j.ravel()]),
        np.concatenate([x_v] * count + [(aM[b, i, l, j] * den).repeat(d2)]))


def intertwines(maps: Sequence[Matrix], sources: Matrix, dims: tuple, rows: Matrix,
                counts: Sequence[int]) -> bool:
    """Whether each row of ``rows`` is a morphism into N (maps ``maps``) from
    its source: the first counts[0] rows from M_0 (row 0 of ``sources``, as in
    ``hom_system`` with ``dims`` = (m1, m2)), the next counts[1] from M_1, and
    so on.  A row is vec(F1) ++ vec(F2) row-major; F2 aM_i = a_i F1 is checked
    with no Hom system, for arrows in groups that keep their maps and each
    side within ``_GATHER_CELLS`` cells (one arrow, so no map of N is copied,
    when it is large), and for the rows in runs that keep each side within
    ``_GUARD_CELLS`` cells, however many rows there are: the product side
    first, then the row-wise side, every F2 times its own source's aM_i,
    each over the other's denominator.
    """
    f, (m1, m2), K, (d2, d1) = sources.field, dims, rows.rows, maps[0].data.shape
    if not (K and m1 and d2):
        return True  # no equations
    # every F1's columns as rows (the rows themselves at m1 = 1), over rows.den
    F1 = rows.data[:, :d1 * m1].reshape(K, d1, m1).transpose(0, 2, 1)
    F2 = rows.data[:, d1 * m1:].reshape(K, 1, d2, m2)
    aM = sources.data.reshape(sources.rows, len(maps), m2, m1)
    owner = np.repeat(np.arange(sources.rows), counts)  # the source of each row
    step = max(_GATHER_CELLS // (d2 * max(d1, K * m1)), 1)
    for i in range(0, len(maps), step):
        a = maps[i].vstack(*maps[i + 1:i + step]) if step > 1 else maps[i]
        g = a.rows // d2
        run = max(_GUARD_CELLS // (m1 * g * d2), 1)  # rows per run: each side is run * m1 * g * d2
        for r in range(0, K, run):
            rs = slice(r, min(r + run, K))
            # both (r, j, i, k): (a_i F1_r)[k, j] and (F2_r aM_i)[k, j]
            product = _dot(f, F1[rs].reshape((rs.stop - r) * m1, d1), a.data.T).reshape(-1, m1, g, d2)
            rowwise = _dot(f, F2[rs], aM[owner[rs], i:i + g]).transpose(0, 3, 1, 2)
            if sources.den != 1 or a.den != 1:
                product, rowwise = product * sources.den, rowwise * a.den
            if (product != rowwise).any():
                return False
            del product, rowwise  # before the next run's sides are formed
    return True


# -- row reduction -----------------------------------------------------------

def _rref(a: np.ndarray, field: FieldSpec):
    """Gauss-Jordan elimination on a copy of the integer rows a, which span
    the row space of a over any denominator.

    The pivot is the first nonzero entry scanning columns left to right,
    rows top to bottom.  Clearing column c from a row x with pivot row y
    replaces x by piv * x - x[c] * y, put back in lowest terms, so no entry
    is ever divided.  Only the rows with a nonzero in column c are gathered,
    by index, and updated.  Over GF(p) the pivot has an inverse, so the
    pivot row is scaled to pivot 1 when it is chosen, and then x - x[c] * y
    is reduced mod p.  There every row that is not yet a pivot row, the new
    pivot row y among them, is zero left of c, so the scaling and the update
    touch only columns c onwards; each product is below p^2 < 2^62, so
    int64 stays exact.  Over Q each updated row is divided by the gcd of
    all its entries, so the whole row is updated, and each pivot row is
    multiplied at the end by lcm / piv, for the lcm of all pivots, which
    becomes the denominator.  The reduced row-echelon form depends only on
    the row space, so this gives the same matrix as dividing at every step.
    A single row needs no column loop: its first nonzero is the pivot, and
    the row is scaled to pivot 1 over GF(p), or over Q keeps its integers,
    times the sign of the pivot, over the pivot's absolute value.
    Returns (integer rows, pivot columns, denominator).
    """
    R = a.copy()
    m, n = R.shape
    p = field.characteristic
    if m == 1:
        nonzero = R[0].nonzero()[0]
        if not nonzero.size:
            return R, [], 1
        c = int(nonzero[0])
        piv = R[0, c]
        if not field.is_finite:
            if piv < 0:
                np.negative(R, out=R)
            return R, [c], abs(piv)
        if piv != 1:
            y = R[0, c:]
            y *= pow(int(piv), -1, p)
            y %= p
        return R, [c], 1
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        below = R[r:, c].nonzero()[0]
        if not below.size:
            continue
        if below[0]:
            i = r + int(below[0])
            R[[r, i]] = R[[i, r]]
        rows = R[:, c].nonzero()[0]
        rows = rows[rows != r]
        if field.is_finite:
            y = R[r, c:]
            if y[0] != 1:
                y *= pow(int(y[0]), -1, p)
                y %= p
            if rows.size:
                U = R[rows, c:]
                U -= U[:, :1] * y
                R[rows, c:] = np.remainder(U, p, out=U)
        elif rows.size:
            piv, U = R[r, c], R[rows]
            xy = U[:, c, None] * R[r]
            if piv != 1:
                U *= piv
            U -= xy
            g = np.gcd.reduce(U, axis=1)
            g[g == 0] = 1
            R[rows] = np.floor_divide(U, g[:, None], out=U)
        pivots.append(c)
    if field.is_finite or not pivots:
        return R, pivots, 1
    piv = R[np.arange(len(pivots)), pivots]
    den = lcm(*piv)
    R[:len(pivots)] *= (den // piv)[:, None]
    return R, pivots, den


def rref(A: Matrix) -> Subspace:
    """The row space of A: its reduced row-echelon form with deterministic
    first-nonzero pivoting, without the zero rows."""
    if A.rows == 0 or A.cols == 0:
        return Subspace.zero(A.field, A.cols)
    R, pivots, den = _rref(A.data, A.field)
    return Subspace(Matrix._of(A.field, R[:len(pivots)], den), tuple(pivots))


def rank(A: Matrix) -> int:
    return rref(A).dim


def _inverses(v: np.ndarray, p: int) -> np.ndarray:
    """The inverses mod p of the nonzero entries of v, all at once: v^(p-2)
    by repeated squaring, each product below p^2 < 2^62."""
    inv, e = np.ones(v.size, np.int64), p - 2
    while e:
        if e & 1:
            inv = inv * v % p
        v, e = v * v % p, e >> 1
    return inv


def _rank_stack(a: np.ndarray, p: int) -> np.ndarray:
    """The rank over GF(p) of every member a[k] of a (members, rows, cols)
    stack of entries in [0, p), all in one sweep of pivot steps, in place.

    At step r every member still live has r rows eliminated on top, so its
    open rows are rows r onwards.  Its next pivot is ``_rref``'s: the first
    nonzero of the open rows read column by column, from the first column
    no member has passed.  That row y is swapped into row r, and every open
    row x below it becomes piv * x - x[c] * y mod p, division-free
    (Bareiss), each product below p^2 < 2^62, on the columns from the
    step's first pivot column on (x and y are zero left of it).  A rank
    needs no pivot 1 and no rows cleared above the pivot.  A member with no
    open nonzero is done, so the sweep takes as many steps as the largest
    rank, plus one.
    """
    count, m, n = a.shape
    ranks = np.zeros(count, np.int64)
    live, start = np.arange(count), 0
    for r in range(min(m, n)):
        # each member's open entries read column by column and scored from
        # the first down: its best nonzero score marks its pivot
        width = (m - r) * (n - start)
        best = ((a[live, r:, start:] != 0).transpose(0, 2, 1).reshape(live.size, width)
                * np.arange(width, 0, -1)).max(axis=1)
        found = best > 0
        if not found.any():
            break
        c, i = np.divmod(width - best[found], m - r)
        live, c, i, at = live[found], c + start, i + r, np.arange(np.count_nonzero(found))
        y = a[live, i]
        a[live, i] = a[live, r]
        ranks[live] += 1
        start = int(c.min())
        U = a[live, r + 1:, start:]
        xc = U[at, :, c - start]
        U *= y[at, c][:, None, None]
        U -= xc[:, :, None] * y[:, None, start:]
        a[live, r + 1:, start:] = np.remainder(U, p, out=U)
        start += 1
        if start == n:
            break
    return ranks


@dataclass(frozen=True)
class Subspace:
    """Subspace of the row-vector space k^ambient_dim, basis in RREF.

    The canonical basis makes equality a plain comparison: two subspaces are
    equal iff their basis matrices agree entrywise.
    """

    basis: Matrix
    pivot_cols: tuple  # the column of each basis row's leading 1

    field = property(lambda self: self.basis.field)
    ambient_dim = property(lambda self: self.basis.cols)

    def __post_init__(self):
        if self.basis.rows != len(self.pivot_cols):
            raise ValueError("subspace basis inconsistent with its pivots")

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.zeros(field, 0, ambient_dim), ())

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(Matrix.identity(field, ambient_dim), tuple(range(ambient_dim)))

    @staticmethod
    def from_spanning(field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        A = Matrix.from_rows(field, vectors, cols=ambient_dim)
        if A.cols != ambient_dim:
            raise DimensionMismatch("spanning vectors have wrong length")
        return rref(A)

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
        proj = _dot(f, w[:, list(self.pivot_cols)], B.data)
        return f.reduce((w if B.den == 1 else w * B.den) - proj)

    def contains_rows(self, A: Matrix) -> bool:
        """Every row of A lies in the subspace."""
        if A.cols != self.ambient_dim or A.field != self.field:
            raise DimensionMismatch("rows live in a different ambient space")
        return not np.count_nonzero(self._residual(A.data))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.contains_rows(other.basis)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionMismatch("subspaces in different ambient spaces")


def subspace_sum(U: Subspace, *more: Subspace) -> Subspace:
    """U plus every subspace in ``more``, by extending the RREF basis B of
    the largest summand (the first of largest dimension).

    The other summands' basis rows are reduced against B (``_residual``),
    which leaves them zero at B's pivots P; when nothing is left, that
    summand is the sum, with no elimination.  Otherwise only the residual
    goes through ``rref``, giving RREF rows R' with pivots P' (not in P),
    and B is cleared at P': B' = B - B[:, P'] R', still the identity at P.
    The rows of B' and R' merged by pivot column are the RREF of the sum,
    which is unique, so the result equals ``rref`` of all the stacked bases
    entry for entry.
    """
    for V in more:
        U._check_compatible(V)
    base = max((U,) + more, key=lambda V: V.dim)
    others = [V.basis for V in (U,) + more if V is not base and V.dim]
    if not others:
        return base
    f, B = base.field, base.basis
    arrays, _ = _numerators(f, others)  # a scale of the rows spans the same space
    res = base._residual(np.concatenate(arrays))
    if not res.any():
        return base
    V = rref(Matrix._of(f, res))
    R, den, new = V.basis.data, V.basis.den, V.pivot_cols
    # B' and R' as integers over the one denominator B.den * den
    cleared = f.reduce((B.data if den == 1 else B.data * den) - _dot(f, B.data[:, new], R))
    pivots = base.pivot_cols + new
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    rows = np.concatenate([cleared, R if B.den == 1 else R * B.den])[order]
    return Subspace(Matrix._of(f, rows, B.den * den), tuple(pivots[i] for i in order))


# the most cells one stacked sweep takes (8 MB of int64), so that a long
# stack of members is reduced in bounded memory
_STACK_CELLS = 2**20
# the most cells one gather of ``_back_substitute`` (128 KB) takes, and one
# group of arrows of ``intertwines``: its stacked maps, and each side over all rows
_GATHER_CELLS = 2**14
# the most cells one side of ``intertwines`` takes for one run of rows (32 MB of int64)
_GUARD_CELLS = 2**22


def _swept(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    """The rank of every member of the (members, rows, cols) stack a, from
    ``_rank_stack`` in place, in runs of at most ``_STACK_CELLS`` cells.
    Over Q it raises ValueError: its callers enumerate bristles, which
    needs a finite field."""
    ranks = np.zeros(len(a), np.int64)
    if not a.size:
        return ranks
    if not field.is_finite:
        raise ValueError("the stacked sweep runs over GF(p) only")
    step = max(_STACK_CELLS // (a.shape[1] * a.shape[2]), 1)
    for s in range(0, len(a), step):
        ranks[s:s + step] = _rank_stack(a[s:s + step], field.characteristic)
    return ranks


def subset_ranks(A: Matrix, size: int) -> list:
    """The rank of every ``size`` rows of A over GF(p), in the order of
    ``itertools.combinations``, from one gathered stack and one sweep."""
    picks = np.array(list(combinations(range(A.rows), size)), np.int64).reshape(-1, size)
    return _swept(A.field, A.data[picks]).tolist()


def block_lines(A: Matrix, h: int) -> list:
    """For each block of h rows x_i of A, its first nonzero column c as
    scalars when the rows span one line, else None: exactly when c_i x_j =
    c_j x_i for all i, j, as then every row is a multiple of one.  Over Q,
    A's integers scale every entry alike.  No elimination is run."""
    f, d = A.field, A.cols
    blocks = A.data.reshape(A.rows // h, h, d)
    # the first nonzero column: each block's nonzero columns scored from the first down
    c = d - ((blocks != 0).any(axis=1) * np.arange(d, 0, -1)).max(axis=1, initial=0)
    live = np.nonzero(c < d)[0]
    col, B = blocks[live, :, c[live]], blocks[live]
    minors = f.reduce(col[:, :, None, None] * B[:, None] - col[:, None, :, None] * B[:, :, None])
    lines = ~(minors != 0).any(axis=(1, 2, 3))
    found = dict(zip(live[lines].tolist(), _scalars(f, col[lines], A.den)))
    return [found.get(b) for b in range(len(blocks))]


def spanning_by_size(stacks: Sequence[Matrix], counts: Sequence[int], max_size: int):
    """(spanning, decided): for each size s <= max_size, how many s-subsets
    of the groups of rows span the whole space of every stack, and how many
    s-subsets the search decided, which is all of them.  Group b is the
    next counts[b] rows of each stack over GF(p), as ``bristle_images``
    gives the traces of bristles, one stack per vertex.

    Each stack's nonzero rows are placed once in a zero-padded array
    [group, row, col].  The search goes level by level over the
    index-sorted subsets; level k holds its open k-subsets as arrays: their
    k group indices and, per stack, their ranks.  Each child, a parent
    grown by a group of larger index, is ruled out with its whole branch
    when the parent's rank plus the group's nonzero rows plus the most
    nonzero rows of the groups still available (a table; a group's rank is
    at most its nonzero rows) falls short in some stack.  Per stack, one
    gather of the rest's groups and one stacked sweep rank them, leaving
    out the children whose parent is full there or whose group is zero.  A
    child that spans decides all its supersets, counted from a table of
    binomials, not visited; the others make the next level, which is held
    alone: at most comb(len(counts), k) subsets, which the scenarios' cap
    bounds.
    """
    f, count = stacks[0].field, len(counts)
    binom = np.array([[comb(a, e) for e in range(max_size + 1)] for a in range(count + 1)], np.int64)
    spanning, decided = np.zeros(max_size + 1, np.int64), np.zeros(max_size + 1, np.int64)

    def tally(out, k, avail):
        """Add each k-subset and its supersets by up to max_size - k of its
        ``avail`` further groups: comb(avail, e) of size k + e."""
        out[k:] += binom[avail, :max_size + 1 - k].sum(axis=0)

    decided[0], spanning[0] = 1, all(S.cols == 0 for S in stacks)
    group = np.repeat(np.arange(count), counts)
    groups = []  # per stack: (rows, bound) of the groups
    for S in stacks:
        nonzero = S.data.any(axis=1)
        g = group[nonzero]
        dims = np.bincount(g, minlength=count).tolist()
        rows = f.zeros((count, max(dims, default=0), S.cols))
        rows[g, np.arange(g.size) - np.searchsorted(g, g)] = S.data[nonzero]
        # bound[b, e]: group b's nonzero rows plus the e most of the groups after it
        bound = np.array([list(accumulate(sorted(dims[b + 1:], reverse=True)[:max_size], initial=d))
                          + [0] * (max_size + b + 1 - count) for b, d in enumerate(dims)],
                         np.int64).reshape(count, max_size + 1)
        groups.append((rows, bound))
    sets, last, level = np.zeros((1, 0), np.int64), np.array([-1]), [np.zeros(1, np.int64)] * len(stacks)
    for k in range(1, max_size + 1):
        parent, j = np.nonzero(np.arange(count) > last[:, None])
        avail = count - 1 - j
        most = np.minimum(max_size - k, avail)
        reach = np.logical_and.reduce([ranks[parent] + bound[j, most] >= S.cols
                                       for ranks, (_, bound), S in zip(level, groups, stacks)])
        tally(decided, k, avail[~reach])  # no subset of the branch can span
        parent, j, avail, most = parent[reach], j[reach], avail[reach], most[reach]
        if not j.size:
            break
        grown = []
        for ranks, (rows, bound), S in zip(level, groups, stacks):
            ranks = ranks[parent]
            sweep = (ranks < S.cols) & (bound[j, 0] > 0)
            picks = np.column_stack([sets[parent[sweep]], j[sweep]])
            ranks[sweep] = _swept(f, rows[picks].reshape(len(picks), k * rows.shape[1], S.cols))
            grown.append(ranks)
        full = np.logical_and.reduce([ranks == S.cols for ranks, S in zip(grown, stacks)])
        tally(spanning, k, avail[full])  # every superset spans too
        tally(decided, k, avail[full])
        decided[k] += np.count_nonzero(~full)
        keep = ~full & (most > 0)
        sets, last = np.column_stack([sets[parent[keep]], j[keep]]), j[keep]
        level = [ranks[keep] for ranks in grown]
    return spanning.tolist(), decided.tolist()


def kernel_basis(A: Matrix) -> Subspace:
    """Canonical basis of {v : A v = 0} as a subspace of k^cols, from one
    elimination.

    ``quotient_projection`` of the row space (``rref``) of A with its
    columns reversed gives one kernel row per free column.  Read back in
    the original order, each has its unit at its free column and its other
    entries at pivots of later columns, so these rows, sorted by free
    column, are already in reduced row-echelon form with the free columns
    as pivots.
    """
    f, n = A.field, A.cols
    if n == 0:
        return Subspace.zero(f, 0)
    if A.rows == 0:
        return Subspace.full(f, n)
    R = rref(A._with(A.data[:, ::-1], lowest=False))
    K = quotient_projection(R)
    pivot_set = set(R.pivot_cols)
    free = [n - 1 - c for c in reversed(range(n)) if c not in pivot_set]
    return Subspace(K._with(K.data[::-1, ::-1], lowest=False), tuple(free))


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
    ascending order, as a dense Matrix of those entries, and its columns.
    An entry's place in the core is the count of held rows (columns)
    before its own, read off a mask of S's rows (columns), with no sort."""
    i, j = S.i[entries], S.j[entries]
    rows, cols = np.zeros(S.rows, bool), np.zeros(S.cols, bool)
    rows[i], cols[j] = True, True
    core = S.field.zeros((np.count_nonzero(rows), np.count_nonzero(cols)))
    core[(np.cumsum(rows) - 1)[i], (np.cumsum(cols) - 1)[j]] = S.v[entries]
    return np.flatnonzero(cols), Matrix._of(S.field, core)


def sparse_rank(S: SparseSystem) -> int:
    """Rank of the sparse system S: its peeled columns plus the rank of its core."""
    P = _peel(S)
    return int(np.count_nonzero(P.removed)) + (rank(_dense_core(S, P.live)[1]) if P.live.size else 0)


def _cored_blocks(S: SparseSystem, P: _Peeled, width: int):
    """(blocks, entries): the diagonal blocks of S, ``width`` columns each,
    that the peel P left with a core, in block order, and the live entries
    of each of their cores: none when the peel decided every block."""
    owner = S.j[P.live] // max(width, 1)
    order = np.argsort(owner, kind="stable")
    cored, starts = np.unique(owner[order], return_index=True)
    return cored, np.split(P.live[order], starts)[1:]


def sparse_block_ranks(S: SparseSystem, blocks: int):
    """An iterator of the rank of each of the ``blocks`` diagonal blocks of
    S, in block order, for a system whose block b has its entries only in
    the b-th of ``blocks`` equal spans of rows and of columns
    (``hom_system``).

    Blocks do not meet, so one ``_peel`` of S, done at once, peels each
    block as it would alone: a block's rank is its peeled columns, counted
    for all blocks with one bincount, plus the rank of its own dense core,
    if the peel left it one.  Each core is eliminated only when the caller
    reaches its block, so a caller that stops early ranks no more.
    """
    if S.cols == 0:
        return iter([0] * blocks)
    width = S.cols // blocks
    P = _peel(S)
    ranks = np.bincount(np.flatnonzero(P.removed) // width, minlength=blocks).tolist()
    cores = dict(zip(*_cored_blocks(S, P, width)))
    return (r + (rank(_dense_core(S, cores[b])[1]) if b in cores else 0) for b, r in enumerate(ranks))


def sparse_block_kernels(S: SparseSystem, blocks: int):
    """(rows, counts): a basis of the kernel of each of the ``blocks``
    diagonal blocks of S (as in ``sparse_block_ranks``) as rows as wide as
    a block, stacked in block order, and the number of rows of each block.
    The rows are not in canonical form: use them where only the span
    matters, and ``sparse_kernel`` for the canonical basis.

    One ``_peel`` of S serves every block, as it would each block alone.
    A block's vectors, restricted to the unknowns left after peeling, are
    the kernel of its dense core (the cores eliminated through ``rref`` in
    block order) and one unit vector per free column.  All blocks' vectors
    live in one array K[block, vector, column], with as many vectors per
    block as the largest block kernel has, padded with zero vectors.
    ``_back_substitute`` fills in the peeled columns of every block at
    once, one pass per peel batch in bounded gathers.  When all blocks have
    as many vectors, the stacked rows are K itself, reshaped.
    """
    f = S.field
    width = S.cols // blocks
    P = _peel(S)
    cored, parts = _cored_blocks(S, P, width)
    cores = []  # per cored block: the columns of its core and the core's kernel rows
    for part in parts:
        cols, core = _dense_core(S, part)
        cores.append((cols, quotient_projection(rref(core))))
    unknown = ~P.removed
    for cols, _ in cores:
        unknown[cols] = False
    free = np.flatnonzero(unknown)  # columns with no entry left: free unknowns
    free_block = free // max(width, 1)
    core_rows = np.zeros(blocks, np.int64)
    core_rows[cored] = [core.rows for _, core in cores]
    counts = core_rows + np.bincount(free_block, minlength=blocks)
    K = f.zeros((blocks, int(counts.max(initial=0)), width))
    for b, (cols, core) in zip(cored, cores):
        K[b][:core.rows, cols - b * width] = core.data
    # a block's free columns come after its core's vectors, in column order
    slot = core_rows[free_block] + np.arange(free.size) - np.searchsorted(free_block, free_block)
    K[free_block, slot, free - free_block * width] = 1
    _back_substitute(S, P.batches, K)
    valid = np.arange(K.shape[1]) < counts[:, None]
    rows = K.reshape(blocks * K.shape[1], width) if valid.all() else K[valid]
    return Matrix._of(f, rows), counts.tolist()


def _pivot_row_entries(S: SparseSystem, batches: list):
    """(entries, row_start): the entries of S in the rows of the peel
    batches, batch by batch and row by row within a batch, and where each
    such row starts: entries[row_start[r]:row_start[r + 1]] lie in the r-th
    row.  Each row holds its pivot, so none is empty."""
    rows = np.concatenate([S.i[batch] for batch in batches])
    at = np.full(S.rows, -1)
    at[rows] = np.arange(rows.size)
    at = at[S.i]  # the place of each entry's row among those rows, or -1
    row_start = np.cumsum(np.bincount(at[at >= 0] + 1, minlength=rows.size + 1))
    return np.argsort(at, kind="stable")[-row_start[-1]:].copy(), row_start


def _back_substitute(S: SparseSystem, batches: list, K: np.ndarray):
    """Fill in the peeled columns of the block kernels K[block, vector,
    column] of ``sparse_block_kernels``, last batch first: x_c = -(sum of
    a_rk x_k over k != c) / a_rc for the pivot a_rc of each row r of the
    batch.

    A batch gathers, at each entry of its rows, that column of the entry's
    block's vectors, scales it by the entry and sums per row, a run of
    whole rows of at most ``_GATHER_CELLS`` cells (or one row) at a time;
    each row's sum reads the same entries whatever the runs.  Over GF(p)
    each product is reduced mod p before it is summed, since at p near
    2^31 a sum of a few products passes 2^63, and the pivots are inverted
    by ``_inverses``.  Over Q each block's vectors are first scaled by the
    lcm of the batch's pivots in that block, so the quotients are integers;
    a kernel vector times a nonzero integer is still one.
    """
    blocks, vectors, width = K.shape
    if not batches or not vectors:
        return
    f = S.field
    step = max(_GATHER_CELLS // vectors, 1)  # entries in one gather
    entries, row_start = _pivot_row_entries(S, batches)
    batch_start = np.cumsum([0] + [batch.size for batch in batches])
    for t in reversed(range(len(batches))):
        r0, end = batch_start[t], batch_start[t + 1]
        pivot_block, pivot_col = np.divmod(S.j[batches[t]], width)
        piv = S.v[batches[t]]
        if f.is_finite:
            p = f.characteristic
            scale = _inverses(piv, p)
        else:
            order = np.argsort(pivot_block, kind="stable")
            present, starts = np.unique(pivot_block[order], return_index=True)
            m = np.ones(blocks, object)
            m[present] = [lcm(*g) for g in np.split(piv[order], starts[1:])]
            scaled = present[m[present] != 1]
            if scaled.size:
                K[scaled] *= m[scaled][:, None, None]
        while r0 < end:
            r1 = min(max(int(np.searchsorted(row_start, row_start[r0] + step, "right")) - 1, r0 + 1), end)
            e = entries[row_start[r0]:row_start[r1]]
            block, col = np.divmod(S.j[e], width)
            terms = K[block, :, col]
            terms *= S.v[e][:, None]
            if f.is_finite:
                np.remainder(terms, p, out=terms)
            sums = np.negative(np.add.reduceat(terms, row_start[r0:r1] - row_start[r0], axis=0))
            rows = slice(r0 - batch_start[t], r1 - batch_start[t])
            if f.is_finite:
                sums %= p
                sums *= scale[rows, None]
                sums %= p
            else:  # the sums are over the scaled vectors, so a_rc divides them
                sums //= piv[rows, None]
            K[pivot_block[rows], :, pivot_col[rows]] = sums
            r0 = r1


def sparse_kernel(S: SparseSystem) -> Subspace:
    """Canonical basis of {x : S x = 0}, the same subspace as ``kernel_basis``
    of S written out densely."""
    return rref(sparse_block_kernels(S, 1)[0])


def joint_kernel(field: FieldSpec, dim: int, maps: Sequence[Matrix]) -> Subspace:
    """{v in k^dim : A v = 0 for every A in maps}, the kernel of the stacked maps."""
    if any(A.cols != dim or A.field != field for A in maps):
        raise DimensionMismatch("joint kernel of maps with different sources")
    return kernel_basis(Matrix.zeros(field, 0, dim).vstack(*maps))


def image_subspace(A: Matrix) -> Subspace:
    """Column space of A, canonically, as row vectors of length A.rows."""
    return rref(A.transpose())


def quotient_projection(U: Subspace) -> Matrix:
    """Canonical projection k^ambient -> k^(ambient - dim U) with kernel U.

    Coordinates on the quotient are the non-pivot columns c of U's basis,
    in ascending order (greedy pivot completion); the row of c, the unit
    vector at c minus column c of the basis placed at the pivots, is also
    a kernel vector of the basis read as a map.
    """
    R, pivots = U.basis, U.pivot_cols
    f, n = R.field, R.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = f.zeros((len(free), n))
    out[np.arange(len(free)), free] = R.den
    out[:, list(pivots)] = f.reduce(-R.data[:, free].T)
    return Matrix._of(f, out, R.den)
