"""Every elimination of a scenario run rechecked by a reference that shares no
code with ``kronbrist.linalg``: sympy's ``DomainMatrix`` over GF(p) or QQ.

A fixture rebinds the public elimination entry points of ``linalg`` (``rank``,
``rref``, ``kernel_basis``, ``sparse_rank``, ``sparse_kernel``,
``sparse_block_ranks`` and ``sparse_block_kernels``) and its one intertwining
guard, ``intertwines``, in every kronbrist module that holds them, the way
``perfbench/tracing.py`` rebinds names, so every call a scenario makes, and
every call one entry point makes of another, is answered by the library and
then checked:

- ranks are equal, block by block for the block routines;
- the kernel rows of each block lie in that block's kernel, are
  independent, and number the block's nullity;
- ``rref``, ``kernel_basis`` and ``sparse_kernel`` equal the reference's
  canonical form, the reduced row-echelon form of its row space or of its
  null space, entry for entry, pivots included;
- the guard's verdict equals that of ``intertwines_row_by_row``, which checks
  one row and one arrow at a time in Python scalars.  The fixture makes the
  guard's row runs and arrow groups small, so its calls take several of each
  (and the back-substitution's gathers, which share ``_GATHER_CELLS``).

``sparse_block_ranks`` hands out its ranks lazily, in block order, and the
shadow checks each rank only as the caller draws it, so a caller that stops
early (``is_saturated`` at the first Hom dimension above the form) still
ranks no more blocks.  Over Q a matrix is its integers over one
denominator; the reference reads the integers, which span the same rows.

The runs are the 14 scenarios at their defaults, ``annihilated-lemma
--rational --n 4`` and six scenarios over GF(2^31 - 1), where every product
of inner length 2 or more leaves int64, each of whose reports must still
equal its golden, and the library calls of the benchmark's ``@rational-api``
item over Q (preinjective dimensions, generation by B0 and both Ext routes),
each of whose results must still be the one the benchmark expects: so
kernels and canonical bases over Q are checked entry for entry, not only
ranks.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from kronbrist import linalg, modules  # noqa: E402
from kronbrist.bristles import bristle_points  # noqa: E402
from kronbrist.families import preinjective  # noqa: E402
from kronbrist.linalg import GF, QQ, FieldSpec, InternalCheckFailed, Matrix, SparseSystem  # noqa: E402
from kronbrist.modules import KroneckerModule, ext1_dim, ext1_dim_via_resolution, hom_basis  # noqa: E402
from kronbrist.scenarios import SCENARIOS, default_config, run_scenario  # noqa: E402
from oracles import intertwines_row_by_row, rational_library_calls  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
LARGEST_PRIME = GF(2**31 - 1)  # the largest prime the CLI admits
ENTRY_POINTS = ("rank", "rref", "kernel_basis", "sparse_rank", "sparse_kernel",
                "sparse_block_ranks", "sparse_block_kernels", "intertwines")


# -- the reference ---------------------------------------------------------------

def _reference(field: FieldSpec, shape: tuple, i, j, v) -> DomainMatrix:
    """The matrix of the given shape with the nonzero v[t] at (i[t], j[t])."""
    K = sympy.GF(field.characteristic) if field.is_finite else sympy.QQ
    rows: dict = {}
    for r, c, x in zip(np.asarray(i).tolist(), np.asarray(j).tolist(), np.asarray(v).tolist()):
        rows.setdefault(r, {})[c] = K(x)
    return DomainMatrix(rows, shape, K)


def _of_matrix(A: Matrix) -> DomainMatrix:
    i, j = np.nonzero(A.data)
    return _reference(A.field, (A.rows, A.cols), i, j, A.data[i, j])


def _of_system(S: SparseSystem) -> DomainMatrix:
    return _reference(S.field, (S.rows, S.cols), S.i, S.j, S.v)


def _entries(field: FieldSpec, D: DomainMatrix) -> dict:
    """The nonzero entries of D as Python ints (GF(p)) or Fractions (Q)."""
    if field.is_finite:
        p = field.characteristic
        out = {rc: int(x) % p for rc, x in D.to_dok().items()}
    else:
        out = {rc: Fraction(int(x.numerator), int(x.denominator)) for rc, x in D.to_dok().items()}
    return {rc: x for rc, x in out.items() if x}


def _our_entries(A: Matrix) -> dict:
    i, j = np.nonzero(A.data)
    if A.field.is_finite:
        return {(r, c): int(A.data[r, c]) for r, c in zip(i.tolist(), j.tolist())}
    return {(r, c): Fraction(int(A.data[r, c]), A.den) for r, c in zip(i.tolist(), j.tolist())}


def _canonical_kernel(field: FieldSpec, D: DomainMatrix) -> tuple:
    """(entries, pivots) of the reduced row-echelon basis of D's null space."""
    rows, cols = D.shape
    if cols == 0:
        return {}, ()
    if rows == 0:
        return {(c, c): 1 for c in range(cols)}, tuple(range(cols))
    R, pivots = D.nullspace().rref()
    return _entries(field, R), tuple(pivots)


def _assert_canonical(U, entries: dict, pivots: tuple, what: str):
    assert U.pivot_cols == pivots, (what, U.pivot_cols, pivots)
    assert _our_entries(U.basis) == entries, what


def _blocks(S: SparseSystem, blocks: int):
    """Each diagonal block of S (``hom_system``'s layout) as a reference
    matrix in its own rows and columns."""
    h, w = S.rows // blocks, S.cols // blocks
    assert h * blocks == S.rows and w * blocks == S.cols
    owner = S.j // max(w, 1)
    for b in range(blocks):
        at = owner == b
        i, j = S.i[at] - b * h, S.j[at] - b * w
        assert ((0 <= i) & (i < h)).all(), "an entry outside its diagonal block"
        yield _reference(S.field, (h, w), i, j, S.v[at])


# -- the shadows -----------------------------------------------------------------

def _shadows(real: dict, calls: Counter) -> dict:
    def rank(A):
        r = real["rank"](A)
        assert r == _of_matrix(A).rank(), "rank"
        calls["rank"] += 1
        return r

    def rref(A):
        U = real["rref"](A)
        if A.rows and A.cols:
            R, pivots = _of_matrix(A).rref()
            _assert_canonical(U, _entries(A.field, R), tuple(pivots), "rref")
        else:
            _assert_canonical(U, {}, (), "rref")
        assert U.ambient_dim == A.cols
        calls["rref"] += 1
        return U

    def kernel_basis(A):
        U = real["kernel_basis"](A)
        _assert_canonical(U, *_canonical_kernel(A.field, _of_matrix(A)), "kernel_basis")
        calls["kernel_basis"] += 1
        return U

    def sparse_rank(S):
        r = real["sparse_rank"](S)
        assert r == _of_system(S).rank(), "sparse_rank"
        calls["sparse_rank"] += 1
        return r

    def sparse_kernel(S):
        U = real["sparse_kernel"](S)
        _assert_canonical(U, *_canonical_kernel(S.field, _of_system(S)), "sparse_kernel")
        calls["sparse_kernel"] += 1
        return U

    def sparse_block_ranks(S, blocks):
        ranks = real["sparse_block_ranks"](S, blocks)
        refs = list(_blocks(S, blocks))

        def drawn():
            b = -1
            for b, r in enumerate(ranks):
                assert b < blocks and type(r) is int and r == refs[b].rank(), ("sparse_block_ranks", b)
                calls["sparse_block_ranks"] += 1
                yield r
            assert b == blocks - 1, "sparse_block_ranks left out a block"

        return drawn()

    def sparse_block_kernels(S, blocks):
        H, counts = real["sparse_block_kernels"](S, blocks)
        w = S.cols // blocks
        assert (H.rows, H.cols, len(counts)) == (sum(counts), w, blocks)
        start = 0
        for ref, k in zip(_blocks(S, blocks), counts):
            K = _of_matrix(H.select_rows(range(start, start + k)))
            assert k == w - ref.rank(), "a block kernel short of the block's nullity"
            assert K.rank() == k, "dependent block kernel rows"
            assert not ref.matmul(K.transpose()).to_dok(), "a block kernel row outside the kernel"
            start += k
        calls["sparse_block_kernels"] += 1
        return H, counts

    def intertwines(maps, sources, dims, rows, counts):
        verdict = real["intertwines"](maps, sources, dims, rows, counts)
        assert verdict == intertwines_row_by_row(maps, sources, dims, rows, counts), "intertwines"
        calls["intertwines"] += 1
        return verdict

    return {"rank": rank, "rref": rref, "kernel_basis": kernel_basis, "sparse_rank": sparse_rank,
            "sparse_kernel": sparse_kernel, "sparse_block_ranks": sparse_block_ranks,
            "sparse_block_kernels": sparse_block_kernels, "intertwines": intertwines}


@pytest.fixture
def shadowed(monkeypatch):
    """Rebind every entry point wherever a kronbrist module holds it, and
    bound the guard's row runs and arrow groups (and the back-substitution's
    gathers) to a few cells; the Counter it yields counts the checked calls
    of each."""
    monkeypatch.setattr(linalg, "_GUARD_CELLS", 2**6)
    monkeypatch.setattr(linalg, "_GATHER_CELLS", 2**6)
    real = {name: getattr(linalg, name) for name in ENTRY_POINTS}
    calls: Counter = Counter()
    shadows = _shadows(real, calls)
    by_function = {fn: shadows[name] for name, fn in real.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name != "kronbrist" and not module_name.startswith("kronbrist."):
            continue
        for attr, obj in list(vars(module).items()):
            if callable(obj) and obj in by_function:
                monkeypatch.setattr(module, attr, by_function[obj])
    yield calls


# -- the runs ---------------------------------------------------------------------

RUNS = {name: lambda name=name: default_config(name) for name in SCENARIOS}
RUNS["annihilated-lemma-rational"] = lambda: default_config("annihilated-lemma", field=QQ, n=4)
# at the largest prime every product of inner length 2 or more leaves int64
# and runs on Python ints
for _name in ("cover-equalities", "tau-b1-cover", "annihilated-lemma", "cover-not-bristled",
              "bristled-layers", "indecomposable-generator"):
    RUNS[f"{_name}-q2147483647"] = lambda name=_name: default_config(name, field=LARGEST_PRIME)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_elimination_matches_the_reference(name, shadowed):
    report = run_scenario(RUNS[name]())
    assert report.to_json() == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert sum(shadowed.values()) > 0


def test_rational_library_calls_match_the_reference(shadowed):
    """Every elimination of the library calls over Q is checked, and every
    call still gives the benchmark's expected result."""
    calls = rational_library_calls()
    assert [name for name, expected, got in calls if got != expected] == []
    assert all(shadowed[name] for name in ("rref", "kernel_basis", "sparse_block_kernels")), shadowed


def _near_p_module(dims: tuple, rng: random.Random) -> KroneckerModule:
    """A module at n = 3 over GF(2^31 - 1), half its entries 0 and most of
    the rest within 2^8 of p."""
    p = LARGEST_PRIME.characteristic
    d1, d2 = dims
    return KroneckerModule(tuple(
        Matrix.from_rows(LARGEST_PRIME, [[rng.choice((0, 0, 0, 1, p - 1, rng.randrange(p - 2**8, p)))
                                          for _ in range(d1)] for _ in range(d2)], cols=d1)
        for _ in range(3)))


def test_library_calls_near_the_largest_prime_match_the_reference(shadowed):
    """Hom bases, block kernels of three sources and both Ext routes between
    random modules over GF(2^31 - 1) with entries near p, where three
    products near p^2 summed without reduction leave int64: every
    elimination and every guard verdict is checked, and the routes agree."""
    rng = random.Random(2**31 - 1)
    for _ in range(6):
        M = _near_p_module((rng.randrange(1, 4), rng.randrange(1, 4)), rng)
        N = _near_p_module((rng.randrange(2, 7), rng.randrange(1, 5)), rng)
        hom_basis(M, N)
        assert ext1_dim(M, N) == ext1_dim_via_resolution(M, N)
        sources = Matrix.vstack(*(modules._source(_near_p_module(M.dims, rng)) for _ in range(3)))
        modules._hom_rows(sources, M.dims, N, modules.sparse_block_kernels)
    assert all(shadowed[name] for name in ("sparse_kernel", "sparse_block_kernels", "intertwines")), shadowed


def test_the_shadow_reaches_every_entry_point(shadowed):
    """The runs that together reach each entry point at least once, so no
    shadow is dead code.  ``rank`` is reached only where a core is left to
    eliminate, as in ``tau-b1-cover``."""
    for name in ("mu-ext", "main-theorem-b-bristle-orbits", "tau-b1-cover"):
        run_scenario(RUNS[name]())
    assert set(shadowed) == set(ENTRY_POINTS), shadowed


def test_the_shadow_catches_a_wrong_rank(shadowed, monkeypatch):
    """The shadow is live: dense cores with an identity stacked below them
    rank higher wherever they are short of full column rank, which the
    Hom systems of ``saturated-faithful`` often are, and the run fails."""
    real = linalg._dense_core

    def bigger_core(S, entries):
        cols, core = real(S, entries)
        return cols, core.vstack(Matrix.identity(core.field, core.cols))

    monkeypatch.setattr(linalg, "_dense_core", bigger_core)
    with pytest.raises(AssertionError):
        run_scenario(RUNS["saturated-faithful"]())


def test_the_shadow_catches_a_guard_that_misses_a_row(shadowed, monkeypatch):
    """The guard's shadow is live: the bristle images of I_2 over GF(3) with
    one entry of their last row changed fail the guard in its last run of
    rows, and the library raises, as the reference's verdict agrees."""
    f = GF(3)
    checked = modules.sparse_block_kernels

    def corrupted(S, blocks):
        H, counts = checked(S, blocks)
        data = H.data.copy()
        data[-1, 0] = (data[-1, 0] + 1) % 3
        return Matrix(f, data), counts

    monkeypatch.setattr(modules, "sparse_block_kernels", corrupted)
    with pytest.raises(InternalCheckFailed, match="does not intertwine"):
        modules.bristle_images(bristle_points(3, f), preinjective(3, 2, f))
    assert shadowed["intertwines"] == 1
