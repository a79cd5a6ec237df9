"""Every elimination of a scenario run rechecked by a reference that shares no
code with ``kronbrist.linalg``: sympy's ``DomainMatrix`` over GF(p) or QQ.

A fixture rebinds the public elimination entry points of ``linalg`` (``rank``,
``rref``, ``kernel_basis``, ``sparse_rank``, ``sparse_kernel``,
``sparse_block_ranks`` and ``sparse_block_kernels``) in every kronbrist module
that holds them, the way ``perfbench/tracing.py`` rebinds names, so every
call a scenario makes, and every call one entry point makes of another, is
answered by the library and then checked:

- ranks are equal, block by block for the block routines;
- the kernel rows of each block lie in that block's kernel, are
  independent, and number the block's nullity;
- ``rref``, ``kernel_basis`` and ``sparse_kernel`` equal the reference's
  canonical form, the reduced row-echelon form of its row space or of its
  null space, entry for entry, pivots included.

``sparse_block_ranks`` hands out its (block, rank) pairs lazily, and the
shadow checks each pair only as the caller draws it, so a caller that stops
early (``is_saturated`` at the first Hom dimension above the form) still
ranks no more blocks.  Over Q a matrix is its integers over one
denominator; the reference reads the integers, which span the same rows.

The runs are the 14 scenarios at their defaults and ``annihilated-lemma
--rational --n 4``, each of whose reports must still equal its golden.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from kronbrist import linalg  # noqa: E402
from kronbrist.linalg import QQ, FieldSpec, Matrix, SparseSystem  # noqa: E402
from kronbrist.scenarios import SCENARIOS, default_config, run_scenario  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
ENTRY_POINTS = ("rank", "rref", "kernel_basis", "sparse_rank", "sparse_kernel",
                "sparse_block_ranks", "sparse_block_kernels")


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
        pairs = real["sparse_block_ranks"](S, blocks)
        refs = list(_blocks(S, blocks))

        def drawn():
            seen = set()
            for b, r in pairs:
                assert b not in seen and r == refs[b].rank(), ("sparse_block_ranks", b)
                seen.add(b)
                calls["sparse_block_ranks"] += 1
                yield b, r
            assert seen == set(range(blocks)), "sparse_block_ranks left out a block"

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

    return {"rank": rank, "rref": rref, "kernel_basis": kernel_basis, "sparse_rank": sparse_rank,
            "sparse_kernel": sparse_kernel, "sparse_block_ranks": sparse_block_ranks,
            "sparse_block_kernels": sparse_block_kernels}


@pytest.fixture
def shadowed(monkeypatch):
    """Rebind every entry point wherever a kronbrist module holds it; the
    Counter it yields counts the checked calls of each."""
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_elimination_matches_the_reference(name, shadowed):
    report = run_scenario(RUNS[name]())
    assert report.to_json() == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert sum(shadowed.values()) > 0


def test_the_shadow_reaches_every_entry_point(shadowed):
    """The runs that together reach each entry point at least once, so no
    shadow is dead code."""
    for name in ("mu-ext", "main-theorem-b-bristle-orbits"):
        run_scenario(RUNS[name]())
    assert set(shadowed) == set(ENTRY_POINTS), shadowed


def test_the_shadow_catches_a_wrong_rank(shadowed, monkeypatch):
    """The shadow is live: dense cores with an identity stacked below them
    rank higher wherever they are short of full column rank, which the
    Hom systems of ``saturated-faithful`` often are, and the run fails."""
    real = linalg._dense_core

    def bigger_core(S, entries):
        cols, core = real(S, entries)
        return cols, core if core.rows == 0 else core.vstack(Matrix.identity(core.field, core.cols))

    monkeypatch.setattr(linalg, "_dense_core", bigger_core)
    with pytest.raises(AssertionError):
        run_scenario(RUNS["saturated-faithful"]())
