"""Named module families: the two countable series outside the regular part,
and the explicit two-arrow family with one generator per projective point,
the point's image on the rational normal curve.
"""

from __future__ import annotations

from .bristles import BristlePoint
from .linalg import FieldSpec, Matrix
from .modules import (
    KroneckerModule,
    ar_translate,
    dual,
    injective_module,
    simple_module,
)


_PREINJECTIVES: dict = {}  # (n, field, t mod 2) -> [I_{t mod 2}, I_{t mod 2 + 2}, ...]


def preinjective(n: int, t: int, field: FieldSpec) -> KroneckerModule:
    """The t-th indecomposable preinjective: the simple at vertex 1 for t = 0,
    the injective at vertex 2 for t = 1, and I_t = tau I_{t-2} from there.

    Each I_t is built once per process: one list per (n, field, t mod 2) is
    extended by one translate per step.  Modules are immutable, so callers
    share them.
    """
    if t < 0:
        raise ValueError("index must be nonnegative")
    key = (n, field, t % 2)
    chain = _PREINJECTIVES.get(key)
    if chain is None:
        start = simple_module(n, field, 1) if t % 2 == 0 else injective_module(n, field)
        chain = _PREINJECTIVES[key] = [start]
    while len(chain) <= t // 2:
        chain.append(ar_translate(chain[-1]))
    return chain[t // 2]


def preprojective(n: int, t: int, field: FieldSpec) -> KroneckerModule:
    """The t-th indecomposable preprojective, as the dual of the t-th preinjective."""
    return dual(preinjective(n, t, field))


def n2_preinjective(t: int, field: FieldSpec) -> KroneckerModule:
    """Explicit two-arrow preinjective of dimension (t+1, t).

    Basis e_0..e_t upstairs, e'_1..e'_t downstairs; the first map shifts
    e_i -> e'_{i+1} (killing e_t), the second truncates e_i -> e'_i
    (killing e_0).
    """
    if t < 0:
        raise ValueError("index must be nonnegative")
    e = Matrix.identity(field, t + 1)
    return KroneckerModule((e.select_rows(range(t)), e.select_rows(range(1, t + 1))))


def n2_bristle_generator(t: int, point: BristlePoint) -> tuple:
    """Vector of n2_preinjective(t) generating the bristle at the point (a:b).

    It is the point's image (a^t, a^(t-1) b, ..., b^t) on the degree-t
    rational normal curve: the geometric series (1, c, ..., c^t) at (1:c),
    and e_t at (0:1).  Any t + 1 distinct points give independent vectors
    (a Vandermonde determinant).
    """
    a, b = point.coords
    return tuple(point.field.normalize(a ** (t - i) * b ** i) for i in range(t + 1))
