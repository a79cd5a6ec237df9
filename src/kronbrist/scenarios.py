"""Scenario catalog: named, reproducible verification runs.

Each scenario builds the relevant modules, verifies a family of claims by
exact computation, and returns a Report whose serialization is byte-stable
for a fixed configuration.  Subset searches are exhaustive and refuse to run
when the subset count exceeds the hard cap (sampling would make a
"cannot be generated" verdict dishonest).
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Callable, Dict, List, NoReturn, Optional

from . import __version__
from .bristles import (
    bristle,
    bristle_points,
    bristle_types,
    canonical_set,
    enumerate_bristles,
    form_forces_extensions,
    is_bristled,
    is_saturated,
    pair_point,
    unit_point,
)
from .cover import (
    BASE,
    CoverSubrep,
    build_ball_rep,
    build_mu_bristle_rep,
    build_tau_bristle_rep,
    cover_bristle_at,
    cover_hom_dim,
    cover_is_bristled,
    cover_max_bristled,
    covered_pair_starts,
    extract_mij,
    injective_star,
    leaf_projective,
    leaves_of,
    subrep_subpair,
    verify_cover_equalities,
    w_component,
    y_component,
)
from .families import n2_bristle_generator, n2_preinjective, preinjective
from .linalg import (FieldSpec, Matrix, Subspace, kernel_basis, place_blocks, spanning_by_size,
                     subset_ranks, subspace_sum)
from .modules import (
    ISO,
    KroneckerModule,
    ar_translate,
    bristle_hom_dims,
    bristle_images,
    compose,
    coxeter_apply,
    direct_sum,
    end_dim,
    ext1_dim,
    find_isomorphism,
    hom_basis,
    images_span,
    is_faithful,
    is_generated_by,
    layers,
    quotient,
    random_module,
    simple_module,
    submodule_as_module,
)
from .modfile import parse_module_file
from .report import Check, Report

SUBSET_LIMIT = 100_000
DEFAULT_SEED = 1729
DEFAULT_ATTEMPTS = 64


class ScenarioConfigError(ValueError):
    """Unusable configuration: unknown scenario, wrong field, blown search cap."""


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n: int
    field: FieldSpec
    t_max: int
    seed: int = DEFAULT_SEED
    attempts: int = DEFAULT_ATTEMPTS
    module_path: Optional[str] = None
    module: Optional[KroneckerModule] = None  # the parsed --module file

    def echo(self) -> dict:
        out = {"n": self.n, "field": str(self.field), "t_max": self.t_max,
               "seed": self.seed, "attempts": self.attempts,
               "subset_limit": SUBSET_LIMIT}
        if self.module_path:
            out["module"] = self.module_path
        return out


def _derived_rng(seed: int, tag: str) -> random.Random:
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _require_finite(cfg: ScenarioConfig) -> tuple:
    if not cfg.field.is_finite:
        raise ScenarioConfigError(
            f"scenario {cfg.scenario} enumerates bristles and needs a finite field")
    return cfg.n, cfg.field


def _require_wild(cfg: ScenarioConfig) -> tuple:
    n, f = _require_finite(cfg)
    if n < 3:
        raise ScenarioConfigError(f"scenario {cfg.scenario} needs n >= 3")
    return n, f


def _require_two_arrows(cfg: ScenarioConfig) -> FieldSpec:
    _, f = _require_finite(cfg)
    if cfg.n != 2:
        raise ScenarioConfigError(f"scenario {cfg.scenario} is specific to n = 2")
    return f


def _refuse_subsets(shown) -> NoReturn:
    raise ScenarioConfigError(f"{shown} subsets exceed the exhaustive-search cap {SUBSET_LIMIT}; "
                              "refusing to sample a universally quantified claim")


def _subset_cap(count: int, shift: int = 0) -> int:
    """count 2^shift, refused past the cap.  A count of more than 64 bits is
    named by its power of two, from its bit length, and never formed: str()
    stops at 4300 digits, and 2^shift alone takes shift bits."""
    if (bits := count.bit_length() + shift) > 64:
        _refuse_subsets(f"over 2^{bits - 1}")
    if (count := count << shift) > SUBSET_LIMIT:
        _refuse_subsets(count)
    return count


def _point_count(q: int, n: int) -> int:
    """(q^n - 1)/(q - 1), the points of P^(n-1) over GF(q), not formed when
    q^(n-1) >= 2^e, e = (n - 1)(bit length of q - 1), has e > 2^20: then the
    searches' (n + 1)-subsets of the points number over 2^e, and are refused."""
    if (e := (n - 1) * (q.bit_length() - 1)) > 1 << 20:
        _refuse_subsets(f"over 2^{e}")
    return (q ** n - 1) // (q - 1)


def _subsets(points: int, size: int) -> int:
    """C(points, size), formed only when it has at most j log(points) <= 2^16 bits, j =
    min(size, points - size); else refused as over 2^(j m) <= C(points, j), 2^m <= points // j."""
    j = min(size, points - size)
    if j * points.bit_length() > 1 << 16:
        _refuse_subsets(f"over 2^{j * ((points // j).bit_length() - 1)}")
    return comb(points, size)


def _point_rows(images, counts: list, pts: list, chosen: list) -> list:
    """The rows that the ``bristle_images`` stacks ``images`` over the points
    ``pts`` hold for the points ``chosen``, in that order."""
    starts = list(accumulate(counts, initial=0))
    rows = [r for b in map(pts.index, chosen) for r in range(starts[b], starts[b + 1])]
    return [S.select_rows(rows) for S in images]


# -- scenario bodies -----------------------------------------------------------


def _scn_main_theorem_a(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    b0 = [bristle(p) for p in canonical_set("B0", n, f)]
    checks = []
    for t in range(cfg.t_max + 1):
        It = preinjective(n, t, f)
        checks.append(Check(
            f"generated-I{t}",
            "every preinjective module is generated by the canonical (n+2)-bristle set",
            True, is_generated_by(b0, It)))
        checks.append(Check(
            f"saturated-I{t}",
            "preinjective modules admit no extensions from any bristle",
            True, is_saturated(It)))
    for t, ordinal, formula, expected in ((2, "second", "n-1", n - 1),
                                          (3, "third", "n^2-n-1", n * n - n - 1)):
        if cfg.t_max >= t:
            It = preinjective(n, t, f)
            dims = sorted(set(bristle_hom_dims(bristle_points(n, f), It)))
            checks.append(Check(
                f"hom-into-I{t}-uniform",
                f"maps from each bristle into the {ordinal} preinjective span {formula} dimensions",
                [expected], dims))
    return checks


def _scn_main_theorem_b(cfg: ScenarioConfig) -> List[Check]:
    _require_finite(cfg)
    checks = []
    user = cfg.module
    if user is not None and (user.n, user.field) != (cfg.n, cfg.field):
        raise ScenarioConfigError(
            "user module quiver/field disagree with the scenario configuration")
    n, f = _require_wild(cfg)
    b0 = [bristle(p) for p in canonical_set("B0", n, f)]
    M = bristle(unit_point(n, f, 1))
    for t in range(1, cfg.t_max + 1):
        M = ar_translate(M)
        checks.append(Check(
            f"orbit-generated-t{t}",
            "every translate of a bristle is generated by the canonical set",
            True, is_generated_by(b0, M)))
        checks.append(Check(
            f"orbit-saturated-t{t}",
            "translates of a bristle are extension-free from bristles exactly from the second step on",
            t >= 2, is_saturated(M)))
    if user is not None:
        found, Mt = None, user
        for t in range(cfg.t_max + 1):
            Mt = ar_translate(Mt) if t else Mt
            if is_generated_by(b0, Mt) and is_saturated(Mt):
                found = t
                break
        checks.append(Check(
            "user-module-orbit-bound",
            "some translate within the search bound is generated by the canonical set and saturated",
            True, found is not None,
            details={"minimal_t": found, "t_max": cfg.t_max}))
    return checks


def _scn_optimality_i3(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    total = _subset_cap(_subsets(_point_count(f.order, n), n + 1))  # no point built yet
    I3 = preinjective(n, 3, f)
    X, Y, counts = bristle_images(bristle_points(n, f), I3)
    spanning, decided = spanning_by_size((X, Y), counts, n + 1)
    b0X, b0Y = _point_rows((X, Y), counts, enumerate_bristles(n, f), canonical_set("B0", n, f))
    return [
        Check("b0-generates-I3",
              "the canonical (n+2)-bristle set generates the third preinjective",
              True, images_span(I3, [b0X], [b0Y])),
        Check("subsets-tested",
              "the (n+1)-subset search over all bristles is exhaustive",
              total, decided[n + 1]),
        Check("generating-n+1-subsets",
              "no n+1 bristles generate the third preinjective: n+2 is optimal",
              0, spanning[n + 1]),
    ]


def _scn_opt_taub1(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    _subset_cap(_subsets(_point_count(f.order, n) - 1, n + 1))
    pts = enumerate_bristles(n, f)
    b1 = pts.index(unit_point(n, f, 1))
    T = ar_translate(bristle(pts[b1]))
    X, Y, counts = bristle_images(bristle_points(n, f), T)
    rest = counts[:b1] + counts[b1 + 1:]  # the Hom dimensions from the other points
    spanning, decided = spanning_by_size(_point_rows((X, Y), counts, pts, pts[:b1] + pts[b1 + 1:]),
                                         rest, n + 1)
    b1X, b1Y = _point_rows((X, Y), counts, pts, canonical_set("B1prime", n, f))
    return [
        Check("taub1-dims",
              "the translate of the first unit bristle has dimension vector Phi(1,1)",
              list(coxeter_apply((1, 1), n)), list(T.dims)),
        Check("b1prime-generates",
              "the unit-1 bristle plus all consecutive pairs generate the translate",
              True, images_span(T, [b1X], [b1Y])),
        Check("subsets-avoiding-b1-generating",
              "no n+1 bristles avoiding the unit-1 bristle generate its translate",
              0, spanning[n + 1], details={"subsets_tested": decided[n + 1]}),
        Check("hom-b1-into-taub1",
              "maps from the unit-1 bristle into its translate span n-1 dimensions",
              n - 1, counts[b1]),
        Check("hom-others-into-taub1",
              "maps from any other bristle into the translate span n-2 dimensions",
              [n - 2], sorted(set(rest))),
    ]


def _scn_n2_generation(cfg: ScenarioConfig) -> List[Check]:
    f = _require_two_arrows(cfg)
    _subset_cap(cfg.t_max + 1, f.order + 1)  # 2^(q+1) (t+1): P^1 has q + 1 points
    pts = enumerate_bristles(2, f)
    checks = []
    for t in range(cfg.t_max + 1):
        It = n2_preinjective(t, f)
        X, Y, counts = bristle_images(bristle_points(2, f), It)
        spanning, decided = spanning_by_size((X, Y), counts, len(pts))
        # a subset counts as a violation unless it was decided the law's way
        violations = sum(comb(len(pts), size) - (spanning[size] if size >= t + 1
                                                 else decided[size] - spanning[size])
                         for size in range(len(pts) + 1))
        checks.append(Check(
            f"generation-law-t{t}",
            "a two-arrow preinjective of index t is generated by a bristle subset "
            "exactly when the subset has more than t elements",
            0, violations, details={"subsets": 2 ** len(pts)}))
        gens = Matrix.from_rows(f, [list(n2_bristle_generator(t, p)) for p in pts], cols=t + 1)
        checks.append(Check(
            f"generator-independence-t{t}",
            "geometric-series generators for distinct slopes are linearly independent",
            0, sum(r != t + 1 for r in subset_ranks(gens, t + 1))))
        if t >= 1:
            checks.append(Check(
                f"generator-types-t{t}",
                "the slope-c generator spans a bristle of slope c",
                0, sum(got != p for p, got in zip(pts, bristle_types(It, gens)))))
        iso = find_isomorphism(It, preinjective(2, t, f), attempts=cfg.attempts)
        checks.append(Check(
            f"explicit-matches-translate-t{t}",
            "the explicit two-arrow family agrees with the translate construction",
            ISO, iso.status))
    return checks


def _scn_n2_classification(cfg: ScenarioConfig) -> List[Check]:
    f = _require_two_arrows(cfg)
    q = f.order
    checks = []
    for t in range(cfg.t_max + 1):
        It = preinjective(2, t, f)
        checks.append(Check(
            f"bristled-I{t}",
            "a two-arrow preinjective is bristled exactly when its index is at most the field size",
            t <= q, is_bristled(It)))
        checks.append(Check(
            f"saturated-I{t}",
            "two-arrow preinjectives admit no extensions from bristles",
            True, is_saturated(It)))
    checks.append(Check(
        "saturated-S2",
        "the simple at the sink admits extensions from every bristle",
        False, is_saturated(simple_module(2, f, 2))))
    checks.append(Check(
        "saturated-bristles",
        "no bristle is extension-free from bristles",
        0, sum(is_saturated(bristle(p)) for p in enumerate_bristles(2, f))))
    return checks


def _scn_cover_equalities(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    X = build_ball_rep(n, f)
    equalities, paths = verify_cover_equalities(X)
    checks = []
    for key, ok in equalities:
        checks.append(Check(
            "eq-" + key,
            "the ball representation decomposes into leaf projectives, wedges and path bristles",
            True, ok))
    iso = find_isomorphism(X.pushed, preinjective(n, 2, f), attempts=cfg.attempts)
    checks.append(Check(
        "pushdown-is-I2",
        "the ball representation pushes down to the second preinjective",
        ISO, iso.status))
    pair_starts = list(range(1, n - 1)) + [n]
    census: Dict[str, int] = {}
    for _leaf, tp in leaves_of(X):
        if tp in (n - 1, n):
            census[f"unit-{tp}"] = census.get(f"unit-{tp}", 0) + 1
    for i in pair_starts:
        key = f"pair-{i}-{i % n + 1}"
        used = sum(1 for j in range(1, n + 1) if i in covered_pair_starts(n, j))
        census[key] = used + 1  # wedge bristles plus the path bristle
    checks.append(Check(
        "census-per-type",
        "each of the n+1 bristle types used appears exactly n-1 times",
        [n - 1], sorted(set(census.values()))))
    checks.append(Check(
        "census-total",
        "generating the second preinjective uses (n+1)(n-1) bristles in total",
        (n + 1) * (n - 1), sum(census.values())))
    mij_bad = 0
    for i in pair_starts:
        jpair = i % n + 1
        sub, _ = submodule_as_module(paths[min(i, jpair), max(i, jpair)][1])
        if find_isomorphism(sub, bristle(pair_point(n, f, i, jpair)),
                            attempts=cfg.attempts).status != ISO:
            mij_bad += 1
    checks.append(Check(
        "path-bristle-types",
        "every extracted path bristle is isomorphic to its consecutive pair type",
        0, mij_bad))
    return checks


def _scn_tau_b1_cover(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    X = build_tau_bristle_rep(n, f)
    pushed = X.pushed
    T = ar_translate(bristle(unit_point(n, f, 1)))
    checks = [
        Check("pruned-ball-dims",
              "the pruned ball pushes down to dimension vector Phi(1,1)",
              list(coxeter_apply((1, 1), n)), list(pushed.dims)),
        Check("pushdown-is-taub1",
              "the pruned ball pushes down to the translate of the unit-1 bristle",
              ISO, find_isomorphism(pushed, T, attempts=cfg.attempts).status),
    ]
    type1 = [leaf for leaf, tp in leaves_of(X) if tp == 1]
    b1 = bristle(unit_point(n, f, 1))
    bad = sum(submodule_as_module(subrep_subpair(leaf_projective(X, leaf)))[0] != b1 for leaf in type1)
    checks.append(Check(
        "leaf-b1-submodules",
        "each type-1 leaf pushes down to a submodule equal to the unit-1 bristle",
        [n - 1, 0], [len(type1), bad]))
    counts = Counter(tp for _, tp in leaves_of(X))
    checks.append(Check(
        "leaf-counts-high-types",
        "the pruned ball has n-2 leaves of each of the two highest types",
        [n - 2, n - 2], [counts[n - 1], counts[n]]))
    paths = [w_component(X, i, i + 1) for i in range(2, n)]
    parts = [subrep_subpair(y_component(X, j)) for j in range(2, n + 1)]
    parts += [extract_mij(w, i, i + 1)[0] for i, w in enumerate(paths, 2)]
    checks.append(Check(
        "generation-sum",
        "branch push-downs plus interior path bristles generate the whole translate",
        True, subspace_sum(*(part.U1 for part in parts)).is_full()
        and subspace_sum(*(part.U2 for part in parts)).is_full()))
    lines = [w.spaces[BASE].basis.row(0) for w in paths]
    span = Subspace.from_spanning(f, n - 2, lines)
    checks.append(Check(
        "center-decomposition",
        "the pruned center splits into the interior consecutive path lines",
        n - 2, span.dim))
    return checks


def _scn_mu_ext(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    X = build_mu_bristle_rep(n, f)
    pushed = X.pushed
    tdims = coxeter_apply((1, 1), n)
    checks = [
        Check("mu-dims",
              "the middle term over a bristle has the translate's dimensions plus (1,1)",
              [tdims[0] + 1, tdims[1] + 1], list(pushed.dims)),
    ]
    # the pruned-ball part sits inside: center vectors killed by label 1,
    # all leaves, and the sinks other than (1,)
    thin = [leaf for leaf, _tp in leaves_of(X)] + [(j,) for j in range(2, n + 1)]
    spaces = {v: Subspace.full(f, X.dim(v)) for v in thin}
    spaces[BASE] = kernel_basis(X.arrow(BASE, 1))
    tau_pair = subrep_subpair(CoverSubrep(X, spaces))
    checks.append(Check(
        "tau-subobject-dims",
        "the middle term contains the translate with dimension vector Phi(1,1)",
        list(tdims), list(tau_pair.dims)))
    quot, proj = quotient(tau_pair)
    b1 = bristle(unit_point(n, f, 1))
    checks.append(Check(
        "quotient-by-translate-is-b1",
        "the middle term modulo the translate is the unit-1 bristle",
        ISO, find_isomorphism(quot, b1, attempts=cfg.attempts).status))
    # a section of the quotient projection would split the extension; since
    # the class space is one-dimensional, non-splitness pins the middle term
    # of the almost-split sequence up to isomorphism
    sections = [compose(proj, h) for h in hom_basis(b1, pushed)]
    checks.append(Check(
        "extension-non-split",
        "no map from the bristle lifts to a section of the quotient projection",
        True, all(s.is_zero() for s in sections)))
    checks.append(Check(
        "extension-class-unique",
        "extensions of the bristle by its translate form a one-dimensional space",
        1, ext1_dim(b1, ar_translate(b1))))
    checks.append(Check(
        "ext-b1-into-mu",
        "extensions of the bristle by its middle term form an (n-1)-dimensional space",
        n - 1, ext1_dim(b1, pushed)))
    checks.append(Check(
        "mu-not-bristled",
        "the middle term over a bristle is not generated by length-two modules",
        False, is_bristled(pushed)))
    return checks


def _scn_saturated_faithful(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_finite(cfg)
    rng = _derived_rng(cfg.seed, f"saturated-faithful:{n}:{f}")
    samples = 200
    found = 0
    bad = 0
    for _ in range(samples):
        M = random_module(n, f, rng, 6, 4)
        if M.is_zero() or M.dims in ((1, 0), (0, 1)):
            continue
        # pure predicates, cheapest first: the bilinear form refuses most
        # samples by their dimension vector alone, before any Hom system
        if form_forces_extensions(M) or end_dim(M) != 1 or not is_saturated(M):
            continue
        found += 1
        if not is_faithful(M):
            bad += 1
    return [Check(
        "non-faithful-saturated-bricks",
        "an indecomposable module without bristle extensions is simple or faithful",
        0, bad, details={"samples": samples, "saturated_bricks_found": found})]


def _scn_annihilated_lemma(cfg: ScenarioConfig) -> List[Check]:
    n, f = cfg.n, cfg.field
    if n < 2:
        raise ScenarioConfigError("the annihilator bound needs n >= 2")
    rng = _derived_rng(cfg.seed, f"annihilated:{n}:{f}")
    b1 = bristle(unit_point(n, f, 1))
    samples = 100
    violations = 0
    for _ in range(samples):
        M = random_module(n, f, rng, 4, 4, zero_map_index=n - 1)
        if ext1_dim(b1, M) < M.dim2:
            violations += 1
    return [Check(
        "ext-lower-bound-violations",
        "if the last structure map vanishes, extensions of M by the unit-1 bristle "
        "are at least dim M2",
        0, violations, details={"samples": samples})]


def _scn_cover_not_bristled(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    X = build_ball_rep(n, f)
    homs = [cover_hom_dim(cover_bristle_at(n, f, BASE, i), X) for i in range(1, n + 1)]
    checks = [
        Check("center-bristle-homs",
              "no map from a center bristle into the ball representation",
              [0] * n, homs),
        Check("ball-not-bristled",
              "the ball representation strictly contains its bristled part",
              False, cover_is_bristled(X)),
    ]
    stars = [cover_is_bristled(injective_star(n, f, j)) for j in range(1, n + 1)]
    checks.append(Check(
        "injective-stars-bristled",
        "every injective star equals its bristled part",
        [True] * n, stars))
    sub = cover_max_bristled(X)
    checks.append(Check(
        "bristled-part-avoids-center",
        "the bristled part of the ball has nothing at the center",
        0, sub.dim(BASE)))
    return checks


def _scn_bristled_layers(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_finite(cfg)
    fixtures = []
    if n >= 3:
        for t in range(min(cfg.t_max, 3) + 1):
            fixtures.append((f"I{t}", preinjective(n, t, f)))
        tauB1 = ar_translate(bristle(unit_point(n, f, 1)))
        fixtures.append(("tauB1", tauB1))
        fixtures.append(("tau2B1", ar_translate(tauB1)))
        for p in canonical_set("B0", n, f):
            fixtures.append((f"bristle{p}", bristle(p)))
    else:
        q = f.order
        for t in range(min(q, cfg.t_max) + 1):
            fixtures.append((f"I{t}", preinjective(n, t, f)))
        for p in enumerate_bristles(n, f):
            fixtures.append((f"bristle{p}", bristle(p)))
    checks = []
    for name, M in fixtures:
        lay = layers(M)
        top_len = lay.top_dims[0] + lay.top_dims[1]
        soc_len = lay.soc_dims[0] + lay.soc_dims[1]
        checks.append(Check(
            f"top-vs-socle-{name}",
            "an indecomposable bristled module has top at least as long as its socle",
            True, top_len >= soc_len,
            details={"top": top_len, "socle": soc_len}))
        homogeneous = lay.soc_dims[0] == 0 or lay.soc_dims[1] == 0
        checks.append(Check(
            f"homogeneous-socle-{name}",
            "the socle of an indecomposable bristled module is isotypic",
            True, homogeneous))
    return checks


def _scn_indecomposable_generator(cfg: ScenarioConfig) -> List[Check]:
    n, f = _require_wild(cfg)
    rng = _derived_rng(cfg.seed, f"indecomposable-generator:{n}:{f}")
    b0pts = canonical_set("B0", n, f)
    C = direct_sum(*(bristle(p) for p in b0pts))
    A = bristle(unit_point(n, f, 1))
    found = None
    for _ in range(cfg.attempts):
        xi = [[rng.randrange(f.order) for _ in range(C.dim1)] for _ in range(n)]
        # alpha_i = [A_i xi_i; 0 C_i]: A on top, C below, xi the extension
        alphas = tuple(place_blocks(f, 1 + C.dim2, 1 + C.dim1, [
            (0, 0, A.alphas[i]), (0, 1, Matrix.from_rows(f, [xi[i]])), (1, 1, C.alphas[i])])
            for i in range(n))
        E = KroneckerModule(alphas)
        if end_dim(E) == 1:
            found = E
            break
    checks = [Check(
        "found-indecomposable-extension",
        "some extension of the canonical bristle sum by the unit-1 bristle is a brick "
        "(failure to find within the attempt budget is not a disproof)",
        True, found is not None,
        details={"attempts": cfg.attempts})]
    if found is not None:
        checks.append(Check(
            "extension-dims",
            "the brick extension has dimension vector (n+3, n+3)",
            [n + 3, n + 3], list(found.dims)))
        for t in range(cfg.t_max + 1):
            checks.append(Check(
                f"extension-generates-I{t}",
                "the brick extension generates every preinjective it is tested against",
                True, is_generated_by([found], preinjective(n, t, f))))
    return checks


# -- registry and runner --------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    func: Callable[[ScenarioConfig], List[Check]]
    description: str
    default_n: int = 3
    default_q: int = 5
    default_tmax: int = 4


SCENARIOS: Dict[str, ScenarioSpec] = {
    "main-theorem-a": ScenarioSpec(
        _scn_main_theorem_a,
        "preinjectives are generated by the canonical bristle set and saturated",
        default_tmax=4),
    "main-theorem-b-bristle-orbits": ScenarioSpec(
        _scn_main_theorem_b,
        "bristle translates are generated by the canonical set; saturated from step two",
        default_tmax=3),
    "optimality-I3": ScenarioSpec(
        _scn_optimality_i3,
        "no n+1 bristles generate the third preinjective",
        default_q=2, default_tmax=3),
    "opt-taub1": ScenarioSpec(
        _scn_opt_taub1,
        "generating the translate of a bristle requires that bristle itself",
        default_q=2, default_tmax=3),
    "n2-generation": ScenarioSpec(
        _scn_n2_generation,
        "two-arrow generation law: index-t preinjective needs t+1 bristles",
        default_n=2, default_q=2, default_tmax=3),
    "n2-classification": ScenarioSpec(
        _scn_n2_classification,
        "two-arrow classification of bristled and saturated modules",
        default_n=2, default_q=2, default_tmax=4),
    "cover-equalities": ScenarioSpec(
        _scn_cover_equalities,
        "tree-cover decomposition identities for the second preinjective",
        default_tmax=3),
    "tau-b1-cover": ScenarioSpec(
        _scn_tau_b1_cover,
        "pruned-cover construction of the bristle translate",
        default_tmax=3),
    "mu-ext": ScenarioSpec(
        _scn_mu_ext,
        "middle term over a bristle: extension dimension and non-bristledness",
        default_tmax=3),
    "saturated-faithful": ScenarioSpec(
        _scn_saturated_faithful,
        "random search: saturated non-simple bricks must be faithful",
        default_tmax=3),
    "annihilated-lemma": ScenarioSpec(
        _scn_annihilated_lemma,
        "annihilated modules have large extension spaces from the unit-1 bristle",
        default_tmax=3),
    "cover-not-bristled": ScenarioSpec(
        _scn_cover_not_bristled,
        "tree-cover preinjectives are not bristled; injective stars are",
        default_tmax=3),
    "bristled-layers": ScenarioSpec(
        _scn_bristled_layers,
        "layer inequalities and socle homogeneity on the bristled fixtures",
        default_tmax=3),
    "indecomposable-generator": ScenarioSpec(
        _scn_indecomposable_generator,
        "search for a brick extension generating the preinjectives",
        default_tmax=3),
}


def _spec(scenario: str) -> ScenarioSpec:
    spec = SCENARIOS.get(scenario)
    if spec is None:
        known = ", ".join(sorted(SCENARIOS))
        raise ScenarioConfigError(f"unknown scenario {scenario!r}; known: {known}")
    return spec


def default_config(scenario: str, n: Optional[int] = None, field: Optional[FieldSpec] = None,
                   t_max: Optional[int] = None, seed: Optional[int] = None,
                   attempts: Optional[int] = None, module_path: Optional[str] = None,
                   module_text: Optional[str] = None) -> ScenarioConfig:
    spec = _spec(scenario)
    user = None
    if module_text is not None:
        # a user module fixes the quiver and the field; explicit flags must agree
        user = parse_module_file(module_text)
        if n is not None and n != user.n:
            raise ScenarioConfigError(f"--n {n} disagrees with the module file (n={user.n})")
        if field is not None and field != user.field:
            raise ScenarioConfigError(
                f"field {field} disagrees with the module file ({user.field})")
        n, field = user.n, user.field
    return ScenarioConfig(
        scenario=scenario,
        n=n if n is not None else spec.default_n,
        field=field if field is not None else FieldSpec.gf(spec.default_q),
        t_max=t_max if t_max is not None else spec.default_tmax,
        seed=seed if seed is not None else DEFAULT_SEED,
        attempts=attempts if attempts is not None else DEFAULT_ATTEMPTS,
        module_path=module_path,
        module=user,
    )


def run_scenario(cfg: ScenarioConfig) -> Report:
    spec = _spec(cfg.scenario)
    if cfg.n < 1:
        raise ScenarioConfigError("n must be at least 1")
    if cfg.t_max < 0:
        raise ScenarioConfigError("t_max must be nonnegative")
    if cfg.attempts < 0:
        raise ScenarioConfigError("attempts must be nonnegative")
    start = time.perf_counter()
    checks = spec.func(cfg)
    elapsed = time.perf_counter() - start
    return Report(scenario=cfg.scenario, config=cfg.echo(), version=__version__,
                  checks=checks, elapsed_seconds=elapsed)
