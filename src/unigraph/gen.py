"""Seeded unigraph generation: sample k indecomposable typed components
whose orders sum to n, so that composing them yields a unigraph sequence
with exactly those canonical components.

Sampling is uniform over ordered part-size compositions (component orders
are 1 or at least 4), then uniform over the catalog types of each order for
orders up to _ENUM_LIMIT. Above that limit types are sampled structurally
(base first, then parameters), which is deterministic but not uniform over
parameter tuples. Neither stage is uniform over isomorphism classes.

The composition is drawn by first picking j, the number of multi-vertex
parts, with weight w_j = C(k, j) * C(F - 2j - 1, j - 1), where F = n - k
counts the vertices beyond one per part (w_0 = 1 exactly when F = 0, and
w_j = 0 for j > F // 3). The weights come from the exact recurrence

    w_1 = k,  w_{j+1} = w_j (k-j)(F-3j)(F-3j-1)(F-3j-2) / ((j+1) j (F-2j-1)(F-2j-2)),

whose division is exact, so they equal the binomial products integer for
integer and a seed draws the same components as it would from the closed
form. Components are emitted and composed as run tuples, never as
sequence objects, so a draw costs O(k) small steps plus the big-integer
weights.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache

from .degseq import DegreeSequence, compose_runs
from .decomp import tail_joins_clique
from .errors import Infeasible, ParamOutOfRange
from .unitype import (
    SPLIT_VARIANTS,
    Base,
    NON_SPLIT_BASES,
    TypedComponent,
    Variant,
    emit_runs,
    match_nonsplit_runs,
    match_split_runs,
    type_to_sequence,
)

_ENUM_LIMIT = 24
SPLIT_BASES = frozenset({Base.K1, Base.S1, Base.SPQ, Base.S2, Base.S3, Base.S4})
ALL_BASES = SPLIT_BASES | NON_SPLIT_BASES


@dataclass(frozen=True)
class GenSpec:
    n: int
    k: int
    seed: int = 0
    allowed: frozenset[Base] | None = None
    distinct_singletons: bool = False

    def __post_init__(self) -> None:
        for name in ("n", "k"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ParamOutOfRange(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                ) from None
        if self.allowed is None:
            return
        try:
            allowed = frozenset(self.allowed)
        except TypeError:  # not an iterable of hashables
            allowed = frozenset({None})
        if not all(isinstance(b, Base) for b in allowed):
            raise ParamOutOfRange(
                f"allowed must be a set of Base members, got {self.allowed!r}"
            )
        object.__setattr__(self, "allowed", allowed)

    def allowed_bases(self) -> frozenset[Base]:
        return ALL_BASES if self.allowed is None else self.allowed


def _canonical(t: TypedComponent) -> TypedComponent:
    """Re-tag a candidate through the matcher, so generated components carry
    the same canonical variant the recognizer would assign."""
    runs = emit_runs(t)
    if t.base in NON_SPLIT_BASES:
        out = match_nonsplit_runs(runs)
    else:
        out = match_split_runs(*runs)
    assert out is not None, f"catalog instance failed to match itself: {t}"
    return out


def _s2_tuples(order: int):
    """All S2 parameter tuples (p1,q1,...,pm,qm) of the given order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], rest: int, pmax: int, m: int):
        if rest == 0:
            if m >= 2:
                out.append(prefix)
            return
        for p in range(min(pmax, rest - 1), 0, -1):
            # one block of q stars with p leaves costs q*(p+1)
            for q in range(1, rest // (p + 1) + 1):
                rec(prefix + (p, q), rest - q * (p + 1), p - 1, m + 1)

    rec((), order, order, 0)
    return out


@lru_cache(maxsize=4096)
def components_of_order(order: int, split_only: bool) -> tuple[TypedComponent, ...]:
    """Canonical catalog types with the given vertex count, deduplicated by
    tag and sorted for reproducibility. Orders above _ENUM_LIMIT refuse."""
    if order > _ENUM_LIMIT:
        raise ValueError(f"enumeration capped at order {_ENUM_LIMIT}")
    cands: list[TypedComponent] = []
    if order == 1:
        cands += [
            TypedComponent(Variant.ORIGINAL, Base.K1, (), 1),
            TypedComponent(Variant.ORIGINAL, Base.S1, (), 1),
        ]
    if not split_only:
        if order == 5:
            cands.append(TypedComponent(Variant.ORIGINAL, Base.C5, (), 5))
        if order % 2 == 0 and order >= 4:
            cands.append(
                TypedComponent(Variant.ORIGINAL, Base.MK2, (order // 2,), order)
            )
        for m in range(1, (order - 3) // 2 + 1):
            ell = order - 1 - 2 * m
            if ell >= 2:
                cands.append(
                    TypedComponent(Variant.ORIGINAL, Base.U2, (m, ell), order)
                )
        if order % 2 == 0 and order >= 6:
            cands.append(
                TypedComponent(Variant.ORIGINAL, Base.U3, ((order - 4) // 2,), order)
            )
    for q in range(2, order + 1):
        if order % q == 0 and order // q >= 2:
            cands.append(
                TypedComponent(Variant.ORIGINAL, Base.SPQ, (order // q - 1, q), order)
            )
    for prm in _s2_tuples(order):
        cands.append(TypedComponent(Variant.ORIGINAL, Base.S2, prm, order))
    for p in range(1, order):
        for q2 in range(1, order):
            rest = order - 1 - q2 * (p + 2)
            if rest < 2 * (p + 1):
                break
            if rest % (p + 1) == 0:
                q1 = rest // (p + 1)
                cands.append(
                    TypedComponent(Variant.ORIGINAL, Base.S3, (p, q1, q2), order)
                )
    for p in range(1, order):
        num = order - 2 * p - 4
        if num < p + 2:
            break
        if num % (p + 2) == 0:
            cands.append(
                TypedComponent(Variant.ORIGINAL, Base.S4, (p, num // (p + 2)), order)
            )
    seen: dict[str, TypedComponent] = {}
    for cand in cands:
        variants = (
            (Variant.ORIGINAL, Variant.COMPLEMENT)
            if cand.base in NON_SPLIT_BASES
            else SPLIT_VARIANTS
        )
        if cand.base in (Base.K1, Base.S1):
            variants = (Variant.ORIGINAL,)
        for v in variants:
            canon = _canonical(
                TypedComponent(v, cand.base, cand.params, cand.order)
            )
            seen.setdefault(canon.tag(), canon)
    return tuple(sorted(seen.values(), key=lambda t: t.tag()))


def _compose_counts(n: int, k: int) -> list[int]:
    """Weight w_j of each j = number of multi-vertex parts among k parts,
    by the exact recurrence in the module docstring."""
    extra = n - k
    weights = [0] * (k + 1)
    if extra == 0:
        weights[0] = 1
    top = min(k, extra // 3)
    w = k
    for j in range(1, top):
        weights[j] = w
        f3 = extra - 3 * j
        num = (k - j) * f3 * (f3 - 1) * (f3 - 2)
        w = w * num // ((j + 1) * j * (extra - 2 * j - 1) * (extra - 2 * j - 2))
    if top:
        weights[top] = w
    return weights


def _sample_sizes(rng: random.Random, n: int, k: int) -> list[int]:
    """Uniform ordered composition of n into k parts from {1, 4, 5, ...}."""
    weights = _compose_counts(n, k)
    total = sum(weights)
    if total == 0:
        raise Infeasible(_infeasible_reason(n, k))
    pick = rng.randrange(total)
    j = 0
    while pick >= weights[j]:
        pick -= weights[j]
        j += 1
    sizes = [1] * k
    if j:
        big_slots = sorted(rng.sample(range(k), j))
        m = n - (k - j)
        # uniform composition of m into j parts >= 4 via stars and bars
        cuts = sorted(rng.sample(range(m - 4 * j + j - 1), j - 1)) if j > 1 else []
        parts = []
        prev = -1
        for c in cuts + [m - 4 * j + j - 1]:
            parts.append(c - prev - 1 + 4)
            prev = c
        for slot, part in zip(big_slots, parts):
            sizes[slot] = part
    return sizes


def _infeasible_reason(n: int, k: int) -> str:
    if k < 1:
        return "component count k must be at least 1"
    if n < k:
        return f"n={n} is below the k={k} one-vertex minimum"
    return (
        f"n={n}, k={k} strands {n - k} extra vertices: a multi-vertex "
        "indecomposable unigraph needs at least 4 vertices"
    )


# the structured sampler's fixed shapes: S2's first block of q1 stars with
# p1 leaves each, and S3's q2 blocks of p+2 vertices plus its centre
_S2_FIRST_BLOCKS = tuple(
    (p1, q1, q1 * (p1 + 1)) for p1 in range(2, 12) for q1 in range(1, 4)
)
_S3_SECOND_BLOCKS = tuple(
    (p, q2, 1 + q2 * (p + 2)) for p in range(1, 10) for q2 in range(1, 6)
)


def _sample_large(rng: random.Random, order: int, split_only: bool) -> TypedComponent:
    """Structured sampler for orders beyond the enumeration cap."""
    options: list[tuple[Base, tuple[int, ...]]] = []
    spq = [
        (order // q - 1, q)
        for q in range(2, min(order, 64))
        if order % q == 0 and order // q >= 2
    ]
    if spq:
        options.append((Base.SPQ, spq[rng.randrange(len(spq))]))
    # S2 shaped as two star blocks (p1,q1,1,q2)
    s2 = [
        (p1, q1, 1, rest // 2)
        for p1, q1, used in _S2_FIRST_BLOCKS
        if (rest := order - used) >= 2 and rest % 2 == 0
    ]
    if s2:
        options.append((Base.S2, s2[rng.randrange(len(s2))]))
    s3 = [
        (p, rest // (p + 1), q2)
        for p, q2, used in _S3_SECOND_BLOCKS
        if (rest := order - used) >= 2 * (p + 1) and rest % (p + 1) == 0
    ]
    if s3:
        options.append((Base.S3, s3[rng.randrange(len(s3))]))
    s4 = [
        (p, num // (p + 2))
        for p in range(1, 12)
        if (num := order - 2 * p - 4) >= p + 2 and num % (p + 2) == 0
    ]
    if s4:
        options.append((Base.S4, s4[rng.randrange(len(s4))]))
    if not split_only:
        if order % 2 == 0:
            options.append((Base.MK2, (order // 2,)))
            options.append((Base.U3, ((order - 4) // 2,)))
        m = rng.randrange(1, (order - 3) // 2 + 1)
        options.append((Base.U2, (m, order - 1 - 2 * m)))
    base, prm = options[rng.randrange(len(options))]
    variants = (
        (Variant.ORIGINAL, Variant.COMPLEMENT)
        if base in NON_SPLIT_BASES
        else SPLIT_VARIANTS
    )
    return _canonical(
        TypedComponent(variants[rng.randrange(len(variants))], base, prm, order)
    )


@lru_cache(maxsize=256)
def _pool(
    order: int, split_only: bool, allowed: frozenset[Base]
) -> tuple[TypedComponent, ...]:
    """The types of :func:`components_of_order` whose base is allowed."""
    return tuple(
        t for t in components_of_order(order, split_only) if t.base in allowed
    )


def _sample_component(
    rng: random.Random,
    order: int,
    split_only: bool,
    allowed: frozenset[Base],
) -> TypedComponent:
    if order <= _ENUM_LIMIT:
        pool = _pool(order, split_only, allowed)
        if not pool:
            raise Infeasible(
                f"no allowed component type has order {order}"
                f" ({'split head' if split_only else 'tail'})"
            )
        return pool[rng.randrange(len(pool))]
    for _ in range(64):
        t = _sample_large(rng, order, split_only)
        if t.base in allowed:
            return t
    raise Infeasible(f"no allowed component type found at order {order}")


def generate(spec: GenSpec) -> list[TypedComponent]:
    """Draw k typed components with orders summing to n, head-first;
    deterministic for a fixed seed."""
    if not isinstance(spec, GenSpec):
        raise ParamOutOfRange(f"generate takes a GenSpec, got {spec!r}")
    if spec.k < 1 or spec.n < spec.k:
        raise Infeasible(_infeasible_reason(spec.n, spec.k))
    allowed = spec.allowed_bases()
    try:
        rng = random.Random(spec.seed)
    except TypeError:
        raise ParamOutOfRange(f"unusable seed {spec.seed!r}") from None
    for _ in range(256):
        sizes = _sample_sizes(rng, spec.n, spec.k)
        if spec.distinct_singletons and spec.k > 1 and sizes[-1] == 1 and sizes[-2] == 1:
            continue
        try:
            comps = [
                _sample_component(rng, s, split_only=True, allowed=allowed)
                for s in sizes[:-1]
            ]
        except Infeasible:
            continue
        tail_order = sizes[-1]
        if tail_order == 1:
            # a single-vertex tail is typed by context, not sampled
            prev = type_to_sequence(comps[-1]) if comps else None
            base = Base.K1 if tail_joins_clique(prev) else Base.S1
            tail = TypedComponent(Variant.ORIGINAL, base, (), 1)
        else:
            try:
                tail = _sample_component(
                    rng, tail_order, split_only=False, allowed=allowed
                )
            except Infeasible:
                continue
        out = comps + [tail]
        if spec.distinct_singletons:
            out = _break_singleton_runs(out)
        return out
    raise Infeasible(
        f"no feasible draw for n={spec.n}, k={spec.k} with types "
        f"{sorted(b.value for b in allowed)}"
    )


def _break_singleton_runs(comps: list[TypedComponent]) -> list[TypedComponent]:
    k1 = TypedComponent(Variant.ORIGINAL, Base.K1, (), 1)
    s1 = TypedComponent(Variant.ORIGINAL, Base.S1, (), 1)
    out = list(comps)
    for i in range(1, len(out)):
        if out[i].order == 1 and out[i - 1].order == 1 and out[i].base == out[i - 1].base:
            out[i] = s1 if out[i].base is Base.K1 else k1
    return out


def compose_types(comps: list[TypedComponent]) -> DegreeSequence:
    """Sequence of the composition of typed components (tail last), built
    from their catalog runs in one pass."""
    if not comps:
        raise ParamOutOfRange("compose_types needs at least one component")
    heads = []
    for t in comps[:-1]:
        heads.append(emit_runs(t))
        if t.base in NON_SPLIT_BASES:
            raise ParamOutOfRange(f"a non-split {t} can only be the tail")
    tail = emit_runs(comps[-1])
    if comps[-1].base not in NON_SPLIT_BASES:
        tail = compose_runs((tail,), ())
    return DegreeSequence(compose_runs(heads, tail))
