"""Seeded unigraph generation: sample k indecomposable typed components
whose orders sum to n, so that composing them yields a unigraph sequence
with exactly those canonical components.

Sampling is uniform over ordered part-size compositions (component orders
are 1 or at least 4), then uniform over the catalog types of each order for
orders up to _ENUM_LIMIT. Above that limit types are sampled structurally
(base first, then parameters), which is deterministic but not uniform over
parameter tuples. Neither stage is uniform over isomorphism classes.

Every type comes out with the canonical tag the recognizer assigns. The
enumeration below the limit re-tags through the matcher once per order and
caches the result. The structured sampler instead reads its candidates off
fixed tables in O(1) steps and tags them by a closed rule: a drawn
(variant, base, params) is already canonical, except that spq(1, q) is
self-inverse and the complement of spq(p, 2) equals its inverse (see
:func:`_spq_variant`). So drawing a large component emits and matches no
runs.

The composition is drawn by first picking j, the number of multi-vertex
parts, with weight w_j = C(k, j) * C(F - 2j - 1, j - 1), where F = n - k
counts the vertices beyond one per part (w_0 = 1 exactly when F = 0, and
w_j = 0 for j > F // 3). The weights come from the exact recurrence

    w_1 = k,  w_{j+1} = w_j (k-j)(F-3j)(F-3j-1)(F-3j-2) / ((j+1) j (F-2j-1)(F-2j-2)),

whose division is exact, so they equal the binomial products integer for
integer and a seed draws the same components as it would from the closed
form. One pass keeps the total and every ceil(sqrt(k))-th weight; after the
pick, only the block of weights that holds it is recomputed, so O(sqrt(k))
big integers are alive at once. Components are emitted and composed as run
tuples, never as sequence objects, so a draw costs O(k) small steps plus
the big-integer weights.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .degseq import DegreeSequence, compose_runs
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
    the same canonical variant the recognizer would assign. The enumeration
    of small orders uses it; the structured sampler's tags must agree."""
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


def _weights(k: int, extra: int, j: int = 1, w: int | None = None):
    """Yield the positive weights w_j, w_{j+1}, ... by the recurrence in the
    module docstring, from w_1 = k or from a given w_j; ``extra`` is n - k."""
    top = min(k, extra // 3)
    w = k if w is None else w
    while j <= top:
        yield w
        if j == top:
            return
        f3 = extra - 3 * j
        num = (k - j) * f3 * (f3 - 1) * (f3 - 2)
        w = w * num // ((j + 1) * j * (extra - 2 * j - 1) * (extra - 2 * j - 2))
        j += 1


def _weight_marks(n: int, k: int) -> tuple[int, list[tuple[int, int, int]]]:
    """(total, marks) of the weights w_0..w_k: the marks are (sum of the
    weights before w_j, j, w_j) for every ceil(sqrt(k))-th positive weight,
    so only O(sqrt(k)) big integers are held at once."""
    extra = n - k
    step = isqrt(k - 1) + 1
    total = 1 if extra == 0 else 0
    marks = []
    for i, w in enumerate(_weights(k, extra)):
        if i % step == 0:
            marks.append((total, i + 1, w))
        total += w
    return total, marks


def _part_count(n: int, k: int, marks, pick: int) -> int:
    """The j whose weight interval holds ``pick`` (0 <= pick < total),
    recomputing only the block of weights after the mark at or below it."""
    i = bisect_right(marks, pick, key=operator.itemgetter(0)) - 1
    if i < 0:
        return 0
    before, j, w = marks[i]
    pick -= before
    for w in _weights(k, n - k, j, w):
        if pick < w:
            break
        pick -= w
        j += 1
    return j


def _sample_sizes(rng: random.Random, n: int, k: int) -> list[int]:
    """Uniform ordered composition of n into k parts from {1, 4, 5, ...}."""
    total, marks = _weight_marks(n, k)
    if total == 0:
        raise Infeasible(_infeasible_reason(n, k))
    j = _part_count(n, k, marks, rng.randrange(total))
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


# The structured sampler's candidate lists, read off fixed tables so that
# a draw costs O(1) table steps plus one divisor scan. Each list holds the
# same entries in the same order at every order >= 25:
# - spq(p, q) for each divisor q < order of the order in [2, 63];
# - S2 as two star blocks (p1, q1, 1, q2): a first block of q1 stars with
#   p1 leaves each uses q1*(p1+1) <= 36 vertices, and the rest must be even
#   and at least 2, so from order 38 on only the parity of the order counts;
# - S3 (p, q1, q2) with q2 blocks of p+2 vertices plus its centre: the rest
#   order-1-q2*(p+2) is a multiple of p+1 exactly when q2 = order-1 mod p+1;
# - S4 (p, q) needs p+2 to divide the order (its q+2 is order/(p+2)).
_SMALL_DIVISORS = tuple(range(2, 64))
_S2_FIRST_BLOCKS = tuple(
    (p1, q1, q1 * (p1 + 1)) for p1 in range(2, 12) for q1 in range(1, 4)
)
_S2_BLOCKS_BY_PARITY = tuple(
    tuple(b for b in _S2_FIRST_BLOCKS if b[2] % 2 == parity) for parity in (0, 1)
)


def _candidates(order: int):
    """(spq params, S2 first blocks, S3 params, S4 params) of the structured
    sampler at an order of at least 25; an S2 block (p1, q1, used) stands
    for the parameters (p1, q1, 1, (order - used) // 2)."""
    divisors = [q for q in _SMALL_DIVISORS if not order % q]
    spq = [(order // q - 1, q) for q in divisors if q < order]
    s2 = _S2_BLOCKS_BY_PARITY[order % 2]
    if order < 38:
        s2 = tuple(b for b in s2 if b[2] <= order - 2)
    s3 = [
        (p, rest // (p + 1), q2)
        for p in range(1, 10)
        for q2 in range((order - 1) % (p + 1) or p + 1, 6, p + 1)
        if (rest := order - 1 - q2 * (p + 2)) >= 2 * (p + 1)
    ]
    s4 = [(d - 2, order // d - 2) for d in divisors if 3 <= d <= 13 and 3 * d <= order]
    return spq, s2, s3, s4


def _spq_variant(v: Variant, p: int, q: int) -> Variant:
    """The variant :func:`match_split_runs` assigns to variant v of spq(p, q).

    The matcher tries original, inverse, complement, inverse-complement and
    keeps the first that turns the runs into a catalog shape, so v changes
    only when an earlier variant gives the same runs. spq(p, q) has q clique
    vertices of degree p+q-1 and pq leaves of degree 1. Its inverse has pq
    clique vertices of degree pq and q stable ones of degree p, so spq(1, q)
    is self-inverse. The complement of spq(p, 2) has 2p clique vertices of
    degree 2p and 2 stable ones of degree p, the runs of its inverse. Hence:
    - complement with q = 2 is inverse (and then original if p = 1 too);
    - inverse with p = 1 is original;
    - inverse-complement is original when q = 2, since both transforms give
      the same runs and inverse is an involution, and otherwise complement
      when p = 1, since the complement of spq(1, q) is self-inverse too.
    """
    if v is Variant.COMPLEMENT and q == 2:
        v = Variant.INVERSE
    if v is Variant.INVERSE and p == 1:
        return Variant.ORIGINAL
    if v is Variant.INVERSE_COMPLEMENT:
        if q == 2:
            return Variant.ORIGINAL
        if p == 1:
            return Variant.COMPLEMENT
    return v


def _sample_large(rng: random.Random, order: int, split_only: bool) -> TypedComponent:
    """Structured sampler for orders beyond the enumeration cap: a base and
    its parameters from :func:`_candidates`, then a variant, returned in the
    canonical tag the recognizer assigns without emitting or matching runs.

    A drawn (variant, base, params) is already canonical except for the spq
    cases of :func:`_spq_variant`: for every other entry of the candidate
    lists, no variant the matcher tries earlier gives the same runs. The
    tests check this against :func:`_canonical` for every candidate and
    variant at orders 25-200 and for seeded draws up to order 10^5.
    """
    options: list[tuple[Base, tuple[int, ...]]] = []
    spq, s2, s3, s4 = _candidates(order)
    if spq:
        options.append((Base.SPQ, spq[rng.randrange(len(spq))]))
    if s2:
        p1, q1, used = s2[rng.randrange(len(s2))]
        options.append((Base.S2, (p1, q1, 1, (order - used) // 2)))
    if s3:
        options.append((Base.S3, s3[rng.randrange(len(s3))]))
    if s4:
        options.append((Base.S4, s4[rng.randrange(len(s4))]))
    if not split_only:
        if order % 2 == 0:
            options.append((Base.MK2, (order // 2,)))
            options.append((Base.U3, ((order - 4) // 2,)))
        m = rng.randrange(1, (order - 3) // 2 + 1)
        options.append((Base.U2, (m, order - 1 - 2 * m)))
    base, prm = options[rng.randrange(len(options))]
    if base in NON_SPLIT_BASES:
        variant = (Variant.ORIGINAL, Variant.COMPLEMENT)[rng.randrange(2)]
    else:
        variant = SPLIT_VARIANTS[rng.randrange(len(SPLIT_VARIANTS))]
        if base is Base.SPQ:
            variant = _spq_variant(variant, *prm)
    return TypedComponent(variant, base, prm, order)


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
            # a single-vertex tail is typed by context, not sampled: it joins
            # the clique side after nothing or a K1 (tail_joins_clique)
            base = Base.K1 if not comps or comps[-1].base is Base.K1 else Base.S1
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
