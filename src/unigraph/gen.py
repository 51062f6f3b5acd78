"""Seeded unigraph generation: sample k indecomposable typed components
whose orders sum to n, so that composing them yields a unigraph sequence
with exactly those canonical components.

Sampling is uniform over ordered part-size compositions (component orders
are 1 or at least 4), then uniform over the catalog types of each order for
orders up to _ENUM_LIMIT. Above that limit types are sampled structurally
(base first, then parameters), which is deterministic but not uniform over
parameter tuples. Neither stage is uniform over isomorphism classes.

Every type comes out with the canonical tag the recognizer assigns, and
neither stage calls the matcher. The enumeration below the limit reads each
family's candidates of an order off the catalog table
(:data:`unigraph.unitype.CATALOG`), emits every variant's runs unchecked
and keeps, of the variants with equal runs, the one the matcher tries
first; it caches the result per order. The structured sampler instead
draws from candidate lists it never builds: their lengths come from small
lazy tables (the order's small divisors, keyed by a gcd) and from the
order's residues, and only the drawn entry of each list is formed (see
:func:`_drawn_candidates`). It tags a draw by a closed rule: a drawn
(variant, base, params) is already canonical, except that spq(1, q) is
self-inverse and the complement of spq(p, 2) equals its inverse (see
:func:`_spq_variant`). So drawing a large component emits and matches no
runs.

The composition is drawn by first picking j, the number of multi-vertex
parts, with weight w_j = C(k, j) * C(F - 2j - 1, j - 1), where F = n - k
counts the vertices beyond one per part (w_0 = 1 exactly when F = 0, and
w_j = 0 for j > F // 3). The weights obey the exact recurrence

    w_1 = k,  w_{j+1} = w_j (k-j)(F-3j)(F-3j-1)(F-3j-2) / ((j+1) j (F-2j-1)(F-2j-2)),

whose division is exact, so they equal the binomial products integer for
integer and a seed draws the same components as it would from the closed
form. The total and every ceil(sqrt(k))-th weight, with the sum before it,
are computed once per call: the ratios between two such checkpoints are
multiplied out by binary splitting, so each checkpoint costs two divisions
of one big integer instead of one per weight (:func:`_weight_marks`).
After the pick, only the block of weights that holds it is recomputed, so
O(sqrt(k)) big integers are alive at once.

Every component :func:`generate` returns is marked as drawn from the
catalog, and :func:`compose_types` trusts that mark: it reads the runs of
such a component off its catalog record and checks only the components it
did not draw. Components are composed as run tuples in one pass
(:func:`~unigraph.degseq.compose_runs`), never as sequence objects, so a
draw costs O(k) small steps plus the big-integer weights.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right
from functools import lru_cache
from math import gcd, isqrt, lcm

from ._record import Record
from .degseq import DegreeSequence, compose_runs
from .errors import Infeasible, ParamOutOfRange
from .unitype import (
    CATALOG,
    FAMILIES,
    SPLIT_FAMILIES,
    SPLIT_VARIANTS,
    TRANSFORMS,
    Base,
    Family,
    TypedComponent,
    Variant,
    family_of,
)

_ENUM_LIMIT = 24
ALL_BASES = frozenset(f.base for f in FAMILIES)
SPLIT_BASES = frozenset(f.base for f in SPLIT_FAMILIES)


class GenSpec(Record):
    _fields = ("n", "k", "seed", "allowed")

    def __init__(
        self,
        n: int,
        k: int,
        seed: int = 0,
        allowed: frozenset[Base] | None = None,
    ) -> None:
        for name, value in (("n", n), ("k", k)):
            try:
                operator.index(value)
            except TypeError:
                msg = f"{name} must be an integer, got {value!r}"
                raise ParamOutOfRange(msg) from None
        if allowed is not None:
            try:
                bases = frozenset(allowed)
            except TypeError:  # not an iterable of hashables
                bases = frozenset({None})
            if not all(isinstance(b, Base) for b in bases):
                raise ParamOutOfRange(
                    f"allowed must be a set of Base members, got {allowed!r}"
                )
            allowed = bases
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "allowed", allowed)

    def allowed_bases(self) -> frozenset[Base]:
        return ALL_BASES if self.allowed is None else self.allowed


@lru_cache(maxsize=4096)
def components_of_order(order: int, split_only: bool) -> tuple[TypedComponent, ...]:
    """Canonical catalog types with the given vertex count, deduplicated and
    sorted by tag for reproducibility. Orders above _ENUM_LIMIT refuse.

    The matcher tags a run tuple by the first (variant, family) that fits
    it, in variant-major order, so of the candidate variants with equal runs
    the first one in that order is the canonical one, and no run tuple is
    matched. A split key is a pair of run tuples, so it never equals a
    non-split one."""
    if order > _ENUM_LIMIT:
        raise ValueError(f"enumeration capped at order {_ENUM_LIMIT}")
    cands = [
        (f, prm, f.runs(*prm))
        for f in (SPLIT_FAMILIES if split_only else FAMILIES)
        for prm in f.candidates(order)
    ]
    first: dict = {}
    for v in SPLIT_VARIANTS:
        for f, prm, runs in cands:
            if v in f.variants:
                key = f.transform(v, runs)
                if key not in first:
                    first[key] = TypedComponent._trusted(v, f.base, prm, order)
    return tuple(sorted(first.values(), key=TypedComponent.tag))


def _ratio(k: int, extra: int, j: int) -> tuple[int, int]:
    """(a_j, b_j) with w_{j+1} / w_j = a_j / b_j, by the recurrence in the
    module docstring; ``extra`` is n - k."""
    f3 = extra - 3 * j
    f2 = extra - 2 * j
    return (k - j) * f3 * (f3 - 1) * (f3 - 2), (j + 1) * j * (f2 - 1) * (f2 - 2)


def _weights(k: int, extra: int, j: int = 1, w: int | None = None):
    """Yield the positive weights w_j, w_{j+1}, ... by the recurrence in the
    module docstring, from w_1 = k or from a given w_j; ``extra`` is n - k."""
    top = min(k, extra // 3)
    w = k if w is None else w
    while j <= top:
        yield w
        if j == top:
            return
        a, b = _ratio(k, extra, j)
        w = w * a // b
        j += 1


def _ratio_split(k: int, extra: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(P, Q, T) of the ratios a_j / b_j = w_{j+1} / w_j for j in [lo, hi)
    (lo < hi, each b_j > 0): P and Q are the products of the a_j and b_j,
    and T / Q is the sum over i in [lo, hi) of the products of the ratios
    from lo to i, so that w_lo * T / Q = w_{lo+1} + ... + w_hi. Halves are
    joined by binary splitting (Haible-Papanikolaou); short ranges are
    folded left to right, which the halves would only slow down."""
    if hi - lo > 16:
        mid = (lo + hi) // 2
        p1, q1, t1 = _ratio_split(k, extra, lo, mid)
        p2, q2, t2 = _ratio_split(k, extra, mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    p = q = 1
    t = 0
    for j in range(lo, hi):
        a, b = _ratio(k, extra, j)
        t = t * b + p * a
        p *= a
        q *= b
    return p, q, t


def _weight_marks(n: int, k: int) -> tuple[int, list[tuple[int, int, int]]]:
    """(total, marks) of the weights w_0..w_k: the marks are (sum of the
    weights before w_j, j, w_j) for every ceil(sqrt(k))-th positive weight,
    so only O(sqrt(k)) big integers are held at once.

    The weights between two marks are never formed one by one: the block's
    ratios are multiplied out by :func:`_ratio_split`, and the next mark and
    the block's sum each take one division of the current mark. The reduced
    Q / g divides w_j, since w_j * (P / g) / (Q / g) is the integer next mark,
    so the divisions go by Q / g and by what is left of g."""
    extra = n - k
    top = min(k, extra // 3)
    step = isqrt(k - 1) + 1
    total = 1 if extra == 0 else 0
    marks = []
    w = k
    for j in range(1, top + 1, step):
        marks.append((total, j, w))
        end = j + step
        if end > top:  # the last block: its sum, and no next mark
            total += w
            if top > j:
                _, q, t = _ratio_split(k, extra, j, top)
                g = gcd(t, q)
                total += w * (t // g) // (q // g)
            break
        p, q, t = _ratio_split(k, extra, j, end)
        g = gcd(p, q)
        u = w // (q // g)
        rest = t - p  # w * rest / q = w_{j+1} + ... + w_{end-1}
        h = gcd(rest, g)
        total += w + u * (rest // h) // (g // h)
        w = u * (p // g)
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


def _sample_sizes(rng: random.Random, n: int, k: int, total: int, marks) -> list[int]:
    """Uniform ordered composition of n into k parts from {1, 4, 5, ...},
    by the weights (total > 0, marks) of :func:`_weight_marks`."""
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


# The structured sampler's candidate lists. Each list holds the same
# entries in the same order at every order >= 25:
# - spq(p, q) for each divisor q < order of the order in [2, 63];
# - S2 as two star blocks (p1, q1, 1, q2): a first block of q1 stars with
#   p1 leaves each uses q1*(p1+1) <= 36 vertices, and the rest must be even
#   and at least 2, so from order 38 on only the parity of the order counts;
# - S3 (p, q1, q2) with q2 blocks of p+2 vertices plus its centre: the rest
#   order-1-q2*(p+2) is a multiple of p+1 exactly when q2 = order-1 mod p+1;
# - S4 (p, q) needs p+2 to divide the order (its q+2 is order/(p+2)).
# Below _TABLE_FROM, :func:`_candidates` scans for them. From it on, every
# divisor in [2, 63] is below the order, every S3 q2 <= 5 leaves a rest of
# at least 2(p+1) and every S4 divisor d <= 13 has 3d <= order, so the
# spq and S4 lists are fixed by gcd(order, _SMALL_LCM) and the S3 list by
# the order's residues mod 2..10: a draw reads the lists' lengths off
# small tables and builds only the entries it picks.
_SMALL_DIVISORS = tuple(range(2, 64))
_SMALL_LCM = lcm(*_SMALL_DIVISORS)
_TABLE_FROM = 76
_S2_FIRST_BLOCKS = tuple(
    (p1, q1, q1 * (p1 + 1)) for p1 in range(2, 12) for q1 in range(1, 4)
)
_S2_BLOCKS_BY_PARITY = tuple(
    tuple(b for b in _S2_FIRST_BLOCKS if b[2] % 2 == parity) for parity in (0, 1)
)
_LARGE_SPLIT_BASES = (Base.SPQ, Base.S2, Base.S3, Base.S4)


def _candidates(order: int):
    """(spq params, S2 first blocks, S3 params, S4 params) of the structured
    sampler at an order of at least 25, by scanning; an S2 block (p1, q1,
    used) stands for the parameters (p1, q1, 1, (order - used) // 2)."""
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


@lru_cache(maxsize=512)
def _divisor_table(g: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The divisors in [2, 63] of an order whose gcd with _SMALL_LCM is g
    (the spq list's q), and those in [3, 13] (the S4 list's p + 2)."""
    spq = tuple(q for q in _SMALL_DIVISORS if not g % q)
    return spq, tuple(d for d in spq if 3 <= d <= 13)


def _s3_count(order: int) -> int:
    """The length of the S3 list at an order of at least _TABLE_FROM: per
    p, the q2 in [1, 5] congruent to order - 1 mod p + 1."""
    return sum((5 - ((order - 1) % m or m)) // m + 1 for m in range(2, 11))


def _s3_entry(order: int, i: int) -> tuple[int, int, int]:
    """Entry i of the S3 list at an order of at least _TABLE_FROM, ordered
    by p, then q2."""
    for m in range(2, 11):  # m = p + 1
        q2 = (order - 1) % m or m
        count = (5 - q2) // m + 1
        if i < count:
            q2 += i * m
            return m - 1, (order - 1 - q2 * (m + 1)) // m, q2
        i -= count
    raise IndexError(i)


def _drawn_candidates(rng: random.Random, order: int) -> list:
    """(base, entry) for each non-empty candidate list of the order, the
    entry drawn uniformly from its list; an S2 entry is its first block."""
    if order < _TABLE_FROM:
        lists = zip(_LARGE_SPLIT_BASES, _candidates(order))
        return [(base, rng.choice(c)) for base, c in lists if c]
    spq, s4 = _divisor_table(gcd(order, _SMALL_LCM))
    drawn = []
    if spq:
        q = rng.choice(spq)
        drawn.append((Base.SPQ, (order // q - 1, q)))
    # the S2 and S3 lists are never empty here
    drawn.append((Base.S2, rng.choice(_S2_BLOCKS_BY_PARITY[order % 2])))
    drawn.append((Base.S3, _s3_entry(order, rng.randrange(_s3_count(order)))))
    if s4:
        d = rng.choice(s4)
        drawn.append((Base.S4, (d - 2, order // d - 2)))
    return drawn


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
    its parameters from :func:`_drawn_candidates`, then a variant, returned
    in the canonical tag the recognizer assigns without emitting or matching
    runs.

    A drawn (variant, base, params) is already canonical except for the spq
    cases of :func:`_spq_variant`: for every other entry of the candidate
    lists, no variant the matcher tries earlier gives the same runs. The
    tests check this against ``_canonical`` in tests/test_gen.py, which
    re-tags through the matcher, for every candidate and variant at orders
    25-200 and for seeded draws up to order 10^5.
    """
    options = _drawn_candidates(rng, order)
    if not split_only:
        if order % 2 == 0:
            options.append((Base.MK2, (order // 2,)))
            options.append((Base.U3, ((order - 4) // 2,)))
        m = rng.randrange(1, (order - 3) // 2 + 1)
        options.append((Base.U2, (m, order - 1 - 2 * m)))
    base, prm = rng.choice(options)
    if base is Base.S2:
        p1, q1, used = prm
        prm = (p1, q1, 1, (order - used) // 2)
    variant = rng.choice(CATALOG[base].variants)
    if base is Base.SPQ:
        variant = _spq_variant(variant, *prm)
    return TypedComponent._trusted(variant, base, prm, order)


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
        return rng.choice(pool)
    for _ in range(64):
        t = _sample_large(rng, order, split_only)
        if t.base in allowed:
            return t
    raise Infeasible(f"no allowed component type found at order {order}")


def generate(spec: GenSpec) -> list[TypedComponent]:
    """Draw k typed components with orders summing to n, head-first;
    deterministic for a fixed seed. Each is marked as drawn from the
    catalog, so :func:`compose_types` does not check it again. A type
    filter that allows nothing a draw needs is refused before the first
    draw."""
    if not isinstance(spec, GenSpec):
        raise ParamOutOfRange(f"generate takes a GenSpec, got {spec!r}")
    if spec.k < 1 or spec.n < spec.k:
        raise Infeasible(_infeasible_reason(spec.n, spec.k))
    allowed = spec.allowed_bases()
    try:
        rng = random.Random(spec.seed)
    except TypeError:
        raise ParamOutOfRange(f"unusable seed {spec.seed!r}") from None
    # the weights draw no random numbers, so no retry computes them again
    total, marks = _weight_marks(spec.n, spec.k)
    if total == 0:
        raise Infeasible(_infeasible_reason(spec.n, spec.k))
    # every head is a drawn split type, and a tail above one vertex a drawn
    # type; without one allowed, no retry can succeed
    if spec.n > 1 and not allowed & (SPLIT_BASES if spec.k > 1 else ALL_BASES):
        raise _no_draw(spec, allowed)
    for _ in range(256):
        sizes = _sample_sizes(rng, spec.n, spec.k, total, marks)
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
            tail = TypedComponent._trusted(Variant.ORIGINAL, base, (), 1)
        else:
            try:
                tail = _sample_component(
                    rng, tail_order, split_only=False, allowed=allowed
                )
            except Infeasible:
                continue
        return comps + [tail]
    raise _no_draw(spec, allowed)


def _no_draw(spec: GenSpec, allowed: frozenset[Base]) -> Infeasible:
    return Infeasible(
        f"no feasible draw for n={spec.n}, k={spec.k} with types "
        f"{sorted(b.value for b in allowed)}"
    )


def compose_types(comps: list[TypedComponent]) -> DegreeSequence:
    """Sequence of the composition of typed components (tail last), built
    from their catalog runs in one pass. Any iterable is read once into a
    list. A component :func:`generate` drew is read off its catalog record
    as it is; any other is first checked against it
    (:func:`~unigraph.unitype.family_of`)."""
    try:
        comps = list(comps)
    except TypeError:
        what = type(comps).__name__
        raise ParamOutOfRange(f"expected an iterable of components, got {what}") from None
    if not comps:
        raise ParamOutOfRange("compose_types needs at least one component")
    *inner, last = comps
    heads = []
    for t in inner:
        f = _record(t)
        if not f.split:
            raise ParamOutOfRange(f"a non-split {t} can only be the tail")
        heads.append((*f.runs(*t.params), TRANSFORMS[t.variant]))
    f, prm = _record(last), last.params
    if not f.split:
        return compose_runs(heads, f.emit(last.variant, prm))
    # a split tail is one more head, over nothing
    heads.append((*f.runs(*prm), TRANSFORMS[last.variant]))
    return compose_runs(heads, ())


def _record(t: TypedComponent) -> Family:
    """The catalog record of t: looked up for a component :func:`generate`
    drew, checked by :func:`~unigraph.unitype.family_of` for any other."""
    if type(t) is TypedComponent and hasattr(t, "_drawn"):
        return CATALOG[t.base]
    return family_of(t)
