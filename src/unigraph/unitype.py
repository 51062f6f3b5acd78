"""Catalog of indecomposable unigraph components and their recognizers.

Every indecomposable unigraph is, up to complement (and split inverse for
split graphs), one of ten parametric base families; the compact
decomposition adds two blocks, a run of m dominant or of m isolated
vertices. Each of the twelve is described once, by its :class:`Family`
record in ``CATALOG``: parameter names and bounds, unchecked runs, how a
matcher reads the parameters back (off the runs of a non-split base, off a
head's greatest clique degree and side orders for most split ones), its
candidates of a given order, its clique and independence numbers and its
fixing and distinguishing numbers, a split base's as blocks of stars; its
side orders are read off its runs. The emitter, the tag, the enumeration
of small orders in :mod:`unigraph.gen` and the per-component parameters
in :mod:`unigraph.params` are loops over, or lookups in, that table.

The matchers try the variants and families in a fixed order, so the tag
assigned to a sequence is deterministic; the emitters are their exact
inverses. The split matcher keeps that order but gates it: each variant's
run counts and least stable degree, read off the head's end runs through
the variant table :func:`~unigraph.degseq.side_maps`, fit at most one
family, and a variant that fits none is skipped untransformed.

Tag strings are part of the CLI contract, e.g. ``k1``, ``complement:mk2(m=2)``,
``inverse:spq(p=2,q=2)``, ``s2(2,1,1,1)``, ``s3(p=1,q1=2,q2=1)``.
"""

from __future__ import annotations

import enum
import reprlib
from collections.abc import Callable
from functools import cached_property, lru_cache
from math import comb, isqrt
from operator import index, mul

from ._record import Record
from .decomp import Decomposition, decompose, per_strip, side_runs, tail_joins_clique
from .degseq import (
    DegreeSequence,
    PairedDegreeSequence,
    check_paired,
    check_sequence,
    complement_runs,
    runs_order,
    side_maps,
    transform_runs,
)
from .errors import FormatError, NotUnigraph, ParamOutOfRange, UnigraphError
from .errors import VariantUndefined


class Variant(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; skips Enum.__hash__
    ORIGINAL = "original"
    COMPLEMENT = "complement"
    INVERSE = "inverse"
    INVERSE_COMPLEMENT = "inverse-complement"


class Base(enum.Enum):
    __hash__ = object.__hash__  # as Variant's
    C5 = "c5"
    MK2 = "mk2"
    U2 = "u2"
    U3 = "u3"
    K1 = "k1"
    S1 = "s1"
    SPQ = "spq"
    S2 = "s2"
    S3 = "s3"
    S4 = "s4"
    COMPLETE_BLOCK = "complete"
    EMPTY_BLOCK = "empty"


class TypedComponent(Record):
    """One catalog type: a variant of a base with its parameters and order.

    Every field is a slot and there is no ``__dict__``, so the matcher's
    cache and the generator's pools hold no dict per type. Besides the four
    fields, ``_drawn`` is set only on a component that :meth:`_trusted`
    built, and ``_price`` holds the (fixing, distinguishing) numbers that
    :mod:`unigraph.params` keeps on a matched type the first time it reads
    them, unset until then, in one write, so a reader sees both or neither.
    Equality, hashing, repr and pickling see the four fields only.
    """

    _fields = ("variant", "base", "params", "order")
    __slots__ = _fields + ("_drawn", "_price")

    def __init__(
        self, variant: Variant, base: Base, params: tuple[int, ...], order: int
    ) -> None:
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "order", order)

    @classmethod
    def _trusted(
        cls, variant: Variant, base: Base, params: tuple[int, ...], order: int
    ) -> TypedComponent:
        """A component drawn from the catalog by :mod:`unigraph.gen`, whose
        fields :func:`family_of` accepts by construction. Its ``_drawn``
        slot is set, so that composing it skips that check; the mark is a
        flag rather than the catalog record, whose lambdas do not pickle."""
        t = object.__new__(cls)
        object.__setattr__(t, "variant", variant)
        object.__setattr__(t, "base", base)
        object.__setattr__(t, "params", params)
        object.__setattr__(t, "order", order)
        object.__setattr__(t, "_drawn", True)
        return t

    def __reduce__(self):
        # a pickle or a copy carries the four fields and comes back unmarked
        return type(self), (self.variant, self.base, self.params, self.order)

    def tag(self) -> str:
        body = CATALOG[self.base].tag(self.params)
        if self.variant is Variant.ORIGINAL:
            return body
        return f"{self.variant.value}:{body}"

    def __str__(self) -> str:
        return self.tag()


class UnigraphReport(Record):
    """Verdict of :func:`is_unigraph`, run-length.

    ``runs`` holds one (type, count) entry per run of the decomposition
    that matched, in order, and the tail's type last as an entry of its
    own. ``component_types`` and ``tags()`` list one type per strip, and
    raise TooLarge above REALIZE_MAX strips; ``failure_index`` is the strip
    index of the first component that did not match.

    The constructor raises FormatError unless the verdict is a bool,
    ``runs`` holds (type, count) pairs of catalog types and positive
    counts, where a count above 1 belongs to a single vertex, and the
    failure index is None for a unigraph and a strip index otherwise;
    :func:`is_unigraph` skips that check.
    """

    _fields = ("is_unigraph", "runs", "failure_index")

    def __init__(
        self,
        is_unigraph: bool,
        runs: tuple[tuple[TypedComponent, int], ...],
        failure_index: int | None,
    ) -> None:
        if type(is_unigraph) is not bool:
            raise FormatError(f"the verdict must be a bool, got {is_unigraph!r}")
        try:
            runs = tuple([(t, index(m)) for t, m in runs])
        except (TypeError, ValueError):
            raise FormatError(f"not (type, count) runs: {reprlib.repr(runs)}") from None
        for t, m in runs:
            try:
                family_of(t)
            except UnigraphError as exc:
                raise FormatError(f"not a catalog type: {exc}") from None
            if m < 1 or m > 1 and t.order > 1:
                what = f"a run of {m} {t.tag()}"
                raise FormatError(f"{what}: only single vertices repeat")
        strip = type(failure_index) is int and failure_index >= 0
        if not (failure_index is None if is_unigraph else strip):
            what = f"verdict {is_unigraph} with failure index {failure_index!r}"
            raise FormatError(what)
        object.__setattr__(self, "is_unigraph", is_unigraph)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "failure_index", failure_index)

    @classmethod
    def _trusted(
        cls, is_unigraph: bool, runs, failure_index: int | None
    ) -> UnigraphReport:
        """The verdict :func:`is_unigraph` proved, built unchecked."""
        r = object.__new__(cls)
        object.__setattr__(r, "is_unigraph", is_unigraph)
        object.__setattr__(r, "runs", runs)
        object.__setattr__(r, "failure_index", failure_index)
        return r

    @cached_property
    def component_types(self) -> tuple[TypedComponent, ...]:
        """One entry per strip; a run of m single vertices expands to m."""
        return tuple(per_strip(self.runs))

    def tags(self) -> list[str]:
        return per_strip((t.tag(), m) for t, m in self.runs)


SPLIT_VARIANTS = (
    Variant.ORIGINAL,
    Variant.INVERSE,
    Variant.COMPLEMENT,
    Variant.INVERSE_COMPLEMENT,
)
NON_SPLIT_VARIANTS = (Variant.ORIGINAL, Variant.COMPLEMENT)
# the transforms of each variant as :func:`~unigraph.degseq.side_maps`
# takes them, the sum of COMPLEMENTED = 1 and INVERTED = 2: the enum lists
# the variants in that order
TRANSFORMS = {v: code for code, v in enumerate(Variant)}
# variants that swap the clique and stable sides, and with them the run
# counts and the clique and independence numbers
SIDE_SWAPPING = frozenset(v for v, c in TRANSFORMS.items() if side_maps(c, 1, 1)[0])


def _min_colors_for_pairs(m: int) -> int:
    """Least d >= 1 with C(d, 2) >= m: m interchangeable edges need pairwise
    distinct color pairs on their endpoints."""
    # C(d, 2) <= m  <=>  (2d - 1)^2 <= 8m + 1
    d = (isqrt(8 * m + 1) + 1) // 2
    return d if d * (d - 1) // 2 >= m else d + 1


def _dist_star_block(p: int, q: int) -> int:
    """Least d >= p with d * C(d, p) >= q: q stars with p leaves each and
    mutually adjacent centers. The product rises with d, so the offset from
    p doubles until it is reached, then a bisection finds it."""
    if p >= q:
        return p
    lo, hi = p, p + 1  # lo falls short of q throughout
    while hi * comb(hi, p) < q:
        lo, hi = hi, p + 2 * (hi - p)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * comb(mid, p) >= q:
            hi = mid
        else:
            lo = mid
    return hi


class Family(Record):
    """The catalog record of one base; records compare by identity.

    Parameters are passed unpacked. ``runs`` and the parameter functions
    check nothing: they take parameters that :meth:`check` accepts, or that
    a matcher read off a sequence. A split base is priced as its ``stars``,
    (p, q) blocks of q stars with p leaves each, all centres mutually
    adjacent (:meth:`price`).
    """

    _fields = (
        "base", "names", "bounds", "valid", "runs", "guess",
        "candidates", "fix", "dist", "stars", "omega_alpha", "split", "decode",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        base: Base,
        names: tuple[str, ...] | None,  # None: S2's pairs, tagged positionally
        bounds: str,  # what check() requires, for its message
        valid: Callable[..., bool],
        # plain runs of a non-split base, (clique runs, stable runs) otherwise
        runs: Callable,
        # the parameters a run tuple of this non-split base must have, if
        # any; shape() confirms them by emitting. None for the split bases
        # and the blocks
        guess: Callable | None,
        candidates: Callable[[int], list],  # every parameter tuple of an order
        fix: Callable[..., int] | None = None,  # None for a split base
        dist: Callable[..., int] | None = None,  # None for a split base
        stars: Callable[..., tuple[tuple[int, int], ...]] | None = None,
        # (clique, independence) numbers; None for a balanced split family,
        # whose sides are extremal, so that they are its orders
        omega_alpha: Callable[..., tuple[int, int]] | None = None,
        split: bool = True,
        # the parameters a split head of this base must have, if any, given
        # its greatest clique degree and its clique and stable orders; the
        # matcher confirms them by emitting. None for S2, which _s2_params
        # reads off all of its clique runs, and for the one-sided bases
        decode: Callable[[int, int, int], tuple[int, ...] | None] | None = None,
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "guess", guess)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "fix", fix)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "stars", stars)
        object.__setattr__(self, "omega_alpha", omega_alpha)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "decode", decode)

    @property
    def variants(self) -> tuple[Variant, ...]:
        """The variants this base admits, in the matcher's order."""
        return SPLIT_VARIANTS if self.split else NON_SPLIT_VARIANTS

    def check(self, params) -> None:
        if not (
            isinstance(params, tuple)
            and all(type(x) is int for x in params)
            and (self.names is None or len(params) == len(self.names))
            and self.valid(*params)
        ):
            raise ParamOutOfRange(f"{self.base.value} takes {self.bounds}: {params!r}")

    def tag(self, params) -> str:
        if not params:
            return self.base.value
        if self.names is None:
            return f"{self.base.value}({','.join(map(str, params))})"
        return f"{self.base.value}({','.join(map('{}={}'.format, self.names, params))})"

    def orders(self, *params) -> tuple[int, ...]:
        """(clique, stable) orders of a split base's instance, (order,) of a
        non-split one, read off its runs."""
        runs = self.runs(*params)
        return tuple(map(runs_order, runs)) if self.split else (runs_order(runs),)

    def price(self, *params) -> tuple[int, int]:
        """(fixing, distinguishing) numbers of an instance; a split base's
        are its star blocks' (pendants, p == 1, are rigid), 0 and 1 for none."""
        if self.stars is None:
            return self.fix(*params), self.dist(*params)
        fix, dist = 0, 1
        for p, q in self.stars(*params):
            fix += q - 1 if p == 1 else q * (p - 1)
            dist = max(dist, _dist_star_block(p, q))
        return fix, dist

    def emit(self, v: Variant, params):
        """Runs of variant v (unchecked; v must be one of ``variants``)."""
        return self.transform(v, self.runs(*params))

    def transform(self, v: Variant, runs):
        """Variant v of the runs of an instance."""
        if v is Variant.ORIGINAL:
            return runs
        if self.split:
            return transform_runs(TRANSFORMS[v], *runs)
        return complement_runs(runs)

    def shape(self, runs):
        """The parameters whose runs these are, or None: the exact inverse
        of ``runs``."""
        prm = self.guess(runs)
        if prm is not None and self.valid(*prm) and self.runs(*prm) == runs:
            return prm
        return None


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


def _star_runs(*prm):
    """Runs of blocks of q_i stars with p_i leaves: spq(p, q) and S2."""
    ps, qs = prm[::2], prm[1::2]
    # a centre of block i is adjacent to its p_i leaves and the other centres
    shift = sum(qs) - 1
    return tuple(zip(map(shift.__add__, ps), qs)), ((1, sum(map(mul, ps, qs))),)


def _s2_params(clique, k: int, s: int):
    """The S2 parameters of a head with the clique runs ``clique`` over k
    vertices and s stable vertices of degree 1, or None: a centre of degree
    d has d - k + 1 leaves. The runs of S2(prm) are the head's exactly when
    every centre has a leaf and the leaves number s; well-formed runs make
    the p_i decrease."""
    prm = tuple([x for d, m in clique for x in (d - k + 1, m)])
    if prm[-2] >= 1 and sum(map(mul, prm[::2], prm[1::2])) == s:
        return prm
    return None


# The decoders of the split bases whose parameters follow from a head's
# greatest clique degree ``top`` and its clique and stable orders k and s;
# each returns None when the three numbers disagree.


def _spq_decode(top: int, k: int, s: int):
    """spq(p, q): top = p + q - 1, k = q and s = p*q."""
    p = top - k + 1
    return (p, k) if p * k == s else None


def _s3_decode(top: int, k: int, s: int):
    """S3(p, q1, q2): top = p + q1 + q2, k = q1 + q2 and
    s = 1 + p*q1 + (p + 1)*q2, which fix all three."""
    p = top - k
    q2 = s - 1 - p * k
    return p, k - q2, q2


def _s4_decode(top: int, k: int, s: int):
    """S4(p, q): k = q + 3, s = (p + 1)(q + 2) - 1 and top = s + q + 1."""
    if top != s + k - 2:
        return None
    return (s + 1) // (k - 1) - 1, k - 3


# The catalog, one record per base. The non-split matcher tries its families
# in tuple order; the split matcher tries the one whose signature fits.
NON_SPLIT_FAMILIES = (
    Family(
        Base.C5, (), "no parameters", lambda: True,
        runs=lambda: ((2, 5),), guess=lambda runs: (),
        candidates=lambda n: [()] if n == 5 else [],
        omega_alpha=lambda: (2, 2), fix=lambda: 2, dist=lambda: 3, split=False,
    ),
    Family(
        Base.MK2, ("m",), "m >= 2", lambda m: m >= 2,
        runs=lambda m: ((1, 2 * m),),
        guess=lambda runs: (runs[0][1] // 2,) if len(runs) == 1 else None,
        candidates=lambda n: [(n // 2,)] if n % 2 == 0 and n >= 4 else [],
        omega_alpha=lambda m: (2, m), fix=lambda m: m, split=False,
        dist=_min_colors_for_pairs,
    ),
    Family(
        Base.U2, ("m", "l"), "m >= 1, l >= 2", lambda m, ell: m >= 1 and ell >= 2,
        runs=lambda m, ell: ((ell, 1), (1, 2 * m + ell)),
        guess=lambda runs: (
            ((runs[1][1] - runs[0][0]) // 2, runs[0][0]) if len(runs) == 2 else None
        ),
        candidates=lambda n: [(m, n - 1 - 2 * m) for m in range(1, (n - 3) // 2 + 1)],
        omega_alpha=lambda m, ell: (2, m + ell), fix=lambda m, ell: m + ell - 1,
        dist=lambda m, ell: max(_min_colors_for_pairs(m), ell), split=False,
    ),
    Family(
        Base.U3, ("m",), "m >= 1", lambda m: m >= 1,
        runs=lambda m: ((2 * m + 2, 1), (2, 2 * m + 3)),
        guess=lambda runs: ((runs[0][0] - 2) // 2,) if len(runs) == 2 else None,
        candidates=lambda n: [((n - 4) // 2,)] if n % 2 == 0 and n >= 6 else [],
        omega_alpha=lambda m: (3, m + 2), fix=lambda m: m + 1,
        dist=lambda m: max(_min_colors_for_pairs(m), 2), split=False,
    ),
)
SPLIT_FAMILIES = (
    Family(
        Base.K1, (), "no parameters", lambda: True,
        runs=lambda: (((0, 1),), ()), guess=None,
        candidates=lambda n: [()] if n == 1 else [],
        omega_alpha=lambda: (1, 1), stars=lambda: (),
    ),
    Family(
        Base.S1, (), "no parameters", lambda: True,
        runs=lambda: ((), ((0, 1),)), guess=None,
        candidates=lambda n: [()] if n == 1 else [],
        omega_alpha=lambda: (1, 1), stars=lambda: (),
    ),
    # q stars with p leaves each, centers mutually adjacent
    Family(
        Base.SPQ, ("p", "q"), "p >= 1, q >= 2", lambda p, q: p >= 1 and q >= 2,
        runs=_star_runs, guess=None, decode=_spq_decode,
        candidates=lambda n: [
            (n // q - 1, q) for q in range(2, n // 2 + 1) if n % q == 0
        ],
        stars=lambda p, q: ((p, q),),
    ),
    # blocks of q_i stars with p_i leaves, all centers mutually adjacent
    Family(
        Base.S2, None, "pairs p1, q1, ..., pm, qm with m >= 2,"
        " p1 > ... > pm >= 1 and every qi >= 1",
        lambda *prm: (
            len(prm) >= 4 and len(prm) % 2 == 0 and prm[-2] >= 1
            and all(q >= 1 for q in prm[1::2])
            and all(a > b for a, b in zip(prm[::2], prm[2::2]))
        ),
        runs=_star_runs, guess=None, candidates=_s2_tuples,
        stars=lambda *prm: tuple(zip(prm[::2], prm[1::2])),
    ),
    Family(
        Base.S3, ("p", "q1", "q2"), "p >= 1, q1 >= 2, q2 >= 1",
        lambda p, q1, q2: p >= 1 and q1 >= 2 and q2 >= 1,
        runs=lambda p, q1, q2: (
            ((p + q1 + q2, q1 + q2),), ((q1, 1), (1, p * q1 + (p + 1) * q2))
        ),
        guess=None, decode=_s3_decode,
        # q2 blocks of p+2 vertices and the center leave a multiple of p+1
        candidates=lambda n: [
            (p, rest // (p + 1), q2)
            for p in range(1, n)
            for q2 in range(1, (n - 1) // (p + 2) + 1)
            if (rest := n - 1 - q2 * (p + 2)) >= 2 * (p + 1) and rest % (p + 1) == 0
        ],
        stars=lambda p, q1, q2: ((p, q1), (p + 1, q2)),
    ),
    Family(
        Base.S4, ("p", "q"), "p >= 1, q >= 1", lambda p, q: p >= 1 and q >= 1,
        runs=lambda p, q: (
            ((2 * (p + q + 1) + q * p, 1), (p + q + 3, q + 2)),
            ((2, q * p + 2 * p + q + 1),),
        ),
        guess=None, decode=_s4_decode,
        # the order is (p + 2)(q + 2)
        candidates=lambda n: [
            (p, n // (p + 2) - 2) for p in range(1, n // 3 - 1) if n % (p + 2) == 0
        ],
        stars=lambda p, q: ((p, 2), (p + 1, q)),
    ),
)
# compact blocks: a run of m > 1 single vertices; never matched or drawn
BLOCKS = (
    Family(
        Base.COMPLETE_BLOCK, ("m",), "m >= 1", lambda m: m >= 1,
        runs=lambda m: (((m - 1, m),), ()), guess=None, candidates=lambda n: [],
        omega_alpha=lambda m: (m, 1), fix=lambda m: m - 1, dist=lambda m: m,
    ),
    Family(
        Base.EMPTY_BLOCK, ("m",), "m >= 1", lambda m: m >= 1,
        runs=lambda m: ((), ((0, m),)), guess=None, candidates=lambda n: [],
        omega_alpha=lambda m: (1, m), fix=lambda m: m - 1, dist=lambda m: m,
    ),
)
FAMILIES = NON_SPLIT_FAMILIES + SPLIT_FAMILIES
CATALOG: dict[Base, Family] = {f.base: f for f in FAMILIES + BLOCKS}


def _first_shape(families, variant: Variant, runs) -> TypedComponent | None:
    for f in families:
        prm = f.shape(runs)
        if prm is not None:
            return TypedComponent(variant, f.base, prm, runs_order(runs))
    return None


def match_nonsplit_runs(runs) -> TypedComponent | None:
    """Recognize the runs of an indecomposable non-split sequence against
    the four non-split families, trying the original then the complement."""
    t = _first_shape(NON_SPLIT_FAMILIES, Variant.ORIGINAL, runs)
    if t is None and len(runs) <= 2:
        # every family has at most two runs, and complement keeps the count
        complement = complement_runs(runs)
        t = _first_shape(NON_SPLIT_FAMILIES, Variant.COMPLEMENT, complement)
    return t


# The one split family a two-sided head can be under a variant, by the
# variant's signature: its clique run count (3 standing for any more),
# stable run count and least stable degree. spq is (1, 1, 1), S2 (>= 2, 1,
# 1), S3 (1, 2, 1) and S4 (2, 1, 2); K1 and S1 are one-sided.
_S2 = CATALOG[Base.S2]
_SIGNATURES = {
    (1, 1, 1): CATALOG[Base.SPQ], (2, 1, 1): _S2, (3, 1, 1): _S2,
    (2, 1, 2): CATALOG[Base.S4], (1, 2, 1): CATALOG[Base.S3],
}


def match_split_runs(kruns, sruns) -> TypedComponent | None:
    """Recognize the clique and stable runs of an indecomposable split
    component against the six split families under original, inverse,
    complement and inverse-complement, in that order; the runs are tuples,
    as ``DegreeSequence.runs`` holds them.

    A one-sided head is K1 or S1 as it stands. Each variant maps every
    degree of a side by sign*d + c and may swap the sides
    (:func:`~unigraph.degseq.side_maps`), so its signature
    (``_SIGNATURES``), greatest clique degree and orders come off the
    head's end runs through that table, without a transform. A variant
    whose signature fits no family is skipped. A decoding family reads its
    parameters off those numbers and confirms them by emitting; S2 reads
    them off the clique runs mapped through that table. No two families
    share a signature, so the first variant that matches gives the tag that
    trying every family in that order would."""
    if not (kruns and sruns):
        t = _SINGLE["k1" if kruns else "s1"]
        return t if CATALOG[t.base].runs() == (kruns, sruns) else None
    p, q = runs_order(kruns), runs_order(sruns)
    for v in SPLIT_VARIANTS:
        swap, sign, a, b = side_maps(TRANSFORMS[v], p, q)
        ka, sa, k, s = (sruns, kruns, q, p) if swap else (kruns, sruns, p, q)
        # the end run that maps to each side's greatest degree
        top = 0 if sign > 0 else -1
        f = _SIGNATURES.get((min(len(ka), 3), len(sa), sign * sa[~top][0] + b))
        if f is None:
            continue
        if f is _S2:
            prm = _s2_params([(sign * d + a, m) for d, m in ka[::sign]], k, s)
        else:
            prm = f.decode(sign * ka[top][0] + a, k, s)
            if prm is None or not f.valid(*prm) or f.emit(v, prm) != (kruns, sruns):
                continue
        if prm is not None:
            return TypedComponent(v, f.base, prm, p + q)
    return None


def match_nonsplit_type(s: DegreeSequence) -> TypedComponent | None:
    """:func:`match_nonsplit_runs` on a sequence."""
    check_sequence(s)
    return match_nonsplit_runs(s.runs)


def match_split_type(ps: PairedDegreeSequence) -> TypedComponent | None:
    """:func:`match_split_runs` on a paired sequence."""
    check_paired(ps)
    return match_split_runs(ps.kpart.runs, ps.spart.runs)


def family_of(t: TypedComponent) -> Family:
    """The catalog record of a well-formed typed component.

    Raises ParamOutOfRange when ``t`` is not a typed component, its
    parameters leave the catalog bounds or its order is not theirs, and
    VariantUndefined for a split inverse of a non-split base.
    """
    if not isinstance(t, TypedComponent):
        raise ParamOutOfRange(f"not a typed component: {t!r}")
    if not (isinstance(t.base, Base) and isinstance(t.variant, Variant)):
        raise ParamOutOfRange(f"unknown base or variant in {t!r}")
    f = CATALOG[t.base]
    f.check(t.params)
    order = sum(f.orders(*t.params))
    if type(t.order) is not int or t.order != order:
        raise ParamOutOfRange(f"{f.tag(t.params)} has order {order}, not {t.order!r}")
    if t.variant not in f.variants:
        raise VariantUndefined("non-split bases only admit the complement")
    return f


def emit_runs(t: TypedComponent):
    """Catalog runs of a typed component (the exact matcher inverse): plain
    runs for a non-split base, (clique runs, stable runs) otherwise. Raises
    as :func:`family_of` does."""
    return family_of(t).emit(t.variant, t.params)


def type_to_sequence(t: TypedComponent):
    """Emit the catalog sequence for a typed component (exact matcher inverse)."""
    runs = emit_runs(t)
    if CATALOG[t.base].split:
        return PairedDegreeSequence.from_runs(*runs)
    return DegreeSequence(runs)


# the types of the kernel's single-vertex records, which skip the matcher
_SINGLE = {
    "k1": TypedComponent(Variant.ORIGINAL, Base.K1, (), 1),
    "s1": TypedComponent(Variant.ORIGINAL, Base.S1, (), 1),
}


@lru_cache(maxsize=1 << 14)
def match_head(kside, sside) -> TypedComponent:
    """:func:`match_split_runs`, cached on a kernel head record's flat
    sides (d1, m1, d2, m2, ...), which cost a cached shape less than pair
    tuples: heads of one shape recur across decompositions. A head that
    types as nothing raises NotUnigraph, which the cache does not keep: a
    sequence stops at its first failure and keeps its verdict, so nothing
    asks again, and such a head's runs are bounded by no catalog shape."""
    t = match_split_runs(side_runs(kside), side_runs(sside))
    if t is None:
        raise NotUnigraph("no catalog type fits the head")
    return t


def _tail_type(rec, prev: str | None) -> TypedComponent | None:
    """Type of the kernel's tail record, after a record of kind ``prev``; a
    single vertex takes the side :func:`tail_joins_clique` puts it on, and
    a longer tail the split partition the kernel read off its pass."""
    _, truns, n, k = rec
    if n == 1:
        return _SINGLE["k1" if tail_joins_clique(prev) else "s1"]
    if k is None:
        return match_nonsplit_runs(truns)
    return match_split_runs(truns[:k], truns[k:])  # one per sequence: uncached


def is_unigraph(s: DegreeSequence) -> tuple[Decomposition, UnigraphReport]:
    """Decompose and classify; the sequence is a unigraph exactly when every
    indecomposable component lies in the catalog.

    Each run is matched once, off the kernel's records, and the report
    keeps one entry per run; ``failure_index`` is still a strip index.

    The sequence is immutable, so its (decomposition, report) is kept on the
    sequence object, as its cached ``n`` is: a second call on the same
    object, or a function of :mod:`unigraph.params` after this one, returns
    it without decomposing or matching again. Threads that classify one
    object at once may each classify it, but the first verdict stored wins
    and every caller gets that one object. Equality, hashing and repr of the
    sequence still read its runs only.
    """
    check_sequence(s)
    verdict = s.__dict__.get("_unigraph")
    if verdict is None:
        verdict = s.__dict__.setdefault("_unigraph", _classify(s))
    return verdict


def _classify(s: DegreeSequence) -> tuple[Decomposition, UnigraphReport]:
    """The verdict :func:`is_unigraph` keeps."""
    d = decompose(s)
    runs: list[tuple[TypedComponent, int]] = []
    failure: int | None = None
    strips = 0
    prev = None
    for rec in d._records:
        kind = rec[0]
        if kind == "head":
            try:
                t, m = match_head(rec[1], rec[2]), 1
            except NotUnigraph:
                t = None
        elif kind == "tail":
            if not rec[2]:
                break
            t, m = _tail_type(rec, prev), 1
        else:
            t, m = _SINGLE[kind], rec[1]
        if t is None:
            failure = strips
            break
        runs.append((t, m))
        strips += m
        prev = kind
    return d, UnigraphReport._trusted(failure is None, tuple(runs), failure)
