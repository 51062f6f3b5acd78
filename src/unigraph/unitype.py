"""Catalog of indecomposable unigraph components and their recognizers.

Every indecomposable unigraph is, up to complement (and split inverse for
split graphs), one of a dozen parametric families. The matchers below try
the variants and families in a fixed order, so the tag assigned to a
sequence is deterministic; the emitters are their exact inverses.

Tag strings are part of the CLI contract, e.g. ``k1``, ``complement:mk2(m=2)``,
``inverse:spq(p=2,q=2)``, ``s2(2,1,1,1)``, ``s3(p=1,q1=2,q2=1)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .decomp import Decomposition, decompose, tail_joins_clique
from .degseq import (
    DegreeSequence,
    PairedDegreeSequence,
    check_sequence,
    complement_runs,
    complement_seq,
    inverse_runs,
    runs_order,
)
from .errors import ParamOutOfRange, VariantUndefined
from .split import split_runs


class Variant(enum.Enum):
    ORIGINAL = "original"
    COMPLEMENT = "complement"
    INVERSE = "inverse"
    INVERSE_COMPLEMENT = "inverse-complement"


class Base(enum.Enum):
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


NON_SPLIT_BASES = frozenset({Base.C5, Base.MK2, Base.U2, Base.U3})
_PARAM_NAMES = {
    Base.MK2: ("m",),
    Base.U2: ("m", "l"),
    Base.U3: ("m",),
    Base.SPQ: ("p", "q"),
    Base.S3: ("p", "q1", "q2"),
    Base.S4: ("p", "q"),
    Base.COMPLETE_BLOCK: ("m",),
    Base.EMPTY_BLOCK: ("m",),
}


@dataclass(frozen=True)
class TypedComponent:
    variant: Variant
    base: Base
    params: tuple[int, ...]
    order: int

    def tag(self) -> str:
        if self.base is Base.S2:
            body = f"s2({','.join(map(str, self.params))})"
        elif self.base in _PARAM_NAMES:
            names = _PARAM_NAMES[self.base]
            body = f"{self.base.value}({','.join(f'{k}={v}' for k, v in zip(names, self.params))})"
        else:
            body = self.base.value
        if self.variant is Variant.ORIGINAL:
            return body
        return f"{self.variant.value}:{body}"

    def __str__(self) -> str:
        return self.tag()


@dataclass(frozen=True)
class UnigraphReport:
    """Verdict of :func:`is_unigraph`, run-length.

    ``runs`` holds one (type, count) entry per run of the decomposition
    that matched, in order, and the tail's type last as an entry of its
    own. ``component_types`` and ``tags()`` list one type per strip, and
    ``failure_index`` is the strip index of the first component that did
    not match.
    """

    is_unigraph: bool
    runs: tuple[tuple[TypedComponent, int], ...]
    failure_index: int | None

    @cached_property
    def component_types(self) -> tuple[TypedComponent, ...]:
        """One entry per strip; a run of m single vertices expands to m."""
        out: list[TypedComponent] = []
        for t, m in self.runs:
            out.extend([t] * m)
        return tuple(out)

    def tags(self) -> list[str]:
        out: list[str] = []
        for t, m in self.runs:
            out.extend([t.tag()] * m)
        return out


SPLIT_VARIANTS = (
    Variant.ORIGINAL,
    Variant.INVERSE,
    Variant.COMPLEMENT,
    Variant.INVERSE_COMPLEMENT,
)


def split_variant(v: Variant, kruns, sruns, p: int, q: int):
    """(clique runs, stable runs) of variant v of a split component with p
    clique and q stable vertices; the inverse complement complements first."""
    if v is Variant.COMPLEMENT or v is Variant.INVERSE_COMPLEMENT:
        n = p + q
        kruns, sruns = complement_runs(sruns, n), complement_runs(kruns, n)
        p, q = q, p
    if v is Variant.INVERSE or v is Variant.INVERSE_COMPLEMENT:
        kruns, sruns = inverse_runs(kruns, sruns, p, q)
    return kruns, sruns


def apply_variant(x, v: Variant):
    """Variant transform on a plain or paired sequence; identity-preserving
    for ORIGINAL. Inverse variants require paired input."""
    if v is Variant.ORIGINAL:
        return x
    if isinstance(x, PairedDegreeSequence):
        return PairedDegreeSequence.from_runs(
            *split_variant(v, x.kpart.runs, x.spart.runs, x.p, x.q)
        )
    if v is not Variant.COMPLEMENT:
        raise VariantUndefined("split inverse is undefined for non-split input")
    return complement_seq(x)


def _nonsplit_shape(runs):
    """(base, params, order) of the non-split family whose runs these are."""
    if runs == ((2, 5),):
        return Base.C5, (), 5
    if len(runs) == 1:
        d1, r1 = runs[0]
        if d1 == 1 and r1 % 2 == 0 and r1 // 2 >= 2:
            return Base.MK2, (r1 // 2,), r1
    if len(runs) == 2:
        (d1, r1), (d2, r2) = runs
        if r1 == 1 and d2 == 1 and (r2 - d1) % 2 == 0:
            m, ell = (r2 - d1) // 2, d1
            if m >= 1 and ell >= 2:
                return Base.U2, (m, ell), 2 * m + ell + 1
        if d1 % 2 == 0 and r1 == 1 and d2 == 2:
            m = (d1 - 2) // 2
            if m >= 1 and r2 == 2 * m + 3:
                return Base.U3, (m,), 2 * m + 4
    return None


def match_nonsplit_runs(runs) -> TypedComponent | None:
    """Recognize the runs of an indecomposable non-split sequence against
    the four non-split families, trying the original then the complement."""
    shape = _nonsplit_shape(runs)
    if shape is not None:
        return TypedComponent(Variant.ORIGINAL, *shape)
    if len(runs) > 2:
        # every family has at most two runs, and complement keeps the count
        return None
    shape = _nonsplit_shape(complement_runs(runs, runs_order(runs)))
    if shape is not None:
        return TypedComponent(Variant.COMPLEMENT, *shape)
    return None


def _split_shape(ka, kb):
    """(base, params) of the split family whose clique and stable runs
    these are."""
    if len(ka) == 1 and not kb and ka[0] == (0, 1):
        return Base.K1, ()
    if not ka and len(kb) == 1 and kb[0] == (0, 1):
        return Base.S1, ()
    if len(ka) == 1 and len(kb) == 1:
        (d1, r1), (d2, r2) = ka[0], kb[0]
        if r2 % r1 == 0 and d2 == 1:
            p, q = r2 // r1, r1
            if p >= 1 and q >= 2 and d1 == p + q - 1:
                return Base.SPQ, (p, q)
    if len(ka) >= 2 and len(kb) == 1 and kb[0][0] == 1:
        ncenters = runs_order(ka)
        pis = [d - ncenters + 1 for d, _ in ka]
        qis = [r for _, r in ka]
        if pis[-1] >= 1 and kb[0][1] == sum(p * q for p, q in zip(pis, qis)):
            return Base.S2, tuple(x for pq in zip(pis, qis) for x in pq)
    if len(ka) == 1 and len(kb) == 2:
        (d1, r1) = ka[0]
        (d2, r2), (d3, r3) = kb
        if r2 == 1 and d3 == 1:
            p, q1, q2 = d1 - r1, d2, r1 - d2
            if p >= 1 and q1 >= 2 and q2 >= 1 and r3 == p * q1 + (p + 1) * q2:
                return Base.S3, (p, q1, q2)
    if len(ka) == 2 and len(kb) == 1:
        (d1, r1), (d2, r2) = ka
        (d3, r3) = kb[0]
        if r1 == 1 and d3 == 2:
            q = r2 - 2
            p = d2 - 3 - q
            if (
                p >= 1
                and q >= 1
                and d1 == 2 * (p + q + 1) + q * p
                and r3 == q * p + 2 * p + q + 1
            ):
                return Base.S4, (p, q)
    return None


# variants whose transform swaps the (clique, stable) run counts; the
# inverse complement swaps them twice
_COUNT_SWAPPING = frozenset({Variant.INVERSE, Variant.COMPLEMENT})


def _split_counts_fit(a: int, b: int) -> bool:
    """Whether a clique runs over b stable runs fit a split family: K1
    (1, 0), S1 (0, 1), spq (1, 1), S2 (>= 2, 1), S3 (1, 2) or S4 (2, 1)."""
    return b == 1 or (a, b) in ((1, 0), (1, 2))


def match_split_runs(kruns, sruns) -> TypedComponent | None:
    """Recognize the clique and stable runs of an indecomposable split
    component against the five split families under original, inverse,
    complement and inverse-complement, in that order.

    Complement and split inverse each map a run to one run and swap the
    two sides, so a variant is transformed only when its swapped run
    counts fit a family; a head that fits none costs no transform."""
    a, b = len(kruns), len(sruns)
    straight, swapped = _split_counts_fit(a, b), _split_counts_fit(b, a)
    if not (straight or swapped):
        return None
    p, q = runs_order(kruns), runs_order(sruns)
    for variant in SPLIT_VARIANTS:
        if not (swapped if variant in _COUNT_SWAPPING else straight):
            continue
        shape = _split_shape(*split_variant(variant, kruns, sruns, p, q))
        if shape is not None:
            return TypedComponent(variant, *shape, p + q)
    return None


def match_nonsplit_type(s: DegreeSequence) -> TypedComponent | None:
    """:func:`match_nonsplit_runs` on a sequence."""
    return match_nonsplit_runs(s.runs)


def match_split_type(ps: PairedDegreeSequence) -> TypedComponent | None:
    """:func:`match_split_runs` on a paired sequence."""
    return match_split_runs(ps.kpart.runs, ps.spart.runs)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamOutOfRange(msg)


# parameter count of each base; S2 takes any even count of at least 4
_ARITY = {Base.C5: 0, Base.K1: 0, Base.S1: 0, Base.S2: None}
_ARITY.update((b, len(names)) for b, names in _PARAM_NAMES.items())


def _base_runs(base: Base, params: tuple[int, ...]):
    """Runs of a base family instance: plain runs for a non-split base,
    (clique runs, stable runs) otherwise."""
    if base is Base.C5:
        return ((2, 5),)
    if base is Base.MK2:
        (m,) = params
        _check(m >= 2, "mk2 needs m >= 2")
        return ((1, 2 * m),)
    if base is Base.U2:
        m, ell = params
        _check(m >= 1 and ell >= 2, "u2 needs m >= 1, l >= 2")
        return ((ell, 1), (1, 2 * m + ell))
    if base is Base.U3:
        (m,) = params
        _check(m >= 1, "u3 needs m >= 1")
        return ((2 * m + 2, 1), (2, 2 * m + 3))
    if base is Base.K1:
        return ((0, 1),), ()
    if base is Base.S1:
        return (), ((0, 1),)
    if base is Base.SPQ:
        p, q = params
        _check(p >= 1 and q >= 2, "spq needs p >= 1, q >= 2")
        return ((p + q - 1, q),), ((1, p * q),)
    if base is Base.S2:
        _check(len(params) >= 4 and len(params) % 2 == 0, "s2 needs >= 2 pairs")
        pairs = list(zip(params[::2], params[1::2]))
        _check(all(q >= 1 for _, q in pairs), "s2 needs q_i >= 1")
        _check(
            all(a > b for (a, _), (b, _) in zip(pairs, pairs[1:]))
            and pairs[-1][0] >= 1,
            "s2 needs p_1 > ... > p_m >= 1",
        )
        ncenters = sum(q for _, q in pairs)
        kruns = tuple((p + ncenters - 1, q) for p, q in pairs)
        leaves = sum(p * q for p, q in pairs)
        return kruns, ((1, leaves),)
    if base is Base.S3:
        p, q1, q2 = params
        _check(p >= 1 and q1 >= 2 and q2 >= 1, "s3 needs p >= 1, q1 >= 2, q2 >= 1")
        return ((p + q1 + q2, q1 + q2),), ((q1, 1), (1, p * q1 + (p + 1) * q2))
    if base is Base.S4:
        p, q = params
        _check(p >= 1 and q >= 1, "s4 needs p >= 1, q >= 1")
        return (
            ((2 * (p + q + 1) + q * p, 1), (p + q + 3, q + 2)),
            ((2, q * p + 2 * p + q + 1),),
        )
    if base is Base.COMPLETE_BLOCK:
        (m,) = params
        _check(m >= 1, "complete block needs m >= 1")
        return ((m - 1, m),), ()
    (m,) = params  # EMPTY_BLOCK
    _check(m >= 1, "empty block needs m >= 1")
    return (), ((0, m),)


def emit_runs(t: TypedComponent):
    """Catalog runs of a typed component (the exact matcher inverse): plain
    runs for a non-split base, (clique runs, stable runs) otherwise.

    Raises ParamOutOfRange when ``t`` is not a well-formed typed component
    or its parameters leave the catalog bounds, and VariantUndefined for a
    split inverse of a non-split base.
    """
    if not isinstance(t, TypedComponent):
        raise ParamOutOfRange(f"not a typed component: {t!r}")
    base, params = t.base, t.params
    if not (isinstance(base, Base) and isinstance(t.variant, Variant)):
        raise ParamOutOfRange(f"unknown base or variant in {t!r}")
    arity = _ARITY[base]
    if not (
        isinstance(params, tuple)
        and (arity is None or len(params) == arity)
        and all(isinstance(x, int) for x in params)
    ):
        raise ParamOutOfRange(
            f"{base.value} takes {'an even number of' if arity is None else arity}"
            f" integer parameters, got {params!r}"
        )
    runs = _base_runs(base, params)
    if base in NON_SPLIT_BASES:
        if t.variant is Variant.ORIGINAL:
            return runs
        if t.variant is not Variant.COMPLEMENT:
            raise VariantUndefined("non-split bases only admit the complement")
        return complement_runs(runs, runs_order(runs))
    kruns, sruns = runs
    return split_variant(t.variant, kruns, sruns, runs_order(kruns), runs_order(sruns))


def type_to_sequence(t: TypedComponent):
    """Emit the catalog sequence for a typed component (exact matcher inverse)."""
    runs = emit_runs(t)
    if t.base in NON_SPLIT_BASES:
        return DegreeSequence(runs)
    return PairedDegreeSequence.from_runs(*runs)


@lru_cache(maxsize=1 << 14)
def match_head(kruns, sruns) -> TypedComponent | None:
    """:func:`match_split_runs`, cached on the run tuples: heads of one
    shape recur across decompositions."""
    return match_split_runs(kruns, sruns)


def _tail_type(d: Decomposition) -> TypedComponent | None:
    """Type of the indecomposable tail; a single vertex takes the side
    :func:`tail_joins_clique` puts it on. The kernel has proved the tail
    graphical, so only the split test runs."""
    tail = d.tail
    if tail.n == 1:
        prev = d.runs[-1][0] if d.runs else None
        base = Base.K1 if tail_joins_clique(prev) else Base.S1
        return TypedComponent(Variant.ORIGINAL, base, (), 1)
    found = split_runs(tail.runs)
    if found is None:
        return match_nonsplit_runs(tail.runs)
    return match_head(found[1], found[2])


def is_unigraph(s: DegreeSequence) -> tuple[Decomposition, UnigraphReport]:
    """Decompose and classify; the sequence is a unigraph exactly when every
    indecomposable component lies in the catalog.

    Each run of the decomposition is matched once, and the report keeps one
    entry per run; ``failure_index`` is still a strip index.

    The sequence is immutable, so its (decomposition, report) is kept on the
    sequence object, as its cached ``n`` is: a second call on the same
    object, or :func:`~unigraph.params.unigraph_params` after this one,
    returns it without decomposing or matching again. Equality, hashing and
    repr of the sequence still read its runs only.
    """
    check_sequence(s)
    verdict = s.__dict__.get("_unigraph")
    if verdict is None:
        verdict = s.__dict__["_unigraph"] = _classify(s)
    return verdict


def _classify(s: DegreeSequence) -> tuple[Decomposition, UnigraphReport]:
    """The verdict :func:`is_unigraph` keeps."""
    d = decompose(s)
    runs: list[tuple[TypedComponent, int]] = []
    failure: int | None = None
    strips = 0
    for comp, m in d.runs:
        t = match_head(comp.kpart.runs, comp.spart.runs)
        if t is None:
            failure = strips
            break
        runs.append((t, m))
        strips += m
    if failure is None and d.tail.n > 0:
        t = _tail_type(d)
        if t is None:
            failure = strips
        else:
            runs.append((t, 1))
    return d, UnigraphReport(failure is None, tuple(runs), failure)
