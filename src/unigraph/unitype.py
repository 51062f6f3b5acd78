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

from .decomp import Decomposition, decompose, tail_joins_clique
from .decomp import K1 as K1_PAIRED, S1 as S1_PAIRED
from .degseq import (
    DegreeSequence,
    PairedDegreeSequence,
    complement_paired,
    complement_seq,
    inverse_paired,
)
from .errors import ParamOutOfRange, VariantUndefined
from .split import SplitKind, determine_split


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
    is_unigraph: bool
    component_types: tuple[TypedComponent, ...]
    failure_index: int | None

    def tags(self) -> list[str]:
        return [t.tag() for t in self.component_types]


def apply_variant(x, v: Variant):
    """Variant transform on a plain or paired sequence; identity-preserving
    for ORIGINAL. Inverse variants require paired input."""
    paired = isinstance(x, PairedDegreeSequence)
    if v is Variant.ORIGINAL:
        return x
    if v is Variant.COMPLEMENT:
        return complement_paired(x) if paired else complement_seq(x)
    if not paired:
        raise VariantUndefined("split inverse is undefined for non-split input")
    if v is Variant.INVERSE:
        return inverse_paired(x)
    return inverse_paired(complement_paired(x))


def match_nonsplit_type(s: DegreeSequence) -> TypedComponent | None:
    """Recognize an indecomposable non-split sequence against the four
    non-split families, trying the original then the complement."""
    for variant in (Variant.ORIGINAL, Variant.COMPLEMENT):
        t = apply_variant(s, variant)
        runs = t.runs
        if runs == ((2, 5),):
            return TypedComponent(variant, Base.C5, (), 5)
        if len(runs) == 1:
            d1, r1 = runs[0]
            if d1 == 1 and r1 % 2 == 0 and r1 // 2 >= 2:
                return TypedComponent(variant, Base.MK2, (r1 // 2,), r1)
        if len(runs) == 2:
            (d1, r1), (d2, r2) = runs
            if r1 == 1 and d2 == 1 and (r2 - d1) % 2 == 0:
                m, ell = (r2 - d1) // 2, d1
                if m >= 1 and ell >= 2:
                    return TypedComponent(
                        variant, Base.U2, (m, ell), 2 * m + ell + 1
                    )
            if d1 % 2 == 0 and r1 == 1 and d2 == 2:
                m = (d1 - 2) // 2
                if m >= 1 and r2 == 2 * m + 3:
                    return TypedComponent(variant, Base.U3, (m,), 2 * m + 4)
    return None


def match_split_type(ps: PairedDegreeSequence) -> TypedComponent | None:
    """Recognize an indecomposable split component against the five split
    families under original/inverse/complement/inverse-complement."""
    order = ps.order
    for variant in (
        Variant.ORIGINAL,
        Variant.INVERSE,
        Variant.COMPLEMENT,
        Variant.INVERSE_COMPLEMENT,
    ):
        t = apply_variant(ps, variant)
        ka, kb = t.kpart.runs, t.spart.runs
        if len(ka) == 1 and not kb and ka[0] == (0, 1):
            return TypedComponent(variant, Base.K1, (), 1)
        if not ka and len(kb) == 1 and kb[0] == (0, 1):
            return TypedComponent(variant, Base.S1, (), 1)
        if len(ka) == 1 and len(kb) == 1:
            (d1, r1), (d2, r2) = ka[0], kb[0]
            if r2 % r1 == 0 and d2 == 1:
                p, q = r2 // r1, r1
                if p >= 1 and q >= 2 and d1 == p + q - 1:
                    return TypedComponent(variant, Base.SPQ, (p, q), order)
        if len(ka) >= 2 and len(kb) == 1:
            ncenters = sum(r for _, r in ka)
            pis = [d - ncenters + 1 for d, _ in ka]
            qis = [r for _, r in ka]
            d_b, r_b = kb[0]
            if (
                pis[-1] >= 1
                and d_b == 1
                and r_b == sum(p * q for p, q in zip(pis, qis))
            ):
                params = tuple(x for pq in zip(pis, qis) for x in pq)
                return TypedComponent(variant, Base.S2, params, order)
        if len(ka) == 1 and len(kb) == 2:
            (d1, r1) = ka[0]
            (d2, r2), (d3, r3) = kb
            if r2 == 1 and d3 == 1:
                p, q1, q2 = d1 - r1, d2, r1 - d2
                if p >= 1 and q1 >= 2 and q2 >= 1 and r3 == p * q1 + (p + 1) * q2:
                    return TypedComponent(variant, Base.S3, (p, q1, q2), order)
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
                    return TypedComponent(variant, Base.S4, (p, q), order)
    return None


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamOutOfRange(msg)


def _base_sequence(base: Base, params: tuple[int, ...]):
    if base is Base.C5:
        _check(params == (), "c5 takes no parameters")
        return DegreeSequence(((2, 5),))
    if base is Base.MK2:
        (m,) = params
        _check(m >= 2, "mk2 needs m >= 2")
        return DegreeSequence(((1, 2 * m),))
    if base is Base.U2:
        m, ell = params
        _check(m >= 1 and ell >= 2, "u2 needs m >= 1, l >= 2")
        return DegreeSequence(((ell, 1), (1, 2 * m + ell)))
    if base is Base.U3:
        (m,) = params
        _check(m >= 1, "u3 needs m >= 1")
        return DegreeSequence(((2 * m + 2, 1), (2, 2 * m + 3)))
    if base is Base.K1:
        return K1_PAIRED
    if base is Base.S1:
        return S1_PAIRED
    if base is Base.SPQ:
        p, q = params
        _check(p >= 1 and q >= 2, "spq needs p >= 1, q >= 2")
        return PairedDegreeSequence(
            DegreeSequence(((p + q - 1, q),)), DegreeSequence(((1, p * q),))
        )
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
        return PairedDegreeSequence(
            DegreeSequence(kruns), DegreeSequence(((1, leaves),))
        )
    if base is Base.S3:
        p, q1, q2 = params
        _check(p >= 1 and q1 >= 2 and q2 >= 1, "s3 needs p >= 1, q1 >= 2, q2 >= 1")
        return PairedDegreeSequence(
            DegreeSequence(((p + q1 + q2, q1 + q2),)),
            DegreeSequence(((q1, 1), (1, p * q1 + (p + 1) * q2))),
        )
    if base is Base.S4:
        p, q = params
        _check(p >= 1 and q >= 1, "s4 needs p >= 1, q >= 1")
        return PairedDegreeSequence(
            DegreeSequence(((2 * (p + q + 1) + q * p, 1), (p + q + 3, q + 2))),
            DegreeSequence(((2, q * p + 2 * p + q + 1),)),
        )
    if base is Base.COMPLETE_BLOCK:
        (m,) = params
        _check(m >= 1, "complete block needs m >= 1")
        return PairedDegreeSequence(DegreeSequence(((m - 1, m),)), DegreeSequence(()))
    if base is Base.EMPTY_BLOCK:
        (m,) = params
        _check(m >= 1, "empty block needs m >= 1")
        return PairedDegreeSequence(DegreeSequence(()), DegreeSequence(((0, m),)))
    raise ParamOutOfRange(f"unknown base {base}")


def type_to_sequence(t: TypedComponent):
    """Emit the catalog sequence for a typed component (exact matcher inverse)."""
    base = _base_sequence(t.base, t.params)
    if t.variant is not Variant.ORIGINAL and t.base in NON_SPLIT_BASES:
        if t.variant is not Variant.COMPLEMENT:
            raise VariantUndefined("non-split bases only admit the complement")
    return apply_variant(base, t.variant)


# Split-head matches keyed on run tuples (no sequence objects), cleared whole
# when full; match_head reads each result once, so a clear cannot fail it.
_MATCH_CACHE_MAX = 1 << 14
_MATCH_CACHE: dict = {}
_MISS = object()


def match_head(ps: PairedDegreeSequence) -> TypedComponent | None:
    """:func:`match_split_type`, cached on the run shape of ``ps``."""
    key = (ps.kpart.runs, ps.spart.runs)
    t = _MATCH_CACHE.get(key, _MISS)
    if t is _MISS:
        if len(_MATCH_CACHE) >= _MATCH_CACHE_MAX:
            _MATCH_CACHE.clear()
        t = _MATCH_CACHE[key] = match_split_type(ps)
    return t


def _tail_type(d: Decomposition) -> TypedComponent | None:
    """Type of the indecomposable tail; a single vertex takes the side
    :func:`tail_joins_clique` puts it on."""
    tail = d.tail
    if tail.n == 1:
        prev = d.runs[-1][0] if d.runs else None
        base = Base.K1 if tail_joins_clique(prev) else Base.S1
        return TypedComponent(Variant.ORIGINAL, base, (), 1)
    sc = determine_split(tail)
    if sc.kind is SplitKind.NOT_SPLIT:
        return match_nonsplit_type(tail)
    return match_head(sc.paired)


def is_unigraph(s: DegreeSequence) -> tuple[Decomposition, UnigraphReport]:
    """Decompose and classify; the sequence is a unigraph exactly when every
    indecomposable component lies in the catalog.

    Each run of the decomposition is matched once; the report still lists
    one type per strip, and ``failure_index`` is a strip index.
    """
    d = decompose(s)
    types: list[TypedComponent] = []
    failure: int | None = None
    for comp, m in d.runs:
        t = match_head(comp)
        if t is None:
            failure = len(types)
            break
        types.extend([t] * m)
    if failure is None and d.tail.n > 0:
        t = _tail_type(d)
        if t is None:
            failure = len(types)
        else:
            types.append(t)
    return d, UnigraphReport(failure is None, tuple(types), failure)
