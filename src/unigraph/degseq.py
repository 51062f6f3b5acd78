"""Degree sequences: canonical run-length form, graphicality, realization,
and the sequence-level transforms (complement, split inverse, composition).

A :class:`DegreeSequence` is a non-increasing multiset of vertex degrees
stored as strictly decreasing (degree, multiplicity) runs. Multiplicities
are plain Python ints, so synthetic sequences with millions of equal degrees
stay tiny. A :class:`PairedDegreeSequence` is a split component's sequence
with the clique-side and stable-side blocks kept apart.

Text format: comma-separated degrees with optional caret multiplicity
(``8^4,5^4,2^2``); a paired sequence joins its two parts with a single
semicolon and writes an empty part as ``-`` (``3,2;1^3``).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import _kernel
from .errors import FormatError, NegativeDegree, NotGraphical, TooLarge

_RUN_RE = re.compile(r"^\s*(\d+)\s*(?:\^\s*(\d+)\s*)?$")

# realize refuses sequences whose graph has more vertices plus edges
REALIZE_MAX = 10**7


@dataclass(frozen=True)
class DegreeSequence:
    """Run-length encoded, non-increasing degree multiset."""

    runs: tuple[tuple[int, int], ...]

    # Degrees may legitimately reach or exceed the run total when the
    # sequence is one part of a paired form, so only the run-length shape is
    # enforced here; standalone realizability is is_graphical's job.
    def __post_init__(self) -> None:
        prev = None
        for d, m in self.runs:
            if m < 1:
                raise FormatError("multiplicity must be positive")
            if d < 0:
                raise NegativeDegree(f"negative degree {d}")
            if prev is not None and d >= prev:
                raise FormatError("runs must be strictly decreasing")
            prev = d

    @cached_property
    def n(self) -> int:
        return sum(m for _, m in self.runs)

    @cached_property
    def degree_sum(self) -> int:
        return sum(d * m for d, m in self.runs)

    def values_mults(self) -> tuple[list[int], list[int]]:
        return [d for d, _ in self.runs], [m for _, m in self.runs]

    def degrees(self) -> Iterator[int]:
        """Yield individual degrees; avoid on huge multiplicities."""
        for d, m in self.runs:
            yield from (d,) * m

    def to_list(self) -> list[int]:
        return list(self.degrees())

    def to_text(self) -> str:
        if not self.runs:
            return "-"
        return ",".join(f"{d}^{m}" if m > 1 else str(d) for d, m in self.runs)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class PairedDegreeSequence:
    """Split component sequence with clique (K) and stable (S) blocks."""

    kpart: DegreeSequence
    spart: DegreeSequence

    @classmethod
    def from_runs(cls, kruns, sruns) -> PairedDegreeSequence:
        return cls(DegreeSequence(tuple(kruns)), DegreeSequence(tuple(sruns)))

    @property
    def p(self) -> int:
        return self.kpart.n

    @property
    def q(self) -> int:
        return self.spart.n

    @property
    def order(self) -> int:
        return self.p + self.q

    def validate(self) -> None:
        """Check the split-structure bounds and merged graphicality."""
        p = self.p
        if self.kpart.runs and self.kpart.runs[-1][0] < p - 1:
            raise FormatError("clique-side degree below p-1")
        if self.spart.runs and self.spart.runs[0][0] > p:
            raise FormatError("stable-side degree above p")
        # cross edges are counted once from each side
        if self.kpart.degree_sum - p * (p - 1) != self.spart.degree_sum:
            raise FormatError("clique/stable cross-degree sums disagree")
        if not is_graphical(self.merged()):
            raise NotGraphical(f"merged sequence of {brief(self)} not graphical")

    def merged(self) -> DegreeSequence:
        pair = (self.kpart.runs, self.spart.runs)
        return DegreeSequence(compose_runs((pair,), ()))

    def to_text(self) -> str:
        return f"{self.kpart.to_text()};{self.spart.to_text()}"

    def __str__(self) -> str:
        return self.to_text()


def normalize(raw) -> DegreeSequence:
    """Canonical run-length form of a raw degree list. Idempotent.

    The kernel range-checks the degrees while counting, so the list is
    scanned again only to name the fault when that check fails. Input that
    is not an iterable of integers raises FormatError.
    """
    try:
        degrees = list(raw)
        vals, mults = _kernel.normalize_runs(degrees)
    except TypeError as exc:
        raise FormatError(f"bad degree list: {exc}") from None
    except ValueError:
        lo, hi = min(degrees), max(degrees)
        if lo < 0:
            raise NegativeDegree(f"negative degree {lo}") from None
        n = len(degrees)
        raise NotGraphical(f"degree {hi} out of range for {n} vertices") from None
    return DegreeSequence(tuple(zip(vals, mults)))


# error messages quote a sequence's text up to this many characters
BRIEF_CHARS = 200


def brief(s) -> str:
    """Text of a plain or paired sequence for an error message: verbatim up
    to BRIEF_CHARS characters, otherwise its leading runs, its vertex count
    n and its run count r."""
    if isinstance(s, PairedDegreeSequence):
        return f"{brief(s.kpart)};{brief(s.spart)}"
    lead: list[str] = []
    size = -1
    for d, m in s.runs:
        lead.append(f"{d}^{m}" if m > 1 else str(d))
        size += len(lead[-1]) + 1
        if size > BRIEF_CHARS:
            break
    else:
        return s.to_text()
    while len(lead) > 1 and size > BRIEF_CHARS // 2:
        size -= len(lead.pop()) + 1
    return f"{','.join(lead)},... (n={s.n}, r={len(s.runs)})"


def check_sequence(s) -> None:
    """Raise FormatError unless ``s`` is a DegreeSequence (not a raw list)."""
    if not isinstance(s, DegreeSequence):
        raise FormatError(f"expected a DegreeSequence, got {type(s).__name__}")


def is_graphical(s: DegreeSequence) -> bool:
    """Erdos-Gallai realizability test, evaluated at run boundaries."""
    check_sequence(s)
    vals, mults = s.values_mults()
    return _kernel.eg_graphical(vals, mults)


def runs_order(runs) -> int:
    """Number of vertices in a run tuple."""
    return sum(m for _, m in runs)


def complement_runs(runs, n: int) -> tuple[tuple[int, int], ...]:
    """Runs of the complement within n vertices: d -> n-1-d. Involution."""
    return tuple((n - 1 - d, m) for d, m in reversed(runs))


def inverse_runs(kruns, sruns, p: int, q: int):
    """Split inverse on (clique runs, stable runs) with p clique and q
    stable vertices: clique edges dropped, stable side turned into a clique.

    K-part degrees lose p-1, S-part degrees gain q-1, and the parts swap
    roles, so the result has q clique and p stable vertices. Involution.
    """
    return (
        tuple((d + q - 1, m) for d, m in sruns),
        tuple((d - (p - 1), m) for d, m in kruns),
    )


def complement_seq(s: DegreeSequence) -> DegreeSequence:
    """Degree sequence of the complement: d -> n-1-d. Involution."""
    check_sequence(s)
    return DegreeSequence(complement_runs(s.runs, s.n))


def complement_paired(ps: PairedDegreeSequence) -> PairedDegreeSequence:
    """Paired complement: degrees complement within the whole component and
    the K and S parts swap roles."""
    n = ps.order
    return PairedDegreeSequence.from_runs(
        complement_runs(ps.spart.runs, n), complement_runs(ps.kpart.runs, n)
    )


def inverse_paired(ps: PairedDegreeSequence) -> PairedDegreeSequence:
    """Split inverse of a paired sequence; see :func:`inverse_runs`."""
    return PairedDegreeSequence.from_runs(
        *inverse_runs(ps.kpart.runs, ps.spart.runs, ps.p, ps.q)
    )


def compose_seq(head: PairedDegreeSequence, tail: DegreeSequence) -> DegreeSequence:
    """Sequence of the composition: the head's clique side dominates the tail.

    K degrees gain |tail|, tail degrees gain p, S degrees are unchanged.
    """
    return compose_all((head,), tail)


def compose_runs(pairs, tail) -> tuple[tuple[int, int], ...]:
    """Runs of pairs[0] o pairs[1] o ... o tail in one pass; the inverse of
    decompose. ``pairs`` holds (clique runs, stable runs), outermost first,
    and ``tail`` the runs of the innermost part.

    The clique side of component i gains the order of everything below it
    plus the clique sizes above it, its stable side gains the clique sizes
    above it, and the tail gains every clique size. The shifted blocks are
    accumulated by degree and sorted once, so the result is their sorted
    union whatever the blocks hold.
    """
    pairs = tuple(pairs)
    sizes = [(runs_order(k), runs_order(s)) for k, s in pairs]
    below = runs_order(tail) + sum(p + q for p, q in sizes)
    above = 0
    acc: defaultdict[int, int] = defaultdict(int)
    for (kruns, sruns), (p, q) in zip(pairs, sizes):
        below -= p + q
        for d, m in kruns:
            acc[d + below + above] += m
        for d, m in sruns:
            acc[d + above] += m
        above += p
    for d, m in tail:
        acc[d + above] += m
    return tuple(sorted(acc.items(), reverse=True))


def compose_all(
    components: Iterable[PairedDegreeSequence], tail: DegreeSequence
) -> DegreeSequence:
    """Sequence of components[0] o components[1] o ... o tail; see
    :func:`compose_runs`."""
    check_sequence(tail)
    pairs = []
    for c in components:
        if not isinstance(c, PairedDegreeSequence):
            raise FormatError(
                f"expected a PairedDegreeSequence, got {type(c).__name__}"
            )
        pairs.append((c.kpart.runs, c.spart.runs))
    return DegreeSequence(compose_runs(pairs, tail.runs))


def _check_text(text) -> None:
    if not isinstance(text, str):
        raise FormatError(f"expected sequence text, got {type(text).__name__}")


def parse_sequence(text: str) -> DegreeSequence:
    """Parse the ``8^4,5^4,2^2`` text form (``-`` is the empty sequence)."""
    _check_text(text)
    text = text.strip()
    if text in ("", "-"):
        return DegreeSequence(())
    degrees: list[tuple[int, int]] = []
    for part in text.split(","):
        m = _RUN_RE.match(part)
        if not m:
            raise FormatError(f"bad degree run {part!r}")
        degrees.append((int(m.group(1)), int(m.group(2) or 1)))
    raw_vals: dict[int, int] = {}
    for d, mult in degrees:
        if mult < 1:
            raise FormatError(f"bad multiplicity in {text!r}")
        raw_vals[d] = raw_vals.get(d, 0) + mult
    runs = tuple(sorted(raw_vals.items(), reverse=True))
    try:
        return DegreeSequence(runs)
    except (ValueError, NegativeDegree) as exc:
        raise FormatError(str(exc)) from exc


def parse_paired(text: str) -> PairedDegreeSequence:
    """Parse the ``3,2;1^3`` paired text form."""
    _check_text(text)
    if text.count(";") != 1:
        raise FormatError("paired sequence needs exactly one ';'")
    k_text, s_text = text.split(";")
    kpart = parse_sequence(k_text)
    spart = parse_sequence(s_text)
    ps = PairedDegreeSequence(kpart, spart)
    try:
        ps.validate()
    except (ValueError, NotGraphical) as exc:
        raise FormatError(f"invalid paired sequence {text!r}: {exc}") from exc
    return ps


def realize(s: DegreeSequence):
    """Deterministic Havel-Hakimi realization in O(n + m).

    Vertices are numbered in non-increasing degree order, so vertex v has
    degree ``s.to_list()[v]``. Unfinished vertices wait in one bucket per
    remaining degree. Each round pops a vertex u from the highest non-empty
    bucket and joins it to deg(u) targets taken from the highest non-empty
    buckets downward; each target then moves one bucket lower. A round scans
    at most deg(u) buckets and the top bucket only moves down.

    Ties: a bucket is a stack. It starts with its run's ids, lowest on top,
    and a lowered vertex is pushed on top of the bucket below after the
    round, so within one remaining degree the vertex that entered the bucket
    last is taken first, whether as u or as a target.

    Raises TooLarge, before building anything, when n + m exceeds
    REALIZE_MAX.
    """
    from . import graphcore

    check_sequence(s)
    n, m = s.n, s.degree_sum // 2
    if n + m > REALIZE_MAX:
        raise TooLarge(f"realize supports n + m up to {REALIZE_MAX}, got {n + m}")
    if not is_graphical(s):
        raise NotGraphical(f"{brief(s)} is not graphical")
    top = s.runs[0][0] if s.runs else 0
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    end = 0
    for d, mult in s.runs:
        end += mult
        buckets[d] = list(range(end - 1, end - mult - 1, -1))
    adj: list[list[int]] = [[] for _ in range(n)]
    while top:
        if not buckets[top]:
            top -= 1
            continue
        u = buckets[top].pop()
        need = d = top
        taken_from: list[tuple[int, list[int]]] = []
        while need:
            bucket = buckets[d]
            if bucket:
                taken = bucket[-need:]
                del bucket[-need:]
                taken_from.append((d, taken))
                adj[u] += taken
                need -= len(taken)
            d -= 1
        for d, taken in taken_from:
            for v in taken:
                adj[v].append(u)
            if d > 1:
                buckets[d - 1] += taken
    return graphcore.Graph.from_adjacency(adj)


EMPTY = DegreeSequence(())
