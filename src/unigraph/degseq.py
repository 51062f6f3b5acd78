"""Degree sequences: canonical run-length form, graphicality, realization,
and the sequence-level transforms (complement, split inverse, composition).

A :class:`DegreeSequence` is a non-increasing multiset of vertex degrees
stored as strictly decreasing (degree, multiplicity) runs. Multiplicities
are plain Python ints, so synthetic sequences with millions of equal degrees
stay tiny. A :class:`PairedDegreeSequence` is a split component's sequence
with the clique-side and stable-side blocks kept apart. Its four variants
(original, complement, split inverse, inverse complement) map each side's
degrees by d -> +-d + c, with or without swapping the sides;
:func:`side_maps` is the one table of those maps, and the paired
transforms, composition and the catalog's matcher and emitter all read it.

Text format: comma-separated degrees with optional caret multiplicity
(``8^4,5^4,2^2``); a paired sequence joins its two parts with a single
semicolon and writes an empty part as ``-`` (``3,2;1^3``).
"""

from __future__ import annotations

import re
import reprlib
from collections import defaultdict
from functools import cached_property
from operator import gt, index, itemgetter
from typing import Iterable, Iterator

from . import _kernel
from ._record import Record
from .errors import FormatError, NegativeDegree, NotGraphical, TooLarge

# the characters of a sequence text, and one run of it; parse_sequence
# matches the first over the whole text, and the second per part only for a
# text its scan refused
_TEXT_RE = re.compile(r"[\d\s,^]*")
_RUN_RE = re.compile(r"^\s*(\d+)\s*(?:\^\s*(\d+)\s*)?$")

# realize refuses sequences whose graph has more vertices plus edges. The
# realized graph streams its edge list in O(n) memory (a 0.4 MB tracemalloc
# peak on 2500^5000); its adj, built on first read, peaks at 91 bytes per
# unit of n + m on 1^666666 (the worst shape measured), 53 on 3^400000 and
# 16 on 2500^5000, so the cap allows about 0.91 GB
REALIZE_MAX = 10**7


class DegreeSequence(Record):
    """Run-length encoded, non-increasing degree multiset.

    ``runs`` is a tuple of (degree, multiplicity) int pairs, as the kernel
    takes it; the constructor rebuilds other iterables of integer pairs
    (lists, bools) into one. It raises NegativeDegree on a negative degree
    and FormatError on a non-integer pair, a multiplicity below 1 or runs
    that do not strictly decrease.

    Values derived from the runs are kept on the instance once computed:
    ``n``, ``degree_sum``, and the verdict of ``unitype.is_unigraph``.
    Equality, hashing and repr read ``runs`` only."""

    _fields = ("runs",)

    # Degrees may legitimately reach or exceed the run total when the
    # sequence is one part of a paired form, so only the run-length shape is
    # enforced here; standalone realizability is is_graphical's job.
    def __init__(self, runs: tuple[tuple[int, int], ...]) -> None:
        runs = _int_runs(runs)
        prev = None
        for d, m in runs:
            if m < 1:
                raise FormatError("multiplicity must be positive")
            if d < 0:
                raise NegativeDegree(f"negative degree {d}")
            if prev is not None and d >= prev:
                raise FormatError("runs must be strictly decreasing")
            prev = d
        object.__setattr__(self, "runs", runs)

    @classmethod
    def _trusted(cls, runs, n: int) -> DegreeSequence:
        """A sequence on runs the kernel produced, which are strictly
        decreasing with non-negative degrees and positive multiplicities by
        construction, so ``__init__`` does not check them again. The
        kernel also knows their order ``n``, which seeds the cached
        property."""
        s = object.__new__(cls)
        fields = s.__dict__
        fields["runs"] = runs
        fields["n"] = n
        return s

    @cached_property
    def n(self) -> int:
        return sum(m for _, m in self.runs)

    @cached_property
    def degree_sum(self) -> int:
        return sum(d * m for d, m in self.runs)

    def degrees(self) -> Iterator[int]:
        """Yield individual degrees; avoid on huge multiplicities."""
        for d, m in self.runs:
            yield from (d,) * m

    def to_list(self) -> list[int]:
        """All n degrees as a list; raises TooLarge, before allocating, when
        n exceeds REALIZE_MAX."""
        if self.n > REALIZE_MAX:
            raise TooLarge(f"to_list supports n up to {REALIZE_MAX}, got {self.n}")
        return list(self.degrees())

    def to_text(self) -> str:
        if not self.runs:
            return "-"
        return ",".join(f"{d}^{m}" if m > 1 else str(d) for d, m in self.runs)

    def __str__(self) -> str:
        return self.to_text()


def _int_runs(runs) -> tuple[tuple[int, int], ...]:
    """``runs`` itself when it is a tuple of plain int pairs, else its
    entries as one; FormatError when an entry is not a pair of integers."""
    if type(runs) is tuple:
        for run in runs:
            if type(run) is not tuple or len(run) != 2:
                break
            if type(run[0]) is not int or type(run[1]) is not int:
                break
        else:
            return runs
    try:
        return tuple([(index(d), index(m)) for d, m in runs])
    except (TypeError, ValueError):
        raise FormatError(f"runs must be integer pairs: {reprlib.repr(runs)}") from None


class PairedDegreeSequence(Record):
    """Split component sequence with clique (K) and stable (S) blocks. The
    constructor raises FormatError unless both parts are DegreeSequences."""

    _fields = ("kpart", "spart")

    def __init__(self, kpart: DegreeSequence, spart: DegreeSequence) -> None:
        check_sequence(kpart)
        check_sequence(spart)
        object.__setattr__(self, "kpart", kpart)
        object.__setattr__(self, "spart", spart)

    @classmethod
    def _trusted(cls, kpart, spart) -> PairedDegreeSequence:
        """A head on parts the kernel produced, which are sequences by
        construction, so ``__init__`` does not check them again. The
        fields are set as ``__init__`` sets them: reading ``__dict__``
        would build a dict per head, 2.5x the head's memory."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "kpart", kpart)
        object.__setattr__(ps, "spart", spart)
        return ps

    @classmethod
    def from_runs(cls, kruns, sruns) -> PairedDegreeSequence:
        return cls(DegreeSequence(kruns), DegreeSequence(sruns))

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
        return compose_runs([(self.kpart.runs, self.spart.runs, 0)], ())

    def to_text(self) -> str:
        return f"{self.kpart.to_text()};{self.spart.to_text()}"

    def __str__(self) -> str:
        return self.to_text()


def normalize(raw) -> DegreeSequence:
    """Canonical run-length form of a raw degree list. Idempotent.

    The kernel range-checks the degrees while counting, so the list is
    scanned again only to name the fault when that check fails; a list is
    read in place, any other iterable is copied into one first. Input that
    is not an iterable of integers raises FormatError.
    """
    try:
        degrees = raw if isinstance(raw, list) else list(raw)
        runs = _kernel.normalize_runs(degrees)
    except TypeError as exc:
        raise FormatError(f"bad degree list: {exc}") from None
    except ValueError:
        lo, hi = min(degrees), max(degrees)
        if lo < 0:
            raise NegativeDegree(f"negative degree {lo}") from None
        n = len(degrees)
        raise NotGraphical(f"degree {hi} out of range for {n} vertices") from None
    return DegreeSequence._trusted(runs, len(degrees))


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


def _quote(text: str) -> str:
    """``repr`` of an input text for an error message: verbatim up to
    BRIEF_CHARS characters, otherwise its first BRIEF_CHARS // 2 characters
    and the length of the text. Only BRIEF_CHARS + 1 characters are read."""
    quoted = repr(text[: BRIEF_CHARS + 1])
    if len(quoted) <= BRIEF_CHARS:
        return quoted
    return f"{quoted[: BRIEF_CHARS // 2]}... ({len(text)} characters)"


def check_sequence(s) -> None:
    """Raise FormatError unless ``s`` is a DegreeSequence (not a raw list)."""
    if not isinstance(s, DegreeSequence):
        raise FormatError(f"expected a DegreeSequence, got {type(s).__name__}")


def check_paired(ps) -> None:
    """Raise FormatError unless ``ps`` is a PairedDegreeSequence."""
    if not isinstance(ps, PairedDegreeSequence):
        raise FormatError(
            f"expected a PairedDegreeSequence, got {type(ps).__name__}"
        )


def is_graphical(s: DegreeSequence) -> bool:
    """Erdos-Gallai realizability test, evaluated at run boundaries."""
    check_sequence(s)
    return _kernel.eg_graphical(s.runs)


_multiplicity = itemgetter(1)


def runs_order(runs) -> int:
    """Number of vertices in a run tuple."""
    return sum(map(_multiplicity, runs))


def complement_runs(runs) -> tuple[tuple[int, int], ...]:
    """Runs of the complement: d -> n-1-d over the n vertices of the runs.
    Involution."""
    n = runs_order(runs)
    return tuple((n - 1 - d, m) for d, m in reversed(runs))


# the transforms a variant of a split component applies to it: the
# complement, then the split inverse
COMPLEMENTED, INVERTED = 1, 2


def side_maps(transforms: int, p: int, q: int) -> tuple[bool, int, int, int]:
    """(swap, sign, a, b) of a split component with p clique and q stable
    vertices under the sum of COMPLEMENTED and INVERTED ``transforms``.

    The variant's clique side is the component's stable side when ``swap``
    is set, and its clique side otherwise. Its degrees map by sign*d + a,
    and the other side's by sign*d + b. The complement maps every degree to
    p + q - 1 - d, and the split inverse drops p - 1 from each clique degree
    and adds q - 1 to each stable one; both swap the sides, so the inverse
    complement, which complements first, keeps them. This table is the one
    place that algebra is written down."""
    if transforms == 0:
        return False, 1, 0, 0
    if transforms == COMPLEMENTED:
        return True, -1, p + q - 1, p + q - 1
    if transforms == INVERTED:
        return True, 1, q - 1, 1 - p
    return False, -1, 2 * p + q - 2, p


def transform_runs(transforms: int, kruns, sruns):
    """(clique runs, stable runs) of a split component's variant, by
    :func:`side_maps`; a negative sign reverses the runs, so they stay
    strictly decreasing. Each transform is an involution."""
    swap, sign, a, b = side_maps(transforms, runs_order(kruns), runs_order(sruns))
    if swap:
        kruns, sruns = sruns, kruns
    return (
        tuple([(sign * d + a, m) for d, m in kruns[::sign]]),
        tuple([(sign * d + b, m) for d, m in sruns[::sign]]),
    )


def complement_seq(s: DegreeSequence) -> DegreeSequence:
    """Degree sequence of the complement: d -> n-1-d. Involution."""
    check_sequence(s)
    return DegreeSequence(complement_runs(s.runs))


def complement_paired(ps: PairedDegreeSequence) -> PairedDegreeSequence:
    """Paired complement: degrees complement within the whole component and
    the K and S parts swap roles; see :func:`side_maps`."""
    check_paired(ps)
    return PairedDegreeSequence.from_runs(
        *transform_runs(COMPLEMENTED, ps.kpart.runs, ps.spart.runs)
    )


def inverse_paired(ps: PairedDegreeSequence) -> PairedDegreeSequence:
    """Split inverse of a paired sequence: clique edges dropped, stable side
    turned into a clique, and the parts swap roles; see :func:`side_maps`."""
    check_paired(ps)
    return PairedDegreeSequence.from_runs(
        *transform_runs(INVERTED, ps.kpart.runs, ps.spart.runs)
    )


def compose_seq(head: PairedDegreeSequence, tail: DegreeSequence) -> DegreeSequence:
    """Sequence of the composition: the head's clique side dominates the tail.

    K degrees gain |tail|, tail degrees gain p, S degrees are unchanged.
    """
    return compose_all((head,), tail)


def compose_runs(heads, tail) -> DegreeSequence:
    """Sequence of heads[0] o heads[1] o ... o tail in one pass; the inverse
    of decompose. ``heads`` is a sequence of (clique runs, stable runs,
    transforms), outermost first: the runs of a split component and the sum
    of COMPLEMENTED and INVERTED that gives the variant to compose. ``tail``
    holds the runs of the innermost part.

    The clique side of component i gains the order of everything below it
    plus the clique sizes above it, its stable side gains the clique sizes
    above it, and the tail gains every clique size. A variant's sides are
    read off the component's own runs through :func:`side_maps`, so no
    variant's runs are built: each degree d of the side that becomes the
    clique lands at sign*d + a plus those gains, and each of the other
    side's at sign*d + b plus the clique sizes above. The blocks are
    accumulated by degree and sorted once, so the result is their sorted
    union whatever the blocks hold.
    """
    sizes = [(runs_order(kruns), runs_order(sruns)) for kruns, sruns, _ in heads]
    n = below = runs_order(tail) + sum(p + q for p, q in sizes)
    above = 0
    acc: defaultdict[int, int] = defaultdict(int)
    for (kruns, sruns, transforms), (p, q) in zip(heads, sizes):
        below -= p + q
        swap, sign, a, b = side_maps(transforms, p, q)
        if swap:
            kruns, sruns, p = sruns, kruns, q
        a += below + above
        for d, m in kruns:
            acc[sign * d + a] += m
        b += above
        for d, m in sruns:
            acc[sign * d + b] += m
        above += p
    for d, m in tail:
        acc[d + above] += m
    return DegreeSequence._trusted(tuple(sorted(acc.items(), reverse=True)), n)


def compose_all(
    components: Iterable[PairedDegreeSequence], tail: DegreeSequence
) -> DegreeSequence:
    """Sequence of components[0] o components[1] o ... o tail; see
    :func:`compose_runs`."""
    check_sequence(tail)
    try:
        components = iter(components)
    except TypeError:
        what = type(components).__name__
        raise FormatError(f"expected an iterable of components, got {what}") from None
    heads = []
    for c in components:
        check_paired(c)
        heads.append((c.kpart.runs, c.spart.runs, 0))
    return compose_runs(heads, tail.runs)


def _check_text(text) -> None:
    if not isinstance(text, str):
        raise FormatError(f"expected sequence text, got {type(text).__name__}")


def parse_sequence(text: str) -> DegreeSequence:
    """Parse the ``8^4,5^4,2^2`` text form (``-`` is the empty sequence).

    One scan: the whole text is matched against the characters a sequence
    may hold, then each run is read with ``split``, ``partition`` and
    ``int``, which refuse every malformed run the class lets through. Runs
    are merged and sorted only when they are not already strictly
    decreasing. A whole-text regex of the run grammar is avoided on
    purpose: ``re`` keeps backtracking state for each of its repetitions.
    """
    _check_text(text)
    text = text.strip()
    if text in ("", "-"):
        return DegreeSequence(())
    degs: list[int] = []
    mults: list[int] = []
    try:
        if not _TEXT_RE.fullmatch(text):
            raise ValueError
        for part in text.split(","):
            d, caret, m = part.partition("^")
            degs.append(int(d))
            mults.append(int(m) if caret else 1)
    except ValueError:
        degs, mults = _runs_per_part(text)
    if 0 in mults:
        raise FormatError(f"bad multiplicity in {_quote(text)}")
    if all(map(gt, degs, degs[1:])):
        runs = tuple(zip(degs, mults))
    else:
        merged: defaultdict[int, int] = defaultdict(int)
        for d, m in zip(degs, mults):
            merged[d] += m
        runs = tuple(sorted(merged.items(), reverse=True))
    return DegreeSequence._trusted(runs, sum(mults))


def _runs_per_part(text: str) -> tuple[list[int], list[int]]:
    """Degrees and multiplicities of a text the one scan of
    :func:`parse_sequence` refused, read one part at a time. A part that is
    not a run, or a number longer than ``int`` converts, raises FormatError.
    The scan also refuses runs padded with the separators U+001C-U+001F,
    which ``re`` and ``str.strip`` take as whitespace and ``int`` does not;
    they parse here."""
    degs: list[int] = []
    mults: list[int] = []
    for part in text.split(","):
        run = _RUN_RE.match(part)
        if not run:
            raise FormatError(f"bad degree run {_quote(part)}")
        try:
            degs.append(int(run.group(1)))
            mults.append(int(run.group(2) or 1))
        except ValueError:
            raise FormatError("degree or multiplicity with too many digits") from None
    return degs, mults


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
        raise FormatError(f"invalid paired sequence {_quote(text)}: {exc}") from exc
    return ps


def realize(s: DegreeSequence):
    """Deterministic Havel-Hakimi realization, as a :class:`Graph` that
    holds only the runs, n and m.

    Vertices are numbered in non-increasing degree order, so vertex v has
    degree ``s.to_list()[v]``. Each vertex u, in id order, is joined to the
    vertices above it of largest remaining degree, as many as it still
    needs; among vertices of equal remaining degree the highest ids are
    taken first. So u's neighbours above it are at most two id intervals.

    Costs: here O(r), the checks. The graph's edge list, ``edges()`` and
    ``to_json`` sweep the intervals again on each call, O(n) interpreted
    steps with at most one bisect over the runs per vertex and O(r) state;
    the names of an interval are one slice. ``adj`` is built on its first
    read, O(n + m) ids copied by slicing tuples, and then kept.

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
    return graphcore.Graph._realized(s.runs, n, m)
