"""Canonical decomposition of a degree sequence into indecomposable
components, and the compact form that merges single-vertex runs.

The head of each strip is the top p degrees (lowered by the middle size)
paired with the bottom q degrees; the middle, lowered by p, is what remains.
Strips repeat until the remainder admits no cut, and the tie-break is the
lexicographically smallest (p, q), which always peels exactly one
indecomposable component.

A decomposition is stored run-length, as the kernel strips it: a maximal
run of m consecutive dominant (K1) or isolated (S1) single-vertex
components is one entry (K1, m) or (S1, m), and every multi-vertex head is
an entry of count 1; recognition and the parameters read the kernel's
records alone. The compact form is a :class:`Decomposition` too, with each
run turned into one block of count 1. A complete graph on a million
vertices decomposes into one entry; the per-strip component list is
expanded only when asked for, and refused above REALIZE_MAX strips.

The kernel's strip loop proves graphicality on its own prefix sums, so
:func:`decompose` runs Erdos-Gallai once and raises NotGraphical on a
sequence no graph has. A sequence is indecomposable exactly when its
decomposition has no runs, and the (p, q) cut of its first strip is the
orders of the first run's component.
"""

from __future__ import annotations

import reprlib
from functools import cached_property
from itertools import chain
from operator import index

from . import _kernel
from ._record import Record
from .degseq import (
    REALIZE_MAX,
    DegreeSequence,
    PairedDegreeSequence,
    brief,
    check_paired,
    check_sequence,
)
from .degseq import compose_all  # noqa: F401  (the inverse of decompose)
from .errors import FormatError, NotGraphical, TooLarge

K1 = PairedDegreeSequence(DegreeSequence(((0, 1),)), DegreeSequence(()))
S1 = PairedDegreeSequence(DegreeSequence(()), DegreeSequence(((0, 1),)))


def tail_joins_clique(prev: str | None) -> bool:
    """Side a single-vertex tail joins, given the kind of the kernel record
    before it, or None.

    The tail has no partition of its own: it joins the clique side exactly
    when nothing or a K1 precedes it, and the stable side otherwise.
    """
    return prev is None or prev == "k1"


def per_strip(runs) -> list:
    """One entry per strip of (x, count) runs; raises TooLarge, before
    expanding, when the strips number more than REALIZE_MAX."""
    runs = tuple(runs)
    strips = sum(m for _, m in runs)
    if strips > REALIZE_MAX:
        raise TooLarge(f"per-strip lists allow {REALIZE_MAX} strips, got {strips}")
    out: list = []
    for x, m in runs:
        out.extend([x] * m)
    return out


def side_runs(side: tuple) -> tuple:
    """The (degree, multiplicity) pairs of a head side of the kernel's
    records, a flat tuple (d1, m1, d2, m2, ...)."""
    if len(side) == 2:  # most sides are one run, which is its own pair
        return (side,)
    pairs = iter(side)
    return tuple(zip(pairs, pairs))


class Decomposition(Record):
    """Components as (component, count) runs, outermost (G_k) first, and
    the indecomposable tail (G_0) as a plain sequence.

    A run of m single vertices is one entry of count m; the compact form
    (:func:`compact`) has one block of count 1 per run, and an empty tail
    when the single-vertex G_0 was absorbed. Built by :func:`decompose`, it
    keeps the kernel's records, and ``runs`` and ``tail`` are built from
    them on first read, the heads' flat sides paired again, and then kept,
    as ``DegreeSequence.n`` is.

    The constructor raises FormatError unless ``tail`` is a sequence and
    ``runs`` holds (component, count) pairs of paired sequences and
    positive counts, where a count above 1 belongs to a single vertex and
    a single vertex is K1 or S1."""

    _fields = ("runs", "tail")

    def __init__(
        self, runs: tuple[tuple[PairedDegreeSequence, int], ...], tail: DegreeSequence
    ) -> None:
        check_sequence(tail)
        try:
            runs = tuple([(c, index(m)) for c, m in runs])
        except (TypeError, ValueError):
            what = reprlib.repr(runs)
            raise FormatError(f"not (component, count) runs: {what}") from None
        for c, m in runs:
            check_paired(c)
            if m < 1 or c.order < 1:
                raise FormatError(f"empty component or count in {brief(c)}^{m}")
            if c.order == 1 and c != K1 and c != S1:
                raise FormatError(f"a single vertex is K1 or S1, not {brief(c)}")
            if m > 1 and c.order > 1:
                raise FormatError(f"a run of {m} repeats a component of {c.order}")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "tail", tail)

    @cached_property
    def _records(self) -> list:
        """The kernel's records, tail last, a head's sides flat; read off
        the fields only when the public constructor made this. The tail
        record's fourth field, its split partition, is then None, which
        here means "not read", not "not split": only the classifier reads
        it, and only on the records of :func:`decompose`."""
        records: list = []
        for c, m in self.runs:
            if c.order == 1:
                records.append(("k1" if c.p else "s1", m))
            else:
                kside = tuple(chain.from_iterable(c.kpart.runs))
                sside = tuple(chain.from_iterable(c.spart.runs))
                records += [("head", kside, sside, c.p, c.q)] * m
        records.append(("tail", self.tail.runs, self.tail.n, None))
        return records

    @cached_property
    def runs(self) -> tuple[tuple[PairedDegreeSequence, int], ...]:
        # the kernel's runs are well formed and come with their orders
        seq, paired = DegreeSequence._trusted, PairedDegreeSequence._trusted
        single = {"k1": K1, "s1": S1}
        return tuple(
            (paired(seq(side_runs(r[1]), r[3]), seq(side_runs(r[2]), r[4])), 1)
            if r[0] == "head"
            else (single[r[0]], r[1])
            for r in self._records[:-1]
        )

    @cached_property
    def tail(self) -> DegreeSequence:
        rec = self._records[-1]
        return DegreeSequence._trusted(rec[1], rec[2])

    @cached_property
    def components(self) -> tuple[PairedDegreeSequence, ...]:
        """One entry per strip; a run of m single vertices expands to m.
        Raises TooLarge above REALIZE_MAX strips."""
        return tuple(per_strip(self.runs))

    @cached_property
    def _sides(self) -> tuple[int, int]:
        """Clique and stable vertices of the components, tail excluded."""
        clique = stable = 0
        for rec in self._records[:-1]:  # the tail's record is last
            if rec[0] == "head":
                clique, stable = clique + rec[3], stable + rec[4]
            elif rec[0] == "k1":
                clique += rec[1]
            else:
                stable += rec[1]
        return clique, stable

    @cached_property
    def n(self) -> int:
        return sum(self._sides) + self._records[-1][2]


def decompose(s: DegreeSequence) -> Decomposition:
    """Full canonical decomposition of a graphical sequence, kept as the
    kernel's records until ``runs`` or ``tail`` is read."""
    check_sequence(s)
    records = _kernel.decompose_runs(s.runs)
    if records is None:
        raise NotGraphical(f"{brief(s)} is not graphical")
    return _on_records(records)


def _on_records(records: list) -> Decomposition:
    d = object.__new__(Decomposition)
    object.__setattr__(d, "_records", records)
    return d


def _block(rec) -> tuple:
    """A record of the compact form: a run of m > 1 K1 or S1 as the head
    of one complete or edgeless block, any other record as it is."""
    kind, m = rec[0], rec[1]
    if kind == "head" or m == 1:
        return rec
    if kind == "k1":
        return ("head", (m - 1, m), (), m, 0)
    return ("head", (), (0, m), 0, m)


def compact(d: Decomposition) -> Decomposition:
    """The compact form: each run as one complete ((m-1)^m; -) or edgeless
    (-; 0^m) block, or its multi-vertex head, of count 1.

    The runs of a decomposition are already maximal. A single-vertex tail is
    absorbed as one more single vertex on the side :func:`tail_joins_clique`
    gives, so it extends a run of its own type or, after a multi-vertex
    component, becomes a one-vertex edgeless block; the tail is then empty.
    """
    if not isinstance(d, Decomposition):
        raise FormatError(f"expected a Decomposition, got {type(d).__name__}")
    *records, tail = d._records
    if tail[2] == 1:
        prev = records[-1][0] if records else None
        single = "k1" if tail_joins_clique(prev) else "s1"
        if single == prev:
            records[-1] = (single, records[-1][1] + 1)
        else:
            records.append((single, 1))
        tail = ("tail", (), 0, None)
    return _on_records([_block(rec) for rec in records] + [tail])
