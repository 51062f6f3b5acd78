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
an entry of count 1. The compact form is a :class:`Decomposition` too, with
each run turned into one block of count 1. Every consumer works per run, so
a complete graph on a million vertices decomposes into one entry; the
per-strip component list is expanded only when asked for, and refused above
REALIZE_MAX strips.

The kernel's strip loop proves graphicality on its own prefix sums, so
:func:`decompose` and :func:`find_split_point` (the cut of the first strip)
run Erdos-Gallai once and raise NotGraphical on a sequence no graph has.
"""

from __future__ import annotations

from functools import cached_property

from . import _kernel
from ._record import Record
from .degseq import (
    EMPTY,
    REALIZE_MAX,
    DegreeSequence,
    PairedDegreeSequence,
    brief,
    check_sequence,
)
from .degseq import compose_all  # noqa: F401  (the inverse of decompose)
from .errors import FormatError, NotGraphical, TooLarge

K1 = PairedDegreeSequence(DegreeSequence(((0, 1),)), DegreeSequence(()))
S1 = PairedDegreeSequence(DegreeSequence(()), DegreeSequence(((0, 1),)))


def tail_joins_clique(prev: PairedDegreeSequence | None) -> bool:
    """Side a single-vertex tail joins, given the component before it.

    The tail has no partition of its own: it joins the clique side exactly
    when nothing or a K1 precedes it, and the stable side otherwise.
    """
    return prev is None or prev == K1


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


class Decomposition(Record):
    """Components as (component, count) runs, outermost (G_k) first, and
    the indecomposable tail (G_0) as a plain sequence.

    The canonical decomposition keeps a run of m single vertices as one
    entry of count m. The compact form (:func:`compact`) turns each run
    into one block of count 1, and its tail is EMPTY when the single-vertex
    G_0 was absorbed into a block."""

    _fields = ("runs", "tail")

    def __init__(
        self, runs: tuple[tuple[PairedDegreeSequence, int], ...], tail: DegreeSequence
    ) -> None:
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "tail", tail)

    @cached_property
    def components(self) -> tuple[PairedDegreeSequence, ...]:
        """One entry per strip; a run of m single vertices expands to m.
        Raises TooLarge above REALIZE_MAX strips."""
        return tuple(per_strip(self.runs))

    @cached_property
    def n(self) -> int:
        return sum(c.order * m for c, m in self.runs) + self.tail.n


def _strip(s: DegreeSequence) -> list:
    """The kernel's decomposition records of a graphical sequence."""
    check_sequence(s)
    records = _kernel.decompose_runs(s.runs)
    if records is None:
        raise NotGraphical(f"{brief(s)} is not graphical")
    return records


def find_split_point(s: DegreeSequence) -> tuple[int, int] | None:
    """Lexicographically smallest (p, q) cut of a graphical sequence, or
    None if it is indecomposable; the cut of its first strip."""
    rec = _strip(s)[0]
    if rec[0] == "k1":
        return 1, 0
    if rec[0] == "s1":
        return 0, 1
    if rec[0] == "head":
        return rec[3], rec[4]
    return None


def decompose(s: DegreeSequence) -> Decomposition:
    """Full canonical decomposition of a graphical sequence. The kernel's
    runs are well formed by construction and come with their orders, so
    they are neither checked nor summed again, and the heads built on them
    skip the paired constructor's type check."""
    trusted, paired = DegreeSequence._trusted, PairedDegreeSequence._trusted
    runs: list[tuple[PairedDegreeSequence, int]] = []
    tail = EMPTY
    for rec in _strip(s):
        kind = rec[0]
        if kind == "k1":
            runs.append((K1, rec[1]))
        elif kind == "s1":
            runs.append((S1, rec[1]))
        elif kind == "head":
            _, kruns, sruns, p, q = rec
            head = paired(trusted(kruns, p), trusted(sruns, q))
            runs.append((head, 1))
        else:
            tail = trusted(rec[1], rec[2])
    return Decomposition(tuple(runs), tail)


def _block(c: PairedDegreeSequence, m: int) -> PairedDegreeSequence:
    """A run of m copies of c as one compact entry."""
    if c.order > 1:
        return c
    if c == K1:
        return PairedDegreeSequence(DegreeSequence(((m - 1, m),)), DegreeSequence(()))
    return PairedDegreeSequence(DegreeSequence(()), DegreeSequence(((0, m),)))


def compact(d: Decomposition) -> Decomposition:
    """The compact form: each run as one complete ((m-1)^m; -) or edgeless
    (-; 0^m) block, or its multi-vertex head, of count 1.

    The runs of a decomposition are already maximal. A single-vertex tail is
    absorbed as one more single vertex on the side :func:`tail_joins_clique`
    gives, so it extends a run of its own type or, after a multi-vertex
    component, becomes a one-vertex edgeless block; the tail is then EMPTY.
    """
    if not isinstance(d, Decomposition):
        raise FormatError(f"expected a Decomposition, got {type(d).__name__}")
    runs = list(d.runs)
    tail = d.tail
    if tail.n == 1:
        prev = runs[-1][0] if runs else None
        single = K1 if tail_joins_clique(prev) else S1
        if single == prev:
            runs[-1] = (single, runs[-1][1] + 1)
        else:
            runs.append((single, 1))
        tail = EMPTY
    return Decomposition(tuple((_block(c, m), 1) for c, m in runs), tail)
