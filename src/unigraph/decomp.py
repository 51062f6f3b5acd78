"""Canonical decomposition of a degree sequence into indecomposable
components, plus the compact form that merges single-vertex runs.

The head of each strip is the top p degrees (lowered by the middle size)
paired with the bottom q degrees; the middle, lowered by p, is what remains.
Strips repeat until the remainder admits no cut, and the tie-break is the
lexicographically smallest (p, q), which always peels exactly one
indecomposable component.

A decomposition is stored run-length, as the kernel strips it: a maximal
run of m consecutive dominant (K1) or isolated (S1) single-vertex
components is one entry (K1, m) or (S1, m), and every multi-vertex head is
an entry of count 1. Every consumer works per run, so a complete graph on
a million vertices decomposes into one entry; the per-strip component list
is expanded only when asked for.

The kernel's strip loop proves graphicality on its own prefix sums, so
:func:`decompose` and :func:`find_split_point` (the cut of the first strip)
run Erdos-Gallai once and raise NotGraphical on a sequence no graph has.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _kernel
from .degseq import DegreeSequence, PairedDegreeSequence, brief, check_sequence
from .degseq import compose_all  # noqa: F401  (the inverse of decompose)
from .errors import FormatError, NotGraphical

K1 = PairedDegreeSequence(DegreeSequence(((0, 1),)), DegreeSequence(()))
S1 = PairedDegreeSequence(DegreeSequence(()), DegreeSequence(((0, 1),)))


def tail_joins_clique(prev: PairedDegreeSequence | None) -> bool:
    """Side a single-vertex tail joins, given the component before it.

    The tail has no partition of its own: it joins the clique side exactly
    when nothing or a K1 precedes it, and the stable side otherwise.
    """
    return prev is None or prev == K1


@dataclass(frozen=True)
class Decomposition:
    """Components as (component, count) runs, outermost (G_k) first, and
    the indecomposable tail (G_0) as a plain sequence."""

    runs: tuple[tuple[PairedDegreeSequence, int], ...]
    tail: DegreeSequence

    @cached_property
    def components(self) -> tuple[PairedDegreeSequence, ...]:
        """One entry per strip; a run of m single vertices expands to m."""
        out: list[PairedDegreeSequence] = []
        for c, m in self.runs:
            out.extend([c] * m)
        return tuple(out)

    @property
    def n(self) -> int:
        return sum(c.order * m for c, m in self.runs) + self.tail.n

    def to_report(self) -> dict:
        return {
            "components": [
                {"k": c.kpart.to_text(), "s": c.spart.to_text()}
                for c in self.components
            ],
            "tail": None if self.tail is None else self.tail.to_text(),
        }


@dataclass(frozen=True)
class CompactDecomposition:
    """Canonical decomposition with maximal single-vertex runs merged into
    complete ((m-1)^m; -) or edgeless (-; 0^m) blocks.

    ``tail`` is None when the single-vertex G_0 was absorbed into a block;
    otherwise it is the multi-vertex tail sequence.
    """

    components: tuple[PairedDegreeSequence, ...]
    tail: DegreeSequence | None

    to_report = Decomposition.to_report


def _strip(s: DegreeSequence) -> list:
    """The kernel's decomposition records of a graphical sequence."""
    check_sequence(s)
    records = _kernel.decompose_runs(*s.values_mults())
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
        return sum(rec[2]), sum(rec[4])
    return None


def decompose(s: DegreeSequence) -> Decomposition:
    """Full canonical decomposition of a graphical sequence."""
    runs: list[tuple[PairedDegreeSequence, int]] = []
    tail = DegreeSequence(())
    for rec in _strip(s):
        kind = rec[0]
        if kind == "k1":
            runs.append((K1, rec[1]))
        elif kind == "s1":
            runs.append((S1, rec[1]))
        elif kind == "head":
            _, kv, km, sv, sm = rec
            head = PairedDegreeSequence(
                DegreeSequence(tuple(zip(kv, km))),
                DegreeSequence(tuple(zip(sv, sm))),
            )
            runs.append((head, 1))
        else:
            tail = DegreeSequence(tuple(zip(rec[1], rec[2])))
    return Decomposition(tuple(runs), tail)


def _block(c: PairedDegreeSequence, m: int) -> PairedDegreeSequence:
    """A run of m copies of c as one compact entry."""
    if c.order > 1:
        return c
    if c == K1:
        return PairedDegreeSequence(DegreeSequence(((m - 1, m),)), DegreeSequence(()))
    return PairedDegreeSequence(DegreeSequence(()), DegreeSequence(((0, m),)))


def compact(d: Decomposition) -> CompactDecomposition:
    """Merge maximal runs of same-type single-vertex components.

    The runs of a decomposition are already maximal. A single-vertex tail is
    absorbed as one more single vertex on the side :func:`tail_joins_clique`
    gives, so it extends a run of its own type or, after a multi-vertex
    component, becomes a one-vertex edgeless block.
    """
    if not isinstance(d, Decomposition):
        raise FormatError(f"expected a Decomposition, got {type(d).__name__}")
    runs = list(d.runs)
    tail: DegreeSequence | None = d.tail
    if d.tail.n == 1:
        prev = runs[-1][0] if runs else None
        single = K1 if tail_joins_clique(prev) else S1
        if single == prev:
            runs[-1] = (single, runs[-1][1] + 1)
        else:
            runs.append((single, 1))
        tail = None
    return CompactDecomposition(tuple(_block(c, m) for c, m in runs), tail)
