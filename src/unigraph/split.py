"""Split-sequence recognition via the Hammer-Simeone equality.

With degrees sorted non-increasing and m the largest index with
d_m >= m - 1, the sequence is split iff

    sum_{i<=m} d_i == m(m-1) + sum_{i>m} min(d_i, m),

in which case the top m degrees form the clique side. Because m is maximal,
every later degree is below m, so the min() collapses to a plain suffix sum.
The partition has |K| equal to the clique number; it is the unique balanced
partition when d_m >= m and the K-max partition when d_m == m - 1.

:func:`determine_split` is the package's one Hammer-Simeone test. It
partitions the whole sequence, which is not the decomposition's sides
(``0^2`` is split as K1 + S1 but decomposes into two isolated vertices),
so recognition does not use it: the kernel types the tail off its own
Erdos-Gallai pass.
"""

from __future__ import annotations

import enum
from itertools import starmap
from operator import mul

from ._record import Record
from .degseq import DegreeSequence, PairedDegreeSequence, brief, is_graphical
from .errors import NotGraphical


class SplitKind(enum.Enum):
    BALANCED = "balanced"
    KMAX = "k-max"
    NOT_SPLIT = "not-split"


class SplitClass(Record):
    _fields = ("kind", "paired")

    def __init__(self, kind: SplitKind, paired: PairedDegreeSequence | None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "paired", paired)


def _durfee(runs) -> tuple[int, int]:
    """(m, d_1 + ... + d_m) for the Durfee index m, the largest i with
    d_i >= i - 1 (1-indexed; 0 for no degrees); reads only the runs up to
    m."""
    m = top = pos = 0
    for d, mult in runs:
        if d < pos:  # the run's first vertex has index pos + 1
            break
        m = min(pos + mult, d + 1)
        top += d * (m - pos)
        pos += mult
    return m, top


def _take_top(runs, count: int):
    """Split the runs after the first `count` degrees."""
    left = count
    for i, (d, mult) in enumerate(runs):
        if left < mult:
            if not left:
                return runs[:i], runs[i:]
            return (*runs[:i], (d, left)), ((d, mult - left), *runs[i + 1 :])
        left -= mult
    return runs, ()


def determine_split(s: DegreeSequence) -> SplitClass:
    """Classify a graphical sequence as balanced split, unbalanced split
    (the K-max partition is returned), or not split.

    With top = d_1 + ... + d_m and every later degree below m, the equality
    reads 2 top == m(m-1) + (degree total), so the verdict costs the runs
    up to m and one C-level sum; the partition is built only for a split
    sequence."""
    if not is_graphical(s):
        raise NotGraphical(f"{brief(s)} is not graphical")
    runs = s.runs
    m, top = _durfee(runs)
    if not runs or 2 * top != m * (m - 1) + sum(starmap(mul, runs)):
        return SplitClass(SplitKind.NOT_SPLIT, None)
    kruns, sruns = _take_top(runs, m)
    kind = SplitKind.BALANCED if kruns[-1][0] >= m else SplitKind.KMAX
    return SplitClass(kind, PairedDegreeSequence.from_runs(kruns, sruns))
