"""Split-sequence recognition via the Hammer-Simeone equality.

With degrees sorted non-increasing and m the largest index with
d_m >= m - 1, the sequence is split iff

    sum_{i<=m} d_i == m(m-1) + sum_{i>m} min(d_i, m),

in which case the top m degrees form the clique side. Because m is maximal,
every later degree is below m, so the min() collapses to a plain suffix sum.
The partition has |K| equal to the clique number; it is the unique balanced
partition when d_m >= m and the K-max partition when d_m == m - 1.

:func:`split_runs` is the test alone on the runs of a proved-graphical
sequence; :func:`determine_split` checks graphicality first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .degseq import DegreeSequence, PairedDegreeSequence, brief, is_graphical
from .errors import NotGraphical


class SplitKind(enum.Enum):
    BALANCED = "balanced"
    KMAX = "k-max"
    SMAX = "s-max"
    NOT_SPLIT = "not-split"


@dataclass(frozen=True)
class SplitClass:
    kind: SplitKind
    paired: PairedDegreeSequence | None


def durfee_index(s: DegreeSequence) -> int:
    """Largest i with d_i >= i - 1 (1-indexed); 0 for the empty sequence."""
    return _durfee(s.runs)


def _durfee(runs) -> int:
    m = 0
    pos = 0
    for d, mult in runs:
        if d >= pos:  # first vertex of this run has index pos+1
            m = min(pos + mult, d + 1)
        pos += mult
        if d < pos:
            break
    return m


def _take_top(runs, count: int):
    """Split the runs after the first `count` degrees."""
    top: list[tuple[int, int]] = []
    rest: list[tuple[int, int]] = []
    left = count
    for d, mult in runs:
        if left >= mult:
            top.append((d, mult))
            left -= mult
        elif left > 0:
            top.append((d, left))
            rest.append((d, mult - left))
            left = 0
        else:
            rest.append((d, mult))
    return tuple(top), tuple(rest)


def split_runs(runs):
    """Hammer-Simeone on the runs of a graphical sequence: (kind, clique
    runs, stable runs) of its balanced or K-max partition, or None when it
    is not split. The caller has proved the runs graphical."""
    if not runs:
        return None
    m = _durfee(runs)
    kruns, sruns = _take_top(runs, m)
    if sum(d * c for d, c in kruns) != m * (m - 1) + sum(d * c for d, c in sruns):
        return None
    kind = SplitKind.BALANCED if kruns[-1][0] >= m else SplitKind.KMAX
    return kind, kruns, sruns


def determine_split(s: DegreeSequence) -> SplitClass:
    """Classify a graphical sequence as balanced split, unbalanced split
    (the K-max partition is returned), or not split."""
    if not is_graphical(s):
        raise NotGraphical(f"{brief(s)} is not graphical")
    found = split_runs(s.runs)
    if found is None:
        return SplitClass(SplitKind.NOT_SPLIT, None)
    kind, kruns, sruns = found
    return SplitClass(kind, PairedDegreeSequence.from_runs(kruns, sruns))


def smax_partition(sc: SplitClass) -> SplitClass:
    """Shift the swing vertex of a K-max partition to the stable side."""
    if sc.kind is not SplitKind.KMAX or sc.paired is None:
        raise ValueError("S-max shift applies to K-max classes only")
    ps = sc.paired
    kruns, swing = _take_top(ps.kpart.runs, ps.p - 1)
    merged = list(ps.spart.runs)
    d = swing[0][0]
    if merged and merged[0][0] == d:
        merged[0] = (d, merged[0][1] + 1)
    else:
        merged.insert(0, (d, 1))
    return SplitClass(SplitKind.SMAX, PairedDegreeSequence.from_runs(kruns, merged))
