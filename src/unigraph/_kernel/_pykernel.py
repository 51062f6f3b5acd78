"""Run-aware degree-sequence kernel.

Every function works on a run-length encoded degree sequence given as two
parallel lists: strictly decreasing run values and positive multiplicities.
Costs scale with the number of runs and emitted components, not with the
vertex count, so sequences with huge multiplicities stay cheap.

The decomposition routine searches for "cut points" (p, q): indices
splitting the sorted sequence into a top block of p degrees, a bottom block
of q degrees, and a middle, such that

    sum(top p) == p * (N - q - 1) + sum(bottom q).

Cut points of one sequence form a chain (both coordinates non-decreasing
along it), and the lexicographically smallest cut strips exactly the first
component of the canonical decomposition, so the first record of
``decompose_runs`` names it. For a multi-vertex first component both p and
q land on run boundaries, while p <= 1 or q == 0 cuts are exactly the
isolated/dominant single-vertex strips; those two facts keep the search
run-granular.

Both run-level loops stop at the corrected Durfee index m, the largest i
with d_i >= i - 1, so their cost follows the runs up to m, not all r runs:

* Erdos-Gallai needs checking only at run ends up to the first one at or
  past m (Hammer-Ibaraki-Simeone 1978; Tripathi-Vijay 2003 for run ends):
  from a run end k with d_{k+1} < k on, every later degree is below k, so
  the slack of the inequality only grows.
* A head with p clique vertices needs d_p >= p - 1, since a clique vertex
  is adjacent to the other p - 1 clique vertices, so the cut search stops
  at the first p past m.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from operator import index, mul


def normalize_runs(degrees):
    """Count a raw degree list into descending (values, mults) runs.

    Only the r distinct degrees are converted, sorted and range-checked, so
    the per-degree work is the C-level count. Values come back as plain ints
    (``True`` counts as 1); an entry that is not an integer raises TypeError.
    """
    n = len(degrees)
    counts = Counter(degrees)
    vals = sorted(map(index, counts), reverse=True)
    if vals and (vals[0] >= n or vals[-1] < 0):
        raise ValueError("degree out of range for %d vertices" % n)
    return vals, [counts[d] for d in vals]


def eg_graphical(vals, mults):
    """Erdos-Gallai test evaluated at run boundaries only."""
    ccnt, csum = _prefix(vals, mults)
    return _eg_holds(vals, [-v for v in vals], ccnt, csum) is not None


def _eg_holds(vals, neg, ccnt, csum):
    """Erdos-Gallai on prefix sums the caller has built.

    By Tripathi-Vijay the inequalities need only be checked at indices k
    with d_k > d_{k+1}, i.e. at run ends. ``neg`` is the ascending negated
    values, which makes bisect applicable.

    The check stops after the first run end k with d_{k+1} < k, which is
    the first run end at or past the corrected Durfee index
    (Hammer-Ibaraki-Simeone 1978): every later degree is below k, so from
    there on the slack k(k-1) + S_n - 2 S_k rises by 2k - 2d_{k+1} > 0 per
    vertex.

    Returns None when an inequality fails, else ``below``: below[t] is the
    first run after t with value < ccnt[t+1], for every t the loop checked.
    The first cut search of ``decompose_runs`` reads its bounds from it.
    """
    r = len(vals)
    n = ccnt[r]
    if csum[r] % 2 or (r and vals[0] >= n):
        return None
    below = []
    for t in range(r):
        k = ccnt[t + 1]
        last = t + 1 == r or vals[t + 1] < k
        # suffix i > k: runs with value >= k contribute k each, smaller
        # values contribute themselves
        s = t + 1 if last else bisect_right(neg, -k, t + 1, r)
        rhs = k * (k - 1) + k * (ccnt[s] - ccnt[t + 1]) + (csum[r] - csum[s])
        if csum[t + 1] > rhs:
            return None
        below.append(s)
        if last:
            break
    return below


def _prefix(vals, mults):
    """Vertex counts and degree sums of the first t runs, t = 0..r."""
    return (
        list(accumulate(mults, initial=0)),
        list(accumulate(map(mul, vals, mults), initial=0)),
    )


def _cut_search(neg, ccnt, csum, lo, hi, shift, n, below):
    """Lex-min cut with p >= 2, q >= 1 over run boundaries of [lo, hi).

    Returns (i, j, p, q) where the top i and bottom j window runs form the
    cut, or None. Assumes the isolated/dominant fast paths already failed,
    which confines any remaining cut to run boundaries.

    The search stops at the first p whose p-th effective degree is below
    p - 1, i.e. at the first p past the window's corrected Durfee index
    (the index that bounds Erdos-Gallai, Hammer-Ibaraki-Simeone 1978). A
    cut makes its top p vertices a clique joined to the middle, so each has
    effective degree >= n - q - 1 >= p - 1, and a later i only raises p and
    lowers the p-th degree. While the window starts at run 0 (so shift ==
    0), the first bottom run below p is Erdos-Gallai's ``below[i - 1]``,
    which covers every i up to that stop and never passes hi: the only run
    that can lie past hi then is the stripped degree-0 run.
    """
    base_cnt = ccnt[lo]
    nruns = hi - lo

    def bot_cnt(j):
        return ccnt[hi] - ccnt[hi - j]

    def h(j, p):
        # p*q - (effective sum of the bottom q degrees)
        cnt = ccnt[hi] - ccnt[hi - j]
        return p * cnt - (csum[hi] - csum[hi - j] - shift * cnt)

    for i in range(1, nruns - 1):
        p = ccnt[lo + i] - base_cnt
        if -neg[lo + i - 1] - shift < p - 1:
            break
        if p < 2:
            continue
        jmax = nruns - i - 1
        top = csum[lo + i] - csum[lo] - shift * p
        gamma = p * (n - 1) - top  # > 0 once the dominant fast path failed
        # h rises strictly over bottom runs with value < p, is flat at
        # value == p, then falls strictly; zeros of the cut equation are
        # h == gamma crossings.
        if lo:
            first_lt = bisect_right(neg, -(p + shift), lo + i, hi)
        else:
            first_lt = below[i - 1]
        jr = min(hi - first_lt, jmax)
        if jr <= 0 or h(jr, p) < gamma:
            continue
        a, b = 1, jr
        while a < b:
            mid = (a + b) // 2
            if h(mid, p) >= gamma:
                b = mid
            else:
                a = mid + 1
        if h(a, p) == gamma:
            return i, a, p, bot_cnt(a)
        # the rising side jumped past gamma; the falling side may cross back
        first_le = bisect_left(neg, -(p + shift), lo + i, hi)
        jle = min(hi - first_le, jmax)
        if jle >= jmax:
            continue
        a, b = jle + 1, jmax
        while a < b:
            mid = (a + b) // 2
            if h(mid, p) <= gamma:
                b = mid
            else:
                a = mid + 1
        if h(a, p) == gamma:
            return i, a, p, bot_cnt(a)
    return None


def decompose_runs(vals, mults):
    """Strip the canonical decomposition off a run sequence.

    Returns None when the sequence is not graphical (Erdos-Gallai on the
    prefix sums the strip loop uses), else a list of records, in head-first
    order:
      ('k1', count)  count consecutive dominant-vertex components (0; -)
      ('s1', count)  count consecutive isolated-vertex components (-; 0)
      ('head', kruns, sruns, p, q)  one multi-vertex split head: its clique
          and stable runs as tuples of (degree, multiplicity) pairs, and
          their orders p and q, the cut the search found
      ('tail', truns, n)  the final indecomposable remainder (last): its
          runs as such a tuple, and its order

    Dominant and isolated vertices strip one at a time under the
    lexicographic rule, and a maximal run of them always strips as that many
    consecutive single-vertex components, which keeps the loop run-granular.
    """
    records = []
    r = len(vals)
    ccnt, csum = _prefix(vals, mults)
    neg = [-v for v in vals]
    below = _eg_holds(vals, neg, ccnt, csum)
    if below is None:
        return None
    n = ccnt[r]
    lo, hi = 0, r
    shift = 0
    while True:
        if n == 0:
            records.append(("tail", (), 0))
            break
        if n == 1:
            records.append(("tail", ((vals[lo] - shift, 1),), 1))
            break
        if vals[hi - 1] - shift == 0:
            m = mults[hi - 1]
            if m == n:
                records.append(("s1", n - 1))
                records.append(("tail", ((0, 1),), 1))
                break
            records.append(("s1", m))
            hi -= 1
            n -= m
            continue
        if vals[lo] - shift == n - 1:
            m = mults[lo]
            if m == n:
                records.append(("k1", n - 1))
                records.append(("tail", ((0, 1),), 1))
                break
            records.append(("k1", m))
            lo += 1
            shift += m
            n -= m
            continue
        found = _cut_search(neg, ccnt, csum, lo, hi, shift, n, below)
        if found is None:
            # drop the O(r) prefix lists first: the garbage collections that
            # the tail's new tuples trigger would walk them while they live
            del ccnt, csum, neg, below
            tvals = vals[lo:hi]
            if shift:
                tvals = [v - shift for v in tvals]
            records.append(("tail", tuple(zip(tvals, mults[lo:hi])), n))
            break
        i, j, p, q = found
        mid = n - p - q
        down = shift + mid
        kruns = tuple([(vals[t] - down, mults[t]) for t in range(lo, lo + i)])
        sruns = tuple([(vals[t] - shift, mults[t]) for t in range(hi - j, hi)])
        records.append(("head", kruns, sruns, p, q))
        lo += i
        hi -= j
        shift += p
        n = mid
    return records
