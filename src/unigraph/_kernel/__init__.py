"""The run-aware degree-sequence kernel, in pure Python.

The rest of the package calls its three functions through this module
(``_kernel.eg_graphical(...)``), so a wrapper set on one of its attributes
sees every call. ``decompose_runs`` returns None for a sequence that is not
graphical. ``reference`` holds the naive per-vertex versions the tests
compare against.

Every function takes a degree sequence as ``DegreeSequence.runs`` holds it:
a tuple of (degree, multiplicity) pairs, degrees strictly decreasing.
Costs scale with the number of runs and emitted components, not with the
vertex count, so sequences with huge multiplicities stay cheap.

A component of the canonical decomposition strips off a top block of p
degrees and a bottom block of q degrees, with

    sum(top p) == p * (N - q - 1) + sum(bottom q):

the top block is a clique joined to everything but the bottom block, which
is a stable set. The clique cuts of the decomposition are read off the
Erdos-Gallai pass itself (Barrus, "Hereditary unigraphs and Erdos-Gallai
equalities", Discrete Math. 2013). The running clique count after each
dominant-vertex strip and each multi-vertex head is an index k at which
the Erdos-Gallai inequality holds with equality, and each such index is
one of these counts, except possibly the largest, which then lies inside a
split tail. At an equality index k the top k vertices form a clique and
each later vertex of degree below k sends all its edges into it, so the
stable block of the head ending at k is the vertices of degree below k
that are left.

The same equalities type the tail. If the first equality run end past the
stripped clique runs lies in the tail's window, the tail stayed whole only
because no vertex is left between the runs before that run end and the
stable runs after it (with no stable run left, the clique vertices would
be dominant and would have stripped). So it is split, with those runs as
its sides. Otherwise it is not split, for a split sequence has an
equality at its Durfee index
(Hammer-Simeone 1981), and an equality of the tail is one of the whole
sequence (Barrus 2013). The tests check this against the Hammer-Simeone
test on every graphical sequence of up to 10 vertices. So recognition
types the tail without a second split test.

Erdos-Gallai needs checking only at run ends (Tripathi-Vijay 2003), and
only up to the first one at or past the corrected Durfee index m, the
largest i with d_i >= i - 1 (Hammer-Ibaraki-Simeone 1978): from a run end
k with d_{k+1} < k on, every later degree is below k, so the slack of the
inequality only grows. The run loop therefore follows the runs up to m,
not all r runs, and each head then costs one bisection.
"""

from bisect import bisect_right
from collections import Counter
from itertools import accumulate, starmap
from operator import index, itemgetter, mul

IMPL = "python"  # exported as unigraph.KERNEL_IMPL


def normalize_runs(degrees):
    """Count a raw degree list into its run tuple, degrees descending.

    Only the r distinct degrees are converted, sorted and range-checked, so
    the per-degree work is the C-level count. Degrees come back as plain ints
    (``True`` counts as 1); an entry that is not an integer raises TypeError.
    """
    n = len(degrees)
    counts = Counter(degrees)
    vals = sorted(map(index, counts), reverse=True)
    if vals and (vals[0] >= n or vals[-1] < 0):
        raise ValueError("degree out of range for %d vertices" % n)
    return tuple(zip(vals, map(counts.__getitem__, vals)))


def eg_graphical(runs):
    """Erdos-Gallai test evaluated at run boundaries only."""
    return _eg_holds(*_prefix(runs)) is not None


def _eg_holds(neg, ccnt, csum):
    """Erdos-Gallai on the prefix lists of :func:`_prefix`.

    By Tripathi-Vijay the inequalities need only be checked at indices k
    with d_k > d_{k+1}, i.e. at run ends. ``neg`` is the ascending negated
    degrees, which makes bisect applicable.

    The check stops after the first run end k with d_{k+1} < k, which is
    the first run end at or past the corrected Durfee index
    (Hammer-Ibaraki-Simeone 1978): every later degree is below k, so from
    there on the slack k(k-1) + S_n - 2 S_k rises by 2k - 2d_{k+1} > 0 per
    vertex, and no later index is an equality either.

    Returns None when an inequality fails, else the equality run ends: the
    ascending run counts b whose inequality, at k = ccnt[b], holds with
    equality. ``decompose_runs`` takes its clique cuts from them.
    """
    r = len(neg)
    total = csum[r]
    if total % 2 or (r and -neg[0] >= ccnt[r]):
        return None
    cuts = []
    for b in range(1, r + 1):
        k = ccnt[b]
        last = b == r or neg[b] > -k
        # suffix i > k: the runs before s have degree >= k and contribute k
        # each, smaller degrees contribute themselves; so the slack is
        # k(k-1) + k(ccnt[s] - k) + (total - csum[s]) - csum[b]
        s = b if last else bisect_right(neg, -k, b, r)
        slack = k * (ccnt[s] - 1) + total - csum[s] - csum[b]
        if slack < 0:
            return None
        if not slack:
            cuts.append(b)
        if last:
            break
    return cuts


def _prefix(runs):
    """Negated degrees; vertex counts and degree sums of the first t runs."""
    return (
        [-d for d, _ in runs],
        list(accumulate(map(itemgetter(1), runs), initial=0)),
        list(accumulate(starmap(mul, runs), initial=0)),
    )


def decompose_runs(runs):
    """Strip the canonical decomposition off a run tuple.

    Returns None when the sequence is not graphical (Erdos-Gallai on the
    prefix sums the strip loop uses), else a list of records, in head-first
    order:
      ('k1', count)  count consecutive dominant-vertex components (0; -)
      ('s1', count)  count consecutive isolated-vertex components (-; 0)
      ('head', kside, sside, p, q)  one multi-vertex split head: its clique
          and stable runs, each side one flat tuple (d1, m1, d2, m2, ...),
          and their orders p and q, read off an Erdos-Gallai equality
      ('tail', truns, n, k)  the final indecomposable remainder (last): its
          runs, a slice of ``runs`` if no clique vertex strips, its order,
          and for a multi-vertex tail the number k of its runs on the
          clique side of its split partition, truns[:k] | truns[k:], or
          None when it is not split (None too for n <= 1)

    Dominant and isolated vertices strip one at a time under the
    lexicographic rule, and a maximal run of them always strips as that many
    consecutive single-vertex components, which keeps the loop run-granular.
    """
    records = []
    neg, ccnt, csum = _prefix(runs)
    cuts = _eg_holds(neg, ccnt, csum)
    if cuts is None:
        return None
    n = ccnt[-1]
    lo, hi = 0, len(runs)
    shift = 0  # clique vertices stripped so far, ccnt[lo]
    c = 0
    while True:
        if n <= 1:
            # a graphical sequence on one vertex is a degree 0
            records.append(("tail", ((0, 1),) * n, n, None))
            break
        d, m = runs[hi - 1]
        if d == shift:
            m = min(m, n - 1)  # the last vertex of all is the tail
            records.append(("s1", m))
            hi -= 1
            n -= m
            continue
        d, m = runs[lo]
        if d - shift == n - 1:
            m = min(m, n - 1)  # the last vertex of all is the tail
            records.append(("k1", m))
            lo += 1
            shift += m
            n -= m
            continue
        # the next equality index k past the clique vertices stripped so
        # far; its stable side is the window runs with degree below k
        while c < len(cuts) and cuts[c] <= lo:
            c += 1
        if c < len(cuts):
            b = cuts[c]
            j = bisect_right(neg, -ccnt[b], b, hi)
            p = ccnt[b] - shift
            q = ccnt[hi] - ccnt[j]
            mid = n - p - q
        if c == len(cuts) or not q or not mid:
            # split exactly when the next equality run end is in the window
            k = cuts[c] - lo if c < len(cuts) and cuts[c] <= hi else None
            tail = runs[lo:hi]
            if shift:
                # drop the O(r) prefix lists first: the garbage collections
                # that the new tuples trigger would walk them while they live
                del neg, ccnt, csum, cuts
                tail = tuple([(d - shift, m) for d, m in tail])
            records.append(("tail", tail, n, k))
            break
        down = shift + mid
        # most sides are one run, which needs no comprehension
        if b - lo == 1:
            kside = (d - down, m)  # d, m is runs[lo]
        else:
            kside = tuple([x for d, m in runs[lo:b] for x in (d - down, m)])
        if hi - j == 1:
            sside = (runs[j][0] - shift, runs[j][1])
        else:
            sside = tuple([x for d, m in runs[j:hi] for x in (d - shift, m)])
        records.append(("head", kside, sside, p, q))
        lo, hi = b, j
        shift += p
        n = mid
    return records
