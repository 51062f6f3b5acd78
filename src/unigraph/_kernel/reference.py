"""Naive per-vertex reference implementations for differential testing.

Everything here is deliberately simple and quadratic; the run-aware kernels
are validated against these on small inputs, on the kernel's run tuples.
"""

from collections import Counter


def expand(runs):
    """Per-vertex degrees of a run tuple."""
    return [d for d, m in runs for _ in range(m)]


def eg_graphical_naive(runs):
    d = expand(runs)
    n = len(d)
    if n == 0:
        return True
    if sum(d) % 2 or d[0] >= n:
        return False
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(x, k) for x in d[k:])
        if lhs > rhs:
            return False
    return True


def split_point_naive(runs):
    """First (p, q) in lexicographic order satisfying the cut equation."""
    d = expand(runs)
    n = len(d)
    for p in range(n):
        for q in range(n - p):
            if p + q == 0:
                continue
            if sum(d[:p]) == p * (n - q - 1) + (sum(d[n - q :]) if q else 0):
                return p, q
    return None


def decompose_naive(runs):
    """Per-vertex strip loop; returns (heads, tail) as degree lists."""
    d = expand(runs)
    heads = []
    while True:
        n = len(d)
        cut = split_point_naive(_runs(d))
        if cut is None:
            return heads, d
        p, q = cut
        mid = n - p - q
        heads.append(([x - mid for x in d[:p]], d[n - q :] if q else []))
        d = [x - p for x in d[p : n - q]]


def _runs(degrees):
    """The run tuple of a degree list."""
    return tuple(sorted(Counter(degrees).items(), reverse=True))
