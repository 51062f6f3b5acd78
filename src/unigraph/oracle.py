"""Exponential-time ground truth for the fast paths.

Graphs are handled as tuples of neighbor bitmasks. Canonical labeling is a
small partition-refinement search (no external dependency): the canonical
form is the lexicographically smallest relabeled adjacency encoding over all
permutations compatible with the equitable refinement, and the permutations
attaining it are a coset of the automorphism group, so one search yields the
form, |Aut|, and the automorphism list.

Isomorphism-class counting for exhaustive sweeps goes through a cached atlas
of all unlabeled graphs on up to eight vertices, built by extending each
smaller graph with one new vertex in every possible way and deduplicating by
canonical form.

Hard size guards raise TooLarge instead of silently degrading.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .degseq import DegreeSequence, brief, normalize
from .errors import NotGraphical, TooLarge
from .graphcore import Graph
from ._kernel import reference

MAX_ENUM = 10  # realization enumeration / canonical form
MAX_CLASSES = 9
MAX_AUT = 9
MAX_PARAMS = 12
MAX_FIXDIST = 9
MAX_ATLAS = 8

_ATLAS_VERSION = 1


@dataclass(frozen=True)
class Permutation:
    mapping: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.mapping))


def masks_of(g: Graph) -> tuple[int, ...]:
    return tuple(sum(1 << v for v in nbrs) for nbrs in g.adj)


def graph_of(masks: tuple[int, ...]) -> Graph:
    n = len(masks)
    return Graph.from_adjacency(
        [[v for v in range(n) if masks[u] >> v & 1] for u in range(n)]
    )


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise TooLarge(f"{what} supports at most {limit} vertices, got {n}")


# ---------------------------------------------------------------------------
# canonical labeling


def _refine(masks: tuple[int, ...], colors: list[int]) -> list[int]:
    """Equitable refinement: split color classes by neighbor color counts."""
    n = len(masks)
    while True:
        sigs = []
        for v in range(n):
            counts: dict[int, int] = {}
            w = masks[v]
            while w:
                b = w & -w
                u = b.bit_length() - 1
                w ^= b
                counts[colors[u]] = counts.get(colors[u], 0) + 1
            sigs.append((colors[v], tuple(sorted(counts.items()))))
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _canon_search(masks: tuple[int, ...], want_perms: bool):
    """Minimal relabeled adjacency rows; returns (rows, count, min_perms).

    rows[i] holds vertex i's adjacency to vertices 0..i-1 as an i-bit int.
    count is the number of compatible permutations attaining the minimum,
    which equals |Aut|; min_perms collects them when requested.
    """
    n = len(masks)
    if n == 0:
        return [], 1, [()] if want_perms else []
    colors = _refine(masks, [0] * n)
    slot_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)

    best: list[int] | None = None
    count = 0
    perms: list[tuple[int, ...]] = []
    perm: list[int] = [0] * n
    rows: list[int] = [0] * n
    placed_bit: list[int] = [0] * n  # old vertex -> 1 << position

    def dfs(i: int) -> None:
        nonlocal best, count
        # best may have moved since this frame's parent compared, so the
        # prefix relation is re-derived here instead of carried down
        rel = -1
        if best is not None:
            rel = 0
            for t in range(i):
                if rows[t] != best[t]:
                    rel = -1 if rows[t] < best[t] else 1
                    break
            if rel == 1:
                return
        if i == n:
            if rel == 0:
                count += 1
                if want_perms:
                    perms.append(tuple(perm))
            else:
                best = rows.copy()
                count = 1
                if want_perms:
                    perms.clear()
                    perms.append(tuple(perm))
            return
        for v in by_color[slot_color[i]]:
            if placed_bit[v]:
                continue
            row = 0
            w = masks[v]
            while w:
                b = w & -w
                w ^= b
                pb = placed_bit[b.bit_length() - 1]
                if pb:
                    row |= pb
            if rel == 0 and row > best[i]:
                continue
            rows[i] = row
            perm[v] = i
            placed_bit[v] = 1 << i
            dfs(i + 1)
            placed_bit[v] = 0

    dfs(0)
    return best, count, perms


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant encoding: equal iff the graphs are isomorphic."""
    _guard(g.n, MAX_ENUM, "canonical_form")
    rows, _, _ = _canon_search(masks_of(g), False)
    return bytes([g.n]) + b"".join(r.to_bytes(2, "big") for r in rows)


def _canon_key(masks: tuple[int, ...]) -> bytes:
    rows, _, _ = _canon_search(masks, False)
    return bytes([len(masks)]) + b"".join(r.to_bytes(2, "big") for r in rows)


@lru_cache(maxsize=65536)
def _aut_data(masks: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    _, count, perms = _canon_search(masks, True)
    if not perms:
        return count, ()
    pi0 = perms[0]
    inv0 = [0] * len(pi0)
    for old, new in enumerate(pi0):
        inv0[new] = old
    auts = []
    for pi in perms:
        # pi = pi0 after an automorphism: recover it as inv(pi0) o pi
        auts.append(tuple(inv0[pi[v]] for v in range(len(pi))))
    return count, tuple(sorted(auts))


def automorphisms(g: Graph) -> list[Permutation]:
    """All adjacency-preserving vertex bijections."""
    _guard(g.n, MAX_AUT, "automorphisms")
    _, auts = _aut_data(masks_of(g))
    return [Permutation(a) for a in auts]


def automorphism_count(g: Graph) -> int:
    """|Aut(G)| without materializing the group, so one extra vertex of
    headroom over the list variant."""
    _guard(g.n, MAX_ENUM, "automorphism_count")
    _, count, _ = _canon_search(masks_of(g), False)
    return count


# ---------------------------------------------------------------------------
# realization enumeration and the unlabeled atlas


def _realizations_assigned(target: list[int]):
    """All labeled graphs in which vertex v has degree exactly target[v].

    Vertex u picks its neighbors among later vertices; branches whose
    residual demand is not graphical are cut.
    """
    n = len(target)
    masks = [0] * n

    def residual_ok(rem: list[int], frm: int) -> bool:
        vals, mults = reference._runs(rem[frm:])
        return reference.eg_graphical_naive(vals, mults)

    def backtrack(u: int, rem: list[int]):
        if u == n:
            yield graph_of(tuple(masks))
            return
        need = rem[u]
        if need == 0:
            if residual_ok(rem, u + 1):
                yield from backtrack(u + 1, rem)
            return
        candidates = [v for v in range(u + 1, n) if rem[v] > 0]
        if len(candidates) < need:
            return
        for chosen in combinations(candidates, need):
            nrem = rem.copy()
            nrem[u] = 0
            for v in chosen:
                nrem[v] -= 1
            if not residual_ok(nrem, u + 1):
                continue
            for v in chosen:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            yield from backtrack(u + 1, nrem)
            for v in chosen:
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)

    yield from backtrack(0, list(target))


def _multiset_permutations(values: list[int]):
    if not values:
        yield []
        return
    distinct = sorted(set(values), reverse=True)
    counts = {d: values.count(d) for d in distinct}
    out: list[int] = []

    def rec():
        if len(out) == len(values):
            yield list(out)
            return
        for d in distinct:
            if counts[d]:
                counts[d] -= 1
                out.append(d)
                yield from rec()
                out.pop()
                counts[d] += 1

    yield from rec()


def enumerate_realizations(s: DegreeSequence):
    """Yield every labeled simple graph whose degree multiset equals s,
    covering all assignments of the degrees to vertex ids."""
    _guard(s.n, MAX_ENUM, "enumerate_realizations")
    from .degseq import is_graphical

    if not is_graphical(s):
        raise NotGraphical(f"{brief(s)} is not graphical")
    for target in _multiset_permutations(s.to_list()):
        yield from _realizations_assigned(target)


_atlas_cache: dict[int, list[tuple[int, ...]]] = {}


def _atlas_path() -> str | None:
    return os.environ.get("UNIGRAPH_ATLAS_CACHE")


def graphs_with_n(n: int) -> list[tuple[int, ...]]:
    """All unlabeled graphs on n vertices, one bitmask representative each."""
    _guard(n, MAX_ATLAS, "graphs_with_n")
    if n in _atlas_cache:
        return _atlas_cache[n]
    path = _atlas_path()
    if path and os.path.exists(path):
        try:
            with open(path, "rb") as fh:
                stored = pickle.load(fh)
            if stored.get("version") == _ATLAS_VERSION and n in stored["atlas"]:
                _atlas_cache.update(stored["atlas"])
                return _atlas_cache[n]
        except Exception:
            pass
    if n == 0:
        reps: list[tuple[int, ...]] = [()]
    else:
        reps = []
        seen: set[bytes] = set()
        newbit = 1 << (n - 1)
        for base in graphs_with_n(n - 1):
            for sub in range(1 << (n - 1)):
                rows = [
                    base[v] | (newbit if sub >> v & 1 else 0) for v in range(n - 1)
                ]
                rows.append(sub)
                child = tuple(rows)
                key = _canon_key(child)
                if key not in seen:
                    seen.add(key)
                    reps.append(child)
    _atlas_cache[n] = reps
    if path:
        _store_atlas(path)
    return reps


def _store_atlas(path: str) -> None:
    """Write the atlas to a temp file beside ``path`` and move it into place
    with os.replace, so a reader or a parallel writer never sees a torn
    pickle. A failed write leaves the old file as it was."""
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
        )
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump({"version": _ATLAS_VERSION, "atlas": _atlas_cache}, fh)
        os.replace(tmp, path)
    except OSError:
        pass
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=16)
def atlas_by_sequence(n: int) -> dict[tuple, tuple[tuple[int, ...], ...]]:
    """Unlabeled graphs on n vertices grouped by degree sequence runs."""
    grouped: dict[tuple, list[tuple[int, ...]]] = {}
    for masks in graphs_with_n(n):
        runs = normalize([m.bit_count() for m in masks]).runs
        grouped.setdefault(runs, []).append(masks)
    return {runs: tuple(g) for runs, g in grouped.items()}


def count_isomorphism_classes(s: DegreeSequence) -> int:
    """Number of isomorphism classes realizing s; 1 means unigraph."""
    from .degseq import is_graphical

    _guard(s.n, MAX_CLASSES, "count_isomorphism_classes")
    if not is_graphical(s):
        raise NotGraphical(f"{brief(s)} is not graphical")
    if s.n <= MAX_ATLAS:
        return len(atlas_by_sequence(s.n).get(s.runs, ()))
    # every class has a representative with non-increasing degrees, so one
    # fixed assignment suffices and skips the multiset-permutation factor
    forms = {_canon_key(masks_of(g)) for g in _realizations_assigned(s.to_list())}
    return len(forms)


# ---------------------------------------------------------------------------
# brute-force parameters


def _independent_subsets(masks: tuple[int, ...]) -> list[bool]:
    n = len(masks)
    indep = [False] * (1 << n)
    indep[0] = True
    for m in range(1, 1 << n):
        b = m & -m
        v = b.bit_length() - 1
        rest = m ^ b
        indep[m] = indep[rest] and not (masks[v] & rest)
    return indep


def brute_params(g: Graph) -> tuple[int, int, int, int]:
    """(omega, alpha, beta, chi) by exhaustive subset search."""
    _guard(g.n, MAX_PARAMS, "brute_params")
    n = g.n
    if n == 0:
        return 0, 0, 0, 0
    masks = masks_of(g)
    comp = tuple(((1 << n) - 1) & ~masks[v] & ~(1 << v) for v in range(n))
    indep = _independent_subsets(masks)
    alpha = max(m.bit_count() for m in range(1 << n) if indep[m])
    clique = _independent_subsets(comp)
    omega = max(m.bit_count() for m in range(1 << n) if clique[m])
    # chromatic number: cover the vertex set with independent sets
    full = (1 << n) - 1
    INF = n + 1
    dp = [INF] * (1 << n)
    dp[0] = 0
    for m in range(1, 1 << n):
        # iterate independent subsets of m containing its lowest vertex
        b = m & -m
        sub = m
        bestv = INF
        while sub:
            if sub & b and indep[sub] and dp[m ^ sub] + 1 < bestv:
                bestv = dp[m ^ sub] + 1
            sub = (sub - 1) & m
        dp[m] = bestv
    return omega, alpha, n - alpha, dp[full]


def brute_fix(g: Graph) -> int:
    """Smallest vertex set whose pointwise stabilizer is trivial."""
    _guard(g.n, MAX_FIXDIST, "brute_fix")
    n = g.n
    _, auts = _aut_data(masks_of(g))
    fixed = set()
    ident = tuple(range(n))
    for a in auts:
        if a != ident:
            fixed.add(sum(1 << i for i, v in enumerate(a) if i == v))
    if not fixed:
        return 0
    by_size = sorted(range(1 << n), key=lambda m: m.bit_count())
    for s in by_size:
        if all(s & ~f for f in fixed):
            return s.bit_count()
    return n  # unreachable: fixing everything always works


def brute_dist(g: Graph) -> int:
    """Fewest colors admitting a coloring preserved by no non-trivial
    automorphism.

    Whether a coloring is distinguishing depends only on its color classes,
    so set partitions are enumerated instead of colorings and the answer is
    the least block count over partitions with no non-trivial setwise
    stabilizer.
    """
    _guard(g.n, MAX_FIXDIST, "brute_dist")
    n = g.n
    if n == 0:
        return 1
    masks = masks_of(g)
    _, auts = _aut_data(masks)
    ident = tuple(range(n))
    nontrivial = [a for a in auts if a != ident]
    if not nontrivial:
        return 1
    # complete and empty graphs admit every transposition, forcing injective
    # colorings; this check keeps their huge groups out of the search below
    if all(m == ((1 << n) - 1) ^ (1 << v) for v, m in enumerate(masks)) or all(
        m == 0 for m in masks
    ):
        return n
    # perms moving few vertices kill most partitions quickly
    nontrivial.sort(key=lambda a: sum(1 for i, v in enumerate(a) if i != v))
    best = n
    block = [0] * n

    def preserved_by_some() -> bool:
        for a in nontrivial:
            if all(block[a[v]] == block[v] for v in range(n)):
                return True
        return False

    def dfs(v: int, nblocks: int) -> None:
        nonlocal best
        if nblocks >= best:
            return
        if v == n:
            if not preserved_by_some():
                best = nblocks
            return
        for b in range(min(nblocks + 1, best)):
            block[v] = b
            dfs(v + 1, max(nblocks, b + 1))

    dfs(0, 0)
    return best


def is_split_realizable(g: Graph) -> bool:
    """Exhaustive clique/stable bipartition test."""
    _guard(g.n, MAX_CLASSES, "is_split_realizable")
    n = g.n
    masks = masks_of(g)
    for kset in range(1 << n):
        ok = True
        for v in range(n):
            if kset >> v & 1:
                if (kset & ~(1 << v)) & ~masks[v]:
                    ok = False
                    break
            elif masks[v] & ~kset:
                ok = False
                break
        if ok:
            return True
    return False


def graphical_sequences(n: int):
    """All graphical degree sequences on exactly n vertices.

    Independent of the run-aware kernel: monotone candidate tuples are
    filtered by the naive Erdos-Gallai reference, so atlas-based tests can
    cross-validate both routes.
    """

    def gen(prefix: list[int], remaining: int, cap: int):
        if remaining == 0:
            vals, mults = reference._runs(prefix)
            if reference.eg_graphical_naive(vals, mults):
                yield normalize(prefix)
            return
        for d in range(min(cap, n - 1), -1, -1):
            prefix.append(d)
            yield from gen(prefix, remaining - 1, d)
            prefix.pop()

    yield from gen([], n, n - 1)
