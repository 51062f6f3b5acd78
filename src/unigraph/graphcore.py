"""Labeled simple graphs: realization output, oracle input, and the
graph-level complement / split-inverse / composition operations."""

from __future__ import annotations

import operator
import reprlib
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import count, repeat
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .degseq import REALIZE_MAX, DegreeSequence, normalize
from .errors import FormatError, InvalidPartition, TooLarge


class Graph(Record):
    """Immutable graph on vertices 0..n-1 with sorted neighbor tuples.

    A graph from the constructor, :meth:`from_adjacency` or
    :meth:`from_edges` holds its ``adj``; its edge forms read each vertex's
    neighbours above it off ``adj`` as id intervals, one interpreted step
    per neighbour. A graph from ``degseq.realize`` holds only its degree
    runs, ``n`` and ``m``. Each call of :meth:`edge_list_chunks`,
    :meth:`json_chunks`, :meth:`edges` or their joins sweeps its
    Havel-Hakimi intervals again, O(n) interpreted steps with O(r) state,
    and moves the names or ids of an interval as one slice. Its ``adj``,
    O(n + m) ids, is built on first read and then kept.

    The constructor takes, for each vertex 0..n-1 in turn, its neighbours
    in increasing order, and raises FormatError unless they are ids of
    other vertices and list each edge at both of its ends; the graphs this
    package builds skip that check.

    Equality, hashing and repr read ``adj``; a pickle carries what the
    instance holds, so a realized graph whose ``adj`` was never read
    pickles as its runs."""

    _fields = ("adj",)

    def __init__(self, adj: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "adj", _checked_adjacency(adj))

    @classmethod
    def _built(cls, adj) -> "Graph":
        """The graph on the neighbour collections of a simple graph this
        package built: each is sorted, and nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "adj", tuple([tuple(sorted(nbrs)) for nbrs in adj]))
        return g

    @classmethod
    def _realized(cls, runs, n: int, m: int) -> "Graph":
        """The Havel-Hakimi realization of the graphical degree runs
        ``runs``, of order n and with m edges; nothing is built yet."""
        g = object.__new__(cls)
        fields = g.__dict__
        fields["_runs"] = runs
        fields["n"] = n
        fields["m"] = m
        return g

    @classmethod
    def from_adjacency(cls, adj) -> "Graph":
        """The graph whose vertex u has the neighbours adj[u], in any
        order; raises FormatError as the constructor does."""
        try:
            rows = [sorted(nbrs) for nbrs in adj]
        except TypeError:
            raise FormatError(f"not rows of vertex ids: {reprlib.repr(adj)}") from None
        return cls(rows)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Refuses, before allocating, more than REALIZE_MAX vertices."""
        if type(n) is not int or n < 0:
            raise FormatError(f"vertex count {n!r} is not a non-negative integer")
        if n > REALIZE_MAX:
            raise TooLarge(f"graphs allow {REALIZE_MAX} vertices, got {n}")
        try:
            edges = iter(edges)
        except TypeError:
            raise FormatError(
                f"expected an iterable of edges, got {type(edges).__name__}"
            ) from None
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for edge in edges:
            try:
                u, v = map(operator.index, edge)
            except (TypeError, ValueError):
                raise FormatError(f"edge {edge!r} is not a pair of ids") from None
            if u == v:
                raise FormatError("self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"edge ({u},{v}) out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls._built(nbrs)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        # set by __init__ on every graph but a realized one
        return _adjacency_of(_havel_hakimi_intervals(self._runs, self.n), self.n)

    @cached_property
    def n(self) -> int:
        return len(self.adj)

    @cached_property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def _upper_bounds(self) -> Iterator[Sequence[int]]:
        """Per vertex u in id order, the bounds (first, lo, hi, lo, hi, ...)
        of its neighbours above it: the id intervals [u + 1, first),
        [lo, hi), ...; the realization's sweep, or read off ``adj``."""
        runs = self.__dict__.get("_runs")
        if runs is not None:
            return _havel_hakimi_intervals(runs, self.n)
        return map(_bounds_above, count(), self.adj)

    def edges(self) -> list[tuple[int, int]]:
        ids = list(range(self.n))
        out: list[tuple[int, int]] = []
        for u, b in enumerate(self._upper_bounds()):
            out += zip(repeat(u), _above(ids, u, b))
        return out

    def _vertex(self, v) -> int:
        """``v`` as a vertex id; FormatError unless it is an integer in
        range(n), as :meth:`from_edges` requires of an endpoint."""
        try:
            u = operator.index(v)
        except TypeError:
            raise FormatError(f"vertex {v!r} is not an integer id") from None
        if not 0 <= u < self.n:
            raise FormatError(f"vertex {u} out of range for {self.n} vertices")
        return u

    def has_edge(self, u: int, v: int) -> bool:
        return self._vertex(v) in self.adj[self._vertex(u)]

    def degree(self, v: int) -> int:
        return len(self.adj[self._vertex(v)])

    def edge_list_chunks(self) -> Iterator[str]:
        """The ``n m`` / ``u v`` edge-list text in pieces: the header line,
        then, for each vertex u in order, the lines of its edges to the
        vertices above it. Writing the pieces one by one never holds the
        whole text; the names of an interval of ids are one slice of a
        list of all names."""
        names = list(map(str, range(self.n)))
        yield f"{self.n} {self.m}\n"
        for u, b in enumerate(self._upper_bounds()):
            upper = _above(names, u, b)
            if upper:
                head = names[u] + " "
                yield head + ("\n" + head).join(upper) + "\n"

    def to_edge_list(self) -> str:
        return "".join(self.edge_list_chunks())

    def json_chunks(self) -> Iterator[str]:
        """``json.dumps({"n": n, "edges": edges()})`` in pieces, as
        :meth:`edge_list_chunks` writes the edge-list text: the opening,
        then the ``[u, v]`` edges of each vertex u to the vertices above
        it, then the closing brackets."""
        names = list(map(str, range(self.n)))
        yield f'{{"n": {self.n}, "edges": ['
        sep = ""
        for u, b in enumerate(self._upper_bounds()):
            upper = _above(names, u, b)
            if upper:
                head = "[" + names[u] + ", "
                yield sep + head + ("], " + head).join(upper) + "]"
                sep = ", "
        yield "]}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def _checked_adjacency(adj) -> tuple[tuple[int, ...], ...]:
    """``adj`` as neighbour tuples; FormatError unless row u lists, in
    increasing order, ids of vertices other than u, and each edge is listed
    at both of its ends."""
    try:
        rows = tuple([tuple(map(operator.index, nbrs)) for nbrs in adj])
    except TypeError:
        raise FormatError(f"not rows of vertex ids: {reprlib.repr(adj)}") from None
    n = len(rows)
    for u, row in enumerate(rows):
        prev = -1
        for v in row:
            if not prev < v < n or v == u:
                raise FormatError(
                    f"vertex {u} lists {v}: neighbours must be the ids of other"
                    " vertices, in increasing order"
                )
            prev = v
    for u, row in enumerate(rows):
        for v in row:
            i = bisect_left(rows[v], u)
            if i == len(rows[v]) or rows[v][i] != u:
                raise FormatError(f"edge ({u},{v}) is listed at {u} only")
    return rows


def _above(items: list, u: int, b: Sequence[int]) -> list:
    """The entries of ``items`` at the ids above u that the bounds b of
    ``Graph._upper_bounds`` name, in id order; one slice per interval."""
    out = items[u + 1:b[0]]
    for i in range(1, len(b), 2):
        out += items[b[i]:b[i + 1]]
    return out


def _bounds_above(u: int, nbrs: tuple[int, ...]) -> list[int]:
    """The bounds of ``Graph._upper_bounds`` for vertex u of sorted
    neighbours nbrs: each neighbour above u extends the interval that ends
    at it, or starts one."""
    b = [u + 1]
    for v in nbrs[bisect_right(nbrs, u):]:
        if v == b[-1]:
            b[-1] = v + 1
        else:
            b += (v, v + 1)
    return b


def _havel_hakimi_intervals(runs, n: int) -> Iterator[tuple[int, int, int]]:
    """The deterministic Havel-Hakimi realization of graphical degree runs
    of order n, one vertex at a time: yields, for each vertex u in id
    order, (first, second, hi), where u's neighbours above it are the id
    intervals [u + 1, first) and [second, hi), which never touch.

    Vertices are numbered in non-increasing degree order. u is joined to
    the vertices above it of largest remaining degree, as many as it still
    needs; among vertices of equal remaining degree the highest ids are
    taken first. The remaining degrees then stay non-increasing in id, so
    u always has the largest remaining degree, and the vertices of one
    remaining degree always form an id interval (a run).

    The vertices still owed edges form a stack of runs, the run of the
    current vertex u on top: ``neg_lo[i]`` is minus the first id of run i,
    so the list increases and ``bisect`` finds the run that holds an id,
    and ``gap[i]`` is the remaining degree of run i minus that of run
    i - 1, which holds higher ids. Entry 0 is a degree-0 sentinel run from
    the first vertex owed nothing. u's targets are the next ``owed`` ids
    in id order, except in the run where that count ends, whose highest ids
    are taken. The runs taken whole lose one degree each, which changes
    only the gap at the bottom one; the run cut splits in two, and a run
    whose gap falls to 0 merges with the run below. So the state is O(r)
    and each vertex takes O(1) steps plus at most one bisect.
    """
    # the lowest id owed nothing: a run of degree 0 ends the sequence
    end = n - runs[-1][1] if runs and not runs[-1][0] else n
    neg_lo, gap = [-end], [0]
    owed = 0  # the remaining degree of the top run, so of u
    for d, mult in reversed(runs):
        if d:
            end -= mult
            neg_lo.append(-end)
            gap.append(d - owed)
            owed = d
    for u in range(n):
        if not owed:
            # u and every vertex after it are owed nothing
            yield u + 1, u + 1, u + 1
            continue
        x = u + owed  # the last target in id order
        hi = -neg_lo[-2]  # u's run is [u, hi)
        if x + 1 < hi:
            # the targets are the highest ids of u's own run: [second, hi)
            second = hi - owed
            if gap[-1] > 1:
                neg_lo[-1] = -second
                gap[-1] -= 1
                neg_lo.append(~u)
                gap.append(1)
            else:
                neg_lo[-2] = -second
                neg_lo[-1] = ~u
            yield u + 1, second, hi
            continue
        i = len(neg_lo) - 1
        if hi == u + 1:
            # u was the last vertex of its run
            neg_lo.pop()
            owed -= gap.pop()
            i -= 1
            hi = -neg_lo[-2]
        else:
            neg_lo[i] = ~u
        if x >= hi:
            i = bisect_left(neg_lo, -x, 0, i)
            hi = -neg_lo[i - 1]
        # run i = [first, hi) is cut: u takes its ids from second on
        first = -neg_lo[i]
        second = hi + first - x - 1
        owed -= 1
        if second > first:
            # [first, second) keeps its degree, above the taken part
            neg_lo[i] = -second
            neg_lo.insert(i + 1, -first)
            gap.insert(i + 1, 1)
            if i + 2 == len(neg_lo):
                owed += 1
            elif gap[i + 2] == 1:
                del neg_lo[i + 1]
                del gap[i + 2]
            else:
                gap[i + 2] -= 1
        else:
            first = second = hi
        if gap[i] == 1:
            neg_lo[i - 1] = neg_lo[i]
            del neg_lo[i]
            del gap[i]
        else:
            gap[i] -= 1
        yield first, second, hi


def _adjacency_of(
    intervals: Iterable[tuple[int, int, int]], n: int
) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbour tuples of the graph on n vertices in which
    vertex u, for the u-th (first, second, hi) of ``intervals``, has the
    neighbours above it [u + 1, first) and [second, hi), two intervals that
    never touch.

    u's neighbours below it are the earlier vertices whose intervals hold
    u: one sweep keeps them, sorted, in ``active``. An interval of w files
    w in ``events`` at its end and, unless it starts at w + 1 where w is
    simply appended, at its start; the sweep toggles w in or out there.
    Every tuple is built from slices of one tuple of ids, and ``active``
    holds ids from it too, so all of them share its int objects.
    """
    ids = tuple(range(n))
    events: list[list[int] | None] = [None] * (n + 1)
    active: list[int] = []
    lower: tuple[int, ...] = ()
    adj: list[tuple[int, ...]] = []
    for u, (first, second, hi) in zip(ids, intervals):
        ev = events[u]
        if ev is not None:
            events[u] = None
            for w in ev:
                i = bisect_left(active, w)
                if i < len(active) and active[i] == w:
                    del active[i]
                else:
                    active.insert(i, w)
            lower = tuple(active)
        adj.append(lower + ids[u + 1:first] + ids[second:hi])
        if first > u + 1:
            # u is active from u + 1 on: it is the highest id so far
            active.append(u)
            lower = tuple(active)
            toggles = (first, second, hi) if second < hi else (first,)
        else:
            toggles = (second, hi) if second < hi else ()
        for at in toggles:
            ev = events[at]
            if ev is None:
                events[at] = [u]
            else:
                ev.append(u)
    return tuple(adj)


class VertexPartition(Record):
    """Clique/stable-set bipartition of a graph's vertices."""

    _fields = ("kset", "sset")

    def __init__(self, kset: frozenset[int], sset: frozenset[int]) -> None:
        object.__setattr__(self, "kset", kset)
        object.__setattr__(self, "sset", sset)


def _check_graph(g) -> None:
    """Raise FormatError unless ``g`` is a Graph."""
    if not isinstance(g, Graph):
        raise FormatError(f"expected a Graph, got {type(g).__name__}")


def degree_sequence_of(g: Graph) -> DegreeSequence:
    _check_graph(g)
    return normalize([len(a) for a in g.adj])


def check_partition(g: Graph, part: VertexPartition) -> None:
    """Raise InvalidPartition unless kset is a clique and sset is stable,
    and FormatError unless ``g`` is a Graph and ``part`` a VertexPartition."""
    _check_graph(g)
    if not isinstance(part, VertexPartition):
        raise FormatError(f"expected a VertexPartition, got {type(part).__name__}")
    if part.kset & part.sset or (part.kset | part.sset) != set(range(g.n)):
        raise InvalidPartition("partition does not cover the vertex set")
    adj = g.adj  # the sides cover range(n), so every id is one of g's
    for u in part.kset:
        for v in part.kset:
            if u < v and v not in adj[u]:
                raise InvalidPartition(f"clique side misses edge ({u},{v})")
    for u in part.sset:
        for v in part.sset:
            if u < v and v in adj[u]:
                raise InvalidPartition(f"stable side contains edge ({u},{v})")


def compose_graphs(head: Graph, part: VertexPartition, tail: Graph) -> Graph:
    """Disjoint union plus all edges from the head's clique side to the tail.

    Tail vertex ids are shifted up by the head's size.
    """
    check_partition(head, part)
    _check_graph(tail)
    off = head.n
    adj: list[list[int]] = [list(a) for a in head.adj]
    adj += [[v + off for v in a] for a in tail.adj]
    for u in part.kset:
        for w in range(tail.n):
            adj[u].append(w + off)
            adj[w + off].append(u)
    return Graph._built(adj)


def complement_graph(g: Graph) -> Graph:
    _check_graph(g)
    allv = set(range(g.n))
    return Graph._built([allv - set(g.adj[v]) - {v} for v in range(g.n)])


def inverse_graph(g: Graph, part: VertexPartition) -> tuple[Graph, VertexPartition]:
    """Split inverse: delete clique-side edges, complete the stable side.

    The returned partition swaps the two roles; applying the operation twice
    (with the swapped partition) restores the original graph.
    """
    check_partition(g, part)
    adj = [set(a) for a in g.adj]
    for u in part.kset:
        adj[u] -= part.kset
    for u in part.sset:
        adj[u] |= part.sset - {u}
    return Graph._built(adj), VertexPartition(part.sset, part.kset)
