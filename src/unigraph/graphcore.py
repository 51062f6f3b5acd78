"""Labeled simple graphs: realization output, oracle input, and the
graph-level complement / split-inverse / composition operations."""

from __future__ import annotations

import operator
from bisect import bisect_right
from functools import cached_property
from typing import Iterator

from ._record import Record
from .degseq import REALIZE_MAX, DegreeSequence, normalize
from .errors import FormatError, InvalidPartition, TooLarge


class Graph(Record):
    """Immutable graph on vertices 0..n-1 with sorted neighbor tuples."""

    _fields = ("adj",)

    def __init__(self, adj: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_adjacency(cls, adj) -> "Graph":
        return cls(tuple(tuple(sorted(nbrs)) for nbrs in adj))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Refuses, before allocating, more than REALIZE_MAX vertices."""
        if type(n) is not int or n < 0:
            raise FormatError(f"vertex count {n!r} is not a non-negative integer")
        if n > REALIZE_MAX:
            raise TooLarge(f"graphs allow {REALIZE_MAX} vertices, got {n}")
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
        return cls.from_adjacency(nbrs)

    @property
    def n(self) -> int:
        return len(self.adj)

    @cached_property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def _upper_neighbours(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield (u, the neighbours of u above u) for each u that has any."""
        for u, nbrs in enumerate(self.adj):
            i = bisect_right(nbrs, u)
            if i < len(nbrs):
                yield u, nbrs[i:]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, upper in self._upper_neighbours() for v in upper]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_list_chunks(self) -> Iterator[str]:
        """The ``n m`` / ``u v`` edge-list text in pieces: the header line,
        then, for each vertex u in order, the lines of its edges to the
        vertices above it. Writing the pieces one by one never holds the
        whole text."""
        names = list(map(str, range(self.n)))
        yield f"{self.n} {self.m}\n"
        for u, upper in self._upper_neighbours():
            if len(upper) == 1:
                yield f"{u} {names[upper[0]]}\n"
            else:
                # itemgetter looks the names up in C, twice as fast as map
                upper_names = operator.itemgetter(*upper)(names)
                yield f"{u} " + f"\n{u} ".join(upper_names) + "\n"

    def to_edge_list(self) -> str:
        return "".join(self.edge_list_chunks())

    def to_json(self) -> str:
        import json

        return json.dumps({"n": self.n, "edges": self.edges()})


class VertexPartition(Record):
    """Clique/stable-set bipartition of a graph's vertices."""

    _fields = ("kset", "sset")

    def __init__(self, kset: frozenset[int], sset: frozenset[int]) -> None:
        object.__setattr__(self, "kset", kset)
        object.__setattr__(self, "sset", sset)


def parse_edge_list(text: str) -> Graph:
    """Read the ``n m`` / ``u v`` edge-list format."""
    if not isinstance(text, str):
        raise FormatError(f"expected edge-list text, got {type(text).__name__}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge list")
    try:
        n, m = map(int, lines[0].split())
        edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"bad edge list: {exc}") from exc
    if len(edges) != m:
        raise FormatError(f"expected {m} edges, found {len(edges)}")
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise FormatError(f"bad edge list: {exc}") from exc


def parse_graph_json(text: str) -> Graph:
    import json

    try:
        data = json.loads(text)
        return Graph.from_edges(data["n"], data["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad graph JSON: {exc}") from exc


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
    for u in part.kset:
        for v in part.kset:
            if u < v and not g.has_edge(u, v):
                raise InvalidPartition(f"clique side misses edge ({u},{v})")
    for u in part.sset:
        for v in part.sset:
            if u < v and g.has_edge(u, v):
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
    return Graph.from_adjacency(adj)


def complement_graph(g: Graph) -> Graph:
    _check_graph(g)
    allv = set(range(g.n))
    return Graph.from_adjacency(
        [allv - set(g.adj[v]) - {v} for v in range(g.n)]
    )


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
    return Graph.from_adjacency(adj), VertexPartition(part.sset, part.kset)
