import json
import pickle
import random
import tracemalloc
from functools import partial

import pytest

from unigraph import graphcore, oracle
from unigraph.degseq import (
    compose_seq,
    normalize,
    parse_paired,
    parse_sequence,
    realize,
)
from unigraph.errors import FormatError, InvalidPartition, TooLarge
from unigraph.graphcore import (
    Graph,
    VertexPartition,
    complement_graph,
    compose_graphs,
    degree_sequence_of,
    inverse_graph,
)

# Fig. 1 tree on labels a..e = 0..4: edges ab, cd, ed, bd; A = {b, d}
TREE = Graph.from_edges(5, [(0, 1), (2, 3), (4, 3), (1, 3)])
TREE_PART = VertexPartition(frozenset({1, 3}), frozenset({0, 2, 4}))
C3 = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
# Fig. 2 threshold graph: v3, v4 adjacent to everything else and each other
THRESHOLD = Graph.from_edges(
    5, [(3, 4), (3, 1), (3, 2), (3, 0), (4, 1), (4, 2), (4, 0)]
)


class TestDegreeSequenceOf:
    def test_fig1_tree(self):
        assert degree_sequence_of(TREE).to_text() == "3,2,1^3"

    def test_edgeless(self):
        assert degree_sequence_of(Graph.from_edges(4, [])).to_text() == "0^4"

    def test_fig2_threshold(self):
        assert degree_sequence_of(THRESHOLD).to_text() == "4^2,2^3"


class TestCompose:
    def test_fig1_composition(self):
        got = compose_graphs(TREE, TREE_PART, C3)
        # the drawn 8-vertex graph: tree + triangle {x,y,z} + b,d joined to it
        want = Graph.from_edges(
            8,
            [(0, 1), (2, 3), (4, 3), (1, 3)]
            + [(5, 6), (6, 7), (5, 7)]
            + [(b, t) for b in (1, 3) for t in (5, 6, 7)],
        )
        assert oracle.canonical_form(got) == oracle.canonical_form(want)
        assert degree_sequence_of(got).to_text() == "6,5,4^3,1^3"

    def test_single_k_vertex_head_adds_dominant(self):
        head = Graph.from_edges(1, [])
        part = VertexPartition(frozenset({0}), frozenset())
        got = compose_graphs(head, part, C3)
        assert degree_sequence_of(got).to_text() == "3^4"

    def test_single_s_vertex_head_adds_isolated(self):
        head = Graph.from_edges(1, [])
        part = VertexPartition(frozenset(), frozenset({0}))
        got = compose_graphs(head, part, C3)
        assert degree_sequence_of(got).to_text() == "2^3,0"

    def test_invalid_partition(self):
        bad = VertexPartition(frozenset({0, 2}), frozenset({1, 3, 4}))
        with pytest.raises(InvalidPartition):
            compose_graphs(TREE, bad, C3)
        with pytest.raises(InvalidPartition):
            compose_graphs(TREE, VertexPartition(frozenset({1}), frozenset()), C3)

    def test_matches_sequence_composition(self):
        rng = random.Random(3)
        for _ in range(60):
            p = rng.randint(0, 3)
            q = rng.randint(0 if p else 1, 3)
            n_tail = rng.randint(0, 4)
            head_edges = [(u, v) for u in range(p) for v in range(u + 1, p)]
            for u in range(p):
                for w in range(q):
                    if rng.random() < 0.5:
                        head_edges.append((u, p + w))
            head = Graph.from_edges(p + q, head_edges)
            part = VertexPartition(
                frozenset(range(p)), frozenset(range(p, p + q))
            )
            tail = Graph.from_edges(
                n_tail,
                [
                    (u, v)
                    for u in range(n_tail)
                    for v in range(u + 1, n_tail)
                    if rng.random() < 0.5
                ],
            )
            got = compose_graphs(head, part, tail)
            from unigraph.degseq import PairedDegreeSequence

            kdeg = normalize_part([head.degree(v) for v in range(p)])
            sdeg = normalize_part([head.degree(v) for v in range(p, p + q)])
            ps = PairedDegreeSequence(kdeg, sdeg)
            assert degree_sequence_of(got) == compose_seq(
                ps, degree_sequence_of(tail)
            )

    def test_associative_up_to_isomorphism(self):
        a = Graph.from_edges(2, [(0, 1)])
        pa = VertexPartition(frozenset({0}), frozenset({1}))
        b = Graph.from_edges(3, [(0, 1), (0, 2)])
        pb = VertexPartition(frozenset({0}), frozenset({1, 2}))
        tail = Graph.from_edges(4, [(0, 1), (2, 3)])
        inner_first = compose_graphs(a, pa, compose_graphs(b, pb, tail))
        ab = compose_graphs(a, pa, b)
        pab = VertexPartition(frozenset({0, 2}), frozenset({1, 3, 4}))
        outer_first = compose_graphs(ab, pab, tail)
        # id layout agrees too, so the graphs are literally equal
        assert inner_first == outer_first
        assert oracle.canonical_form(inner_first) == oracle.canonical_form(
            outer_first
        )

    def test_associativity_randomized(self):
        rng = random.Random(17)
        for _ in range(40):
            heads = []
            total = 0
            for _ in range(2):
                p = rng.randint(1, 2)
                q = rng.randint(0, 2)
                edges = [(u, v) for u in range(p) for v in range(u + 1, p)]
                edges += [
                    (u, p + w)
                    for u in range(p)
                    for w in range(q)
                    if rng.random() < 0.5
                ]
                heads.append(
                    (
                        Graph.from_edges(p + q, edges),
                        VertexPartition(
                            frozenset(range(p)), frozenset(range(p, p + q))
                        ),
                    )
                )
                total += p + q
            nt = rng.randint(1, 9 - total)
            tail = Graph.from_edges(
                nt,
                [
                    (u, v)
                    for u in range(nt)
                    for v in range(u + 1, nt)
                    if rng.random() < 0.5
                ],
            )
            (g1, p1), (g2, p2) = heads
            inner = compose_graphs(g1, p1, compose_graphs(g2, p2, tail))
            g12 = compose_graphs(g1, p1, g2)
            p12 = VertexPartition(
                p1.kset | {v + g1.n for v in p2.kset},
                p1.sset | {v + g1.n for v in p2.sset},
            )
            outer = compose_graphs(g12, p12, tail)
            assert oracle.canonical_form(inner) == oracle.canonical_form(outer)


def normalize_part(degs):
    # part degrees may reach the component order, which normalize() rejects
    from unigraph.degseq import DegreeSequence

    runs = []
    for d in sorted(degs, reverse=True):
        if runs and runs[-1][0] == d:
            runs[-1][1] += 1
        else:
            runs.append([d, 1])
    return DegreeSequence(tuple((d, m) for d, m in runs))


class TestComplementGraph:
    def test_k4(self):
        k4 = realize(parse_sequence("3^4"))
        assert complement_graph(k4).m == 0

    def test_c5_self_complementary(self):
        c5 = realize(parse_sequence("2^5"))
        assert oracle.canonical_form(c5) == oracle.canonical_form(
            complement_graph(c5)
        )

    def test_involution(self):
        assert complement_graph(complement_graph(TREE)) == TREE

    def test_fig4_complement_drawing(self):
        want = Graph.from_edges(
            5, [(0, 2), (0, 4), (2, 4), (1, 2), (1, 4), (0, 3)]
        )
        assert complement_graph(TREE) == want


class TestInverseGraph:
    def test_fig4_inverse_drawing(self):
        got, part = inverse_graph(TREE, TREE_PART)
        want = Graph.from_edges(5, [(0, 1), (2, 3), (4, 3), (0, 2), (0, 4), (2, 4)])
        assert got == want
        assert part == VertexPartition(frozenset({0, 2, 4}), frozenset({1, 3}))

    def test_fig4_inverse_of_complement_drawing(self):
        comp = complement_graph(TREE)
        comp_part = VertexPartition(TREE_PART.sset, TREE_PART.kset)
        got, _ = inverse_graph(comp, comp_part)
        want = Graph.from_edges(5, [(1, 3), (0, 3), (1, 2), (1, 4)])
        assert got == want

    def test_single_k_vertex(self):
        g = Graph.from_edges(1, [])
        gi, part = inverse_graph(g, VertexPartition(frozenset({0}), frozenset()))
        assert gi == g
        assert part == VertexPartition(frozenset(), frozenset({0}))

    def test_involution_with_swap(self):
        gi, part = inverse_graph(TREE, TREE_PART)
        back, part2 = inverse_graph(gi, part)
        assert back == TREE
        assert part2 == TREE_PART

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartition):
            inverse_graph(TREE, VertexPartition(frozenset({0, 1}), frozenset({2, 3, 4})))


def per_edge_edge_list(g):
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u in range(g.n) for v in g.adj[u] if u < v]
    return "\n".join(lines) + "\n"


def per_edge_json(g):
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    return json.dumps({"n": g.n, "edges": edges})


class TestIO:
    def test_output_matches_per_edge_formatting(self, atlas8):
        rng = random.Random(17)
        dense = Graph.from_edges(
            120, [(u, v) for u in range(120) for v in range(u) if rng.random() < 0.8]
        )
        graphs = [oracle.graph_of(m) for n in range(8) for m in oracle.graphs_with_n(n)]
        for g in graphs + [dense]:
            assert g.to_edge_list() == per_edge_edge_list(g)
            assert g.to_json() == per_edge_json(g)

    def test_edge_list_round_trip(self):
        text = TREE.to_edge_list()
        header, *lines = text.splitlines()
        assert header == "5 4"
        edges = [tuple(map(int, line.split())) for line in lines]
        assert Graph.from_edges(5, edges) == TREE

    def test_json_round_trip(self):
        data = json.loads(THRESHOLD.to_json())
        assert data["n"] == 5
        assert Graph.from_edges(data["n"], data["edges"]) == THRESHOLD

    @pytest.mark.parametrize(
        "call, arg",
        [
            (partial(Graph.from_edges, 2), [(0, 0)]),
            (partial(Graph.from_edges, 2), [(0, 5)]),
            (partial(Graph.from_edges, -1), []),
            (parse_sequence, None),
            (parse_paired, None),
            # vertex counts as json.loads decodes 1e400, 2.5, true and "3"
            (partial(Graph.from_edges, float("inf")), []),
            (partial(Graph.from_edges, 2.5), [[0, 1]]),
            (partial(Graph.from_edges, True), []),
            (partial(Graph.from_edges, "3"), []),
            (partial(Graph.from_edges, 3), None),
            (partial(Graph.from_edges, 3), 5),
        ],
        ids=[
            "self-loop",
            "out-of-range",
            "negative-n",
            "sequence-none",
            "paired-none",
            "json-overflowing-n",
            "json-fractional-n",
            "json-bool-n",
            "json-text-n",
            "from-edges-none",
            "from-edges-int",
        ],
    )
    def test_text_parsers_raise_only_format_error(self, call, arg):
        with pytest.raises(FormatError):
            call(arg)

    @pytest.mark.parametrize(
        "build", [lambda: Graph.from_edges(10**7 + 1, [])], ids=["from-edges"]
    )
    def test_vertex_count_past_realize_max_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    @pytest.mark.parametrize(
        "adj",
        [None, 5, [[1], None], ((5,),), ((0,),), ((1,), ()), ((1, 1), (0,)),
         ((2, 1), (0,), (0,)), ((1,), (0,), (-1,)), ((1,), (0.0,)), ((2,), (), ())],
    )
    def test_constructor_refuses_malformed_adjacency(self, adj):
        # not rows, an id out of range, a self-loop, an edge listed at one
        # end, a repeated or unsorted neighbour, a fractional id
        with pytest.raises(FormatError):
            Graph(adj)
        if adj != ((2, 1), (0,), (0,)):  # from_adjacency sorts the rows
            with pytest.raises(FormatError):
                Graph.from_adjacency(adj)

    def test_constructor_takes_rows_of_ids(self):
        g = Graph([[1, 2], (0,), iter([0])])
        assert g.adj == ((1, 2), (0,), (0,))
        assert g == Graph.from_edges(3, [(0, 1), (0, 2)])
        assert Graph.from_adjacency([{2, 1}, [0], (0,)]) == g


def rule_havel_hakimi(s):
    """The neighbour tuples of the rule ``realize`` documents, one vertex
    at a time: u joins the vertices above it of largest remaining degree,
    the highest ids first among equal ones."""
    rem = s.to_list()
    nbrs = [set() for _ in rem]
    for u in range(len(rem)):
        by_rank = sorted(range(u + 1, len(rem)), key=lambda v: (-rem[v], -v))
        for v in by_rank[: rem[u]]:
            nbrs[u].add(v)
            nbrs[v].add(u)
            rem[v] -= 1
    return tuple(tuple(sorted(a)) for a in nbrs)


class TestRealizedGraph:
    def test_edge_forms_never_build_the_adjacency(self, monkeypatch):
        calls = []
        lower_pass = graphcore._adjacency_of

        def counted(*args):
            calls.append(args)
            return lower_pass(*args)

        monkeypatch.setattr(graphcore, "_adjacency_of", counted)
        g = realize(parse_sequence("4^2,3^2,2^3"))
        g.to_edge_list()
        g.edges()
        g.to_json()
        assert calls == [] and "adj" not in vars(g)
        adj = g.adj
        assert len(calls) == 1
        assert g.adj is adj
        assert g == Graph(adj) and hash(g) == hash(Graph(adj)) and repr(g)
        assert len(calls) == 1

    def test_equals_the_rule_adjacency_n_le_9(self):
        from unigraph.verify import iter_graphical

        for s in iter_graphical(9):
            ref = Graph(rule_havel_hakimi(s))
            g = realize(s)
            assert g.to_edge_list() == per_edge_edge_list(ref)
            assert g.to_json() == per_edge_json(ref)
            unread = pickle.loads(pickle.dumps(realize(s)))
            assert g == ref and hash(g) == hash(ref) and repr(g) == repr(ref)
            assert unread == ref and pickle.loads(pickle.dumps(g)) == ref

    def test_streamed_edge_list_memory(self):
        # 6.25 M edges, 59.7 MB of text (84.7 MB as JSON); the names list
        # alone is 0.3 MB
        g = realize(parse_sequence("2500^5000"))
        for chunks in (g.edge_list_chunks, g.json_chunks):
            tracemalloc.start()
            try:
                for _ in chunks():
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 10**6, chunks
