import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigraph import oracle
from unigraph.decomp import compact, compose_all, decompose, find_split_point
from unigraph.degseq import (
    BRIEF_CHARS,
    EMPTY,
    DegreeSequence,
    PairedDegreeSequence,
    brief,
    complement_paired,
    complement_seq,
    compose_seq,
    inverse_paired,
    is_graphical,
    normalize,
    parse_paired,
    parse_sequence,
    realize,
)
from unigraph.errors import FormatError, NegativeDegree, NotGraphical, TooLarge
from unigraph.graphcore import (
    Graph,
    VertexPartition,
    complement_graph,
    degree_sequence_of,
    inverse_graph,
)
from unigraph.params import unigraph_params
from unigraph.split import determine_split
from unigraph.unitype import is_unigraph

raw_degree_lists = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=max(n - 1, 0)), min_size=n, max_size=n
    )
)


def random_split_paired(rng, pmax=6, qmax=6):
    """Read a paired sequence off a random split graph."""
    p = rng.randint(0, pmax)
    q = rng.randint(0 if p else 1, qmax)
    kdeg = [p - 1] * p
    sdeg = [0] * q
    for i in range(p):
        for j in range(q):
            if rng.random() < 0.5:
                kdeg[i] += 1
                sdeg[j] += 1
    return PairedDegreeSequence(normalize_part(kdeg), normalize_part(sdeg))


def normalize_part(degs):
    runs = []
    for d in sorted(degs, reverse=True):
        if runs and runs[-1][0] == d:
            runs[-1][1] += 1
        else:
            runs.append([d, 1])
    return DegreeSequence(tuple((d, m) for d, m in runs))


run_lists = st.lists(st.integers(min_value=0, max_value=9), max_size=6).map(
    normalize_part
)


@st.composite
def random_graph_sequences(draw):
    """Degrees of a random graph on up to 2000 vertices; the complement's
    degrees for dense sequences on up to 300."""
    n = draw(st.integers(min_value=1, max_value=2000))
    rng = draw(st.randoms(use_true_random=False))
    deg = [0] * n
    edges = set()
    for _ in range(n * draw(st.integers(min_value=0, max_value=8)) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    s = normalize(deg)
    return complement_seq(s) if n <= 300 and draw(st.booleans()) else s


@st.composite
def threshold_sequences(draw):
    """Degrees of a threshold graph: each new vertex is isolated or joins
    every earlier vertex. These sit on the Erdos-Gallai boundary."""
    joins = draw(st.lists(st.booleans(), min_size=1, max_size=2000))
    n = len(joins)
    later = 0
    deg = [0] * n
    for v in range(n - 1, -1, -1):
        deg[v] = later + (v if joins[v] else 0)
        later += joins[v]
    return normalize(deg)


class TestNormalize:
    def test_fig1_tree(self):
        s = normalize([3, 1, 1, 2, 1])
        assert s.runs == ((3, 1), (2, 1), (1, 3))
        assert s.n == 5

    def test_empty(self):
        assert normalize([]) == DegreeSequence(())
        assert normalize([]).n == 0

    def test_c8(self):
        assert normalize([2] * 8).runs == ((2, 8),)

    def test_negative_rejected(self):
        with pytest.raises(NegativeDegree):
            normalize([2, -1])

    def test_degree_out_of_range_not_graphical(self):
        for raw in ([5], [1], [2, 1]):
            with pytest.raises(NotGraphical):
                normalize(raw)

    def test_iterator_input(self):
        assert normalize(iter([1, 1])).to_text() == "1^2"
        with pytest.raises(NegativeDegree):
            normalize(iter([2, -1]))

    @pytest.mark.parametrize("raw", [["a"], [1.5, 0.5], [[1]], [2, None]])
    def test_non_integer_entry_rejected(self, raw):
        with pytest.raises(FormatError):
            normalize(raw)

    def test_non_iterable_rejected(self):
        with pytest.raises(FormatError):
            normalize(None)

    def test_bool_entries_count_as_ints(self):
        s = normalize([True, True])
        assert s.to_text() == "1^2"
        assert type(s.runs[0][0]) is int

    @given(raw_degree_lists)
    def test_idempotent(self, raw):
        s = normalize(raw)
        assert normalize(s.to_list()) == s
        assert sorted(raw, reverse=True) == s.to_list()


class TestGraphical:
    def test_tree_sequence(self):
        assert is_graphical(parse_sequence("3,2,1^3"))

    def test_all_zero(self):
        for k in range(1, 6):
            assert is_graphical(parse_sequence(f"0^{k}"))

    def test_3331_not_graphical_by_enumeration(self):
        # independent route: no 4-vertex graph has degrees (3,3,3,1)
        target = (3, 3, 3, 1)
        found = False
        for bits in range(1 << 6):
            deg = [0] * 4
            e = 0
            for u in range(4):
                for v in range(u + 1, 4):
                    if bits >> e & 1:
                        deg[u] += 1
                        deg[v] += 1
                    e += 1
            if tuple(sorted(deg, reverse=True)) == target:
                found = True
        assert not found
        assert not is_graphical(parse_sequence("3,3,3,1"))

    @given(raw_degree_lists)
    @settings(max_examples=200)
    def test_matches_naive_reference(self, raw):
        from unigraph._kernel import reference

        vals, mults = reference._runs(raw)
        assert is_graphical(normalize(raw)) == reference.eg_graphical_naive(
            vals, mults
        )


class TestRealize:
    def test_perfect_matching(self):
        g = realize(parse_sequence("1^4"))
        assert g.m == 2
        assert sorted(len(a) for a in g.adj) == [1, 1, 1, 1]

    def test_c5(self):
        g = realize(parse_sequence("2^5"))
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert oracle.canonical_form(g) == oracle.canonical_form(c5)

    def test_fig1_tree(self):
        g = realize(parse_sequence("3,2,1^3"))
        tree = Graph.from_edges(5, [(0, 1), (2, 3), (4, 3), (1, 3)])
        assert oracle.canonical_form(g) == oracle.canonical_form(tree)

    def test_not_graphical(self):
        with pytest.raises(NotGraphical):
            realize(parse_sequence("3,3,3,1"))

    def test_deterministic(self):
        s = parse_sequence("4^2,3^2,2^3")
        assert realize(s).edges() == realize(s).edges()

    def test_degree_multiset_all_n_le_8(self, atlas8):
        from unigraph.verify import iter_graphical

        for s in iter_graphical(8):
            g = realize(s)
            assert degree_sequence_of(g) == s
            assert_realizes(g, s)

    @given(st.one_of(random_graph_sequences(), threshold_sequences()))
    @settings(max_examples=60, deadline=None)
    def test_random_graphical_up_to_2000(self, s):
        assert_realizes(realize(s), s)

    @pytest.mark.parametrize("text", ["1^20000", "3^20000"])
    def test_long_regular_sequences(self, text):
        # a quadratic realization takes tens of seconds on these
        s = parse_sequence(text)
        assert_realizes(realize(s), s)

    def test_size_guard_refuses_before_allocating(self):
        s = DegreeSequence(((1, 10**8),))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                realize(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5


def assert_realizes(g, s):
    """g is a simple graph in which vertex v has degree s.to_list()[v]."""
    assert [len(a) for a in g.adj] == s.to_list()
    for u, nbrs in enumerate(g.adj):
        assert u not in nbrs and len(set(nbrs)) == len(nbrs)
    assert Graph.from_edges(g.n, g.edges()) == g


class TestComplement:
    def test_5k2(self):
        assert complement_seq(parse_sequence("1^10")).to_text() == "8^10"

    def test_single_vertex(self):
        assert complement_seq(parse_sequence("0")).to_text() == "0"

    def test_paired_s3_instance(self):
        ps = parse_paired("4^3;2,1^4")
        assert complement_paired(ps).to_text() == "6^4,5;3^3"

    def test_paired_matches_graph_complement(self):
        # complementation of a realization gives the complement sequence
        rng = random.Random(5)
        for _ in range(50):
            ps = random_split_paired(rng)
            if ps.order == 0:
                continue
            merged = ps.merged()
            g = realize(merged)
            assert degree_sequence_of(complement_graph(g)) == complement_paired(
                ps
            ).merged()

    @given(raw_degree_lists)
    def test_involution(self, raw):
        s = normalize(raw)
        assert complement_seq(complement_seq(s)) == s

    def test_matches_graph_complement_exhaustively(self, atlas8):
        from unigraph.verify import iter_graphical

        for s in iter_graphical(7):
            g = realize(s)
            assert degree_sequence_of(complement_graph(g)) == complement_seq(s)


class TestInverse:
    def test_s22(self):
        assert inverse_paired(parse_paired("3^2;1^4")).to_text() == "4^4;2^2"

    def test_single_vertex_swaps(self):
        k1 = PairedDegreeSequence(DegreeSequence(((0, 1),)), DegreeSequence(()))
        s1 = PairedDegreeSequence(DegreeSequence(()), DegreeSequence(((0, 1),)))
        assert inverse_paired(k1) == s1
        assert inverse_paired(s1) == k1

    def test_fig4_tree_inverse(self):
        # (T, A, B) with A={b,d}: the drawn inverse has K-part degrees 3^3
        # and S-part degrees (2,1); the spec's stated (2^3;1,0) has odd sum
        ps = parse_paired("3,2;1^3")
        inv = inverse_paired(ps)
        assert inv.to_text() == "3^3;2,1"
        # cross-check against the graph-level inverse of the actual tree
        tree = Graph.from_edges(5, [(0, 1), (2, 3), (4, 3), (1, 3)])
        part = VertexPartition(frozenset({1, 3}), frozenset({0, 2, 4}))
        gi, _ = inverse_graph(tree, part)
        assert degree_sequence_of(gi) == inv.merged()

    def test_involution_random_split(self):
        rng = random.Random(9)
        for _ in range(200):
            ps = random_split_paired(rng)
            assert inverse_paired(inverse_paired(ps)) == ps


class TestCompose:
    def test_tree_over_c3(self):
        out = compose_seq(parse_paired("3,2;1^3"), parse_sequence("2^3"))
        assert out.to_text() == "6,5,4^3,1^3"

    def test_empty_tail_is_identity(self):
        ps = parse_paired("3,2;1^3")
        assert compose_seq(ps, DegreeSequence(())) == ps.merged()

    def test_inverse_s22_over_2k2(self):
        out = compose_seq(parse_paired("4^4;2^2"), parse_sequence("1^4"))
        assert out.to_text() == "8^4,5^4,2^2"

    def test_degree_sum_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            ps = random_split_paired(rng)
            tail = normalize(
                [len(a) for a in realize_random(rng, rng.randint(0, 6)).adj]
            )
            out = compose_seq(ps, tail)
            assert out.n == ps.order + tail.n
            assert (
                out.degree_sum
                == ps.merged().degree_sum + tail.degree_sum + 2 * ps.p * tail.n
            )

    @given(
        st.lists(st.tuples(run_lists, run_lists), max_size=3),
        run_lists,
    )
    def test_compose_all_is_union_of_shifted_blocks(self, parts, tail):
        # arbitrary pairs, most of which fail validate()
        heads = [PairedDegreeSequence(k, s) for k, s in parts]
        expect = tail.to_list()
        for h in reversed(heads):
            expect = (
                [d + len(expect) for d in h.kpart.to_list()]
                + [d + h.p for d in expect]
                + h.spart.to_list()
            )
        assert compose_all(heads, tail).to_list() == sorted(expect, reverse=True)
        for h in heads:
            union = h.kpart.to_list() + h.spart.to_list()
            assert h.merged().to_list() == sorted(union, reverse=True)
            assert compose_seq(h, tail) == compose_all((h,), tail)


def realize_random(rng, n):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return Graph.from_edges(n, edges)


class TestTextFormat:
    @pytest.mark.parametrize(
        "text", ["8^4,5^4,2^2", "3,2,1^3", "0", "-", "2^5", "9,7,6,4^5,1^2"]
    )
    def test_print_parse_round_trip(self, text):
        assert parse_sequence(text).to_text() == text

    @pytest.mark.parametrize("text", ["3,2;1^3", "0;-", "-;0", "4^4;2^2"])
    def test_paired_round_trip(self, text):
        assert parse_paired(text).to_text() == text

    def test_unsorted_input_canonicalized(self):
        assert parse_sequence("1^3,3,2").to_text() == "3,2,1^3"

    @pytest.mark.parametrize("bad", ["1,,2", "a", "2^", "^3", "1;2;3", "2^0"])
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            if ";" in bad:
                parse_paired(bad)
            else:
                parse_sequence(bad)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: is_graphical([1, 1]),
            lambda: decompose([1, 1]),
            lambda: find_split_point("3,3"),
            lambda: determine_split([1, 1]),
            lambda: is_unigraph("3,3"),
            lambda: unigraph_params([1, 1]),
            lambda: realize([1, 1]),
            lambda: DegreeSequence(((1, 0),)),
            lambda: DegreeSequence(((1, 1), (2, 1))),
            lambda: Graph.from_edges(2, [(0, 0)]),
            lambda: Graph.from_edges(2, [(0, 2)]),
            lambda: Graph.from_edges(2, [(0, 1, 1)]),
            lambda: Graph.from_edges(2, [("a", 1)]),
            lambda: PairedDegreeSequence.from_runs(((1, 2),), ((2, 1),)).validate(),
            lambda: compact([1]),
            lambda: complement_seq([1, 1]),
            lambda: compose_all([1], EMPTY),
        ],
        ids=[
            "is_graphical-list", "decompose-list", "find_split_point-text",
            "determine_split-list", "is_unigraph-text", "unigraph_params-list",
            "realize-list", "zero-multiplicity", "increasing-runs", "self-loop",
            "edge-out-of-range", "edge-triple", "edge-not-int",
            "validate-stable-degree", "compact-list", "complement_seq-list",
            "compose_all-int",
        ],
    )
    def test_bad_input_raises_format_error(self, call):
        # a ValueError too, for callers that catch that
        with pytest.raises(FormatError):
            call()

    @pytest.mark.parametrize(
        "call",
        [decompose, find_split_point, determine_split, is_unigraph, unigraph_params],
    )
    def test_error_message_is_bounded(self, call):
        # 10^4 runs, one odd degree sum: the full text has about 50 000 characters
        s = DegreeSequence(tuple((10**4 - i, 1) for i in range(9999)) + ((1, 2),))
        with pytest.raises(NotGraphical) as info:
            call(s)
        message = str(info.value)
        assert len(message) <= BRIEF_CHARS
        assert message.startswith("10000,9999,9998,")
        assert message.endswith(",... (n=10001, r=10000) is not graphical")

    def test_brief_keeps_short_text_and_bounds_long_text(self):
        short = parse_sequence("3,1")
        assert brief(short) == "3,1"
        long = DegreeSequence(tuple((150 - i, 1) for i in range(150)))
        with pytest.raises(NotGraphical, match=r"\(n=150, r=150\) is not graphical"):
            realize(long)
        paired = PairedDegreeSequence(long, short)
        assert brief(paired) == f"{brief(long)};3,1"
        assert len(brief(long)) <= BRIEF_CHARS

    def test_invalid_paired_structure(self):
        # stable-side degree above the clique size cannot be realized
        with pytest.raises(FormatError):
            parse_paired("1^2;2")

    @given(raw_degree_lists)
    def test_generic_round_trip(self, raw):
        s = normalize(raw)
        assert parse_sequence(s.to_text()) == s
