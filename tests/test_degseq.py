import random
import re
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from itertools import repeat
from operator import add, mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unigraph import oracle
from unigraph.decomp import compact, compose_all, decompose
from unigraph.degseq import (
    BRIEF_CHARS,
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
    runs_order,
)
from unigraph.errors import (
    FormatError,
    Infeasible,
    NegativeDegree,
    NotGraphical,
    TooLarge,
)
from unigraph.gen import GenSpec, compose_types, generate
from unigraph.graphcore import (
    Graph,
    VertexPartition,
    complement_graph,
    compose_graphs,
    degree_sequence_of,
    inverse_graph,
)
from unigraph.params import unigraph_params
from unigraph.split import determine_split
from unigraph.unitype import is_unigraph, match_nonsplit_type, match_split_type

# the path 0-1-2, split with clique {1} and stable set {0, 2}
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
PATH3_PARTITION = VertexPartition(frozenset({1}), frozenset({0, 2}))

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


@st.composite
def dense_unigraph_sequences(draw):
    """A generated unigraph on up to 1500 vertices, complemented when it has
    fewer than half of all possible edges (a unigraph's complement is one)."""
    n = draw(st.integers(min_value=40, max_value=1500))
    k = draw(st.integers(min_value=1, max_value=12))
    try:
        s = compose_types(generate(GenSpec(n, k, draw(st.integers(0, 2**31 - 1)))))
    except Infeasible:
        assume(False)
    return complement_seq(s) if 2 * s.degree_sum < n * (n - 1) else s


@st.composite
def many_run_sequences(draw):
    """Degrees of a random graph on up to 400 vertices whose edge
    probabilities w_u * w_v spread the degrees, so most runs hold a few
    vertices."""
    n = draw(st.integers(min_value=1, max_value=400))
    rng = draw(st.randoms(use_true_random=False))
    w = [rng.random() for _ in range(n)]
    deg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < w[u] * w[v]:
                deg[u] += 1
                deg[v] += 1
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


class TestTrustedConstructor:
    def test_recognition_checks_no_run_twice(self, monkeypatch):
        # the kernel's runs are well formed by construction, so normalize
        # and decompose build their sequences without the checking __init__
        rng = random.Random(12)
        heads = [random_split_paired(rng) for _ in range(5)]
        tail = normalize([len(a) for a in realize_random(rng, 7).adj])
        raw = compose_all(heads, tail).to_list()
        rng.shuffle(raw)
        checked = 0
        init = DegreeSequence.__init__

        def counted(self, runs):
            nonlocal checked
            checked += 1
            init(self, runs)

        monkeypatch.setattr(DegreeSequence, "__init__", counted)
        s = normalize(raw)
        d, report = is_unigraph(s)
        assert checked == 0
        monkeypatch.undo()
        built = [s, d.tail]
        for c, _ in d.runs:
            built += [c.kpart, c.spart]
        assert len(d.runs) > 1 and d.tail.n > 1
        for part in built:
            assert DegreeSequence(part.runs) == part

    @pytest.mark.parametrize(
        "runs, error",
        [
            (((1, 1), (2, 1)), FormatError),
            (((2, 1), (2, 1)), FormatError),
            (((1, 0),), FormatError),
            (((1, 1), (-1, 2)), NegativeDegree),
        ],
    )
    def test_public_constructor_still_checks(self, runs, error):
        with pytest.raises(error):
            DegreeSequence(runs)

    @pytest.mark.parametrize("text", ["1^0", "2,-1"])
    def test_parse_sequence_still_checks(self, text):
        with pytest.raises(FormatError):
            parse_sequence(text)


class TestRunTuple:
    """``DegreeSequence.runs`` is a tuple of int pairs, which the kernel
    takes and returns as it is."""

    def test_tail_of_a_sequence_that_strips_nothing_is_its_runs(self):
        # 10^4 distinct degrees in [10^4, 2 10^4), four vertices each:
        # graphical by Zverovich-Zverovich, with no dominant or isolated
        # vertex and no Erdos-Gallai equality to cut at
        raw = random.Random(14).sample(range(10**4, 2 * 10**4), 10**4) * 4
        s = normalize(raw)
        assert len(s.runs) == 10**4
        d = decompose(s)
        assert d.runs == ()
        assert d.tail.runs is s.runs

    def test_well_formed_runs_are_kept_as_given(self):
        runs = ((3, 2), (1, 2))
        assert DegreeSequence(runs).runs is runs

    @pytest.mark.parametrize(
        "runs, text",
        [
            ([(2, 5)], "2^5"),
            ([[2, 5]], "2^5"),
            (([2, 5],), "2^5"),
            (((True, 5),), "1^5"),
        ],
    )
    def test_other_run_shapes_become_a_tuple_of_int_pairs(self, runs, text):
        s = DegreeSequence(runs)
        parsed = parse_sequence(text)
        assert s == parsed and hash(s) == hash(parsed)
        assert type(s.runs) is tuple and type(s.runs[0]) is tuple
        assert all(type(x) is int for x in s.runs[0])

    def test_list_runs_are_tagged_like_their_text(self):
        assert is_unigraph(DegreeSequence([[2, 5]]))[1].tags() == ["c5"]

    @pytest.mark.parametrize(
        "runs", [((2.5, 2),), ((1, 2.0),), "abc", None, ((1, 2, 3),)]
    )
    def test_non_integer_pairs_raise_format_error(self, runs):
        with pytest.raises(FormatError):
            DegreeSequence(runs)

    def test_negative_degree_still_raises_negative_degree(self):
        with pytest.raises(NegativeDegree):
            DegreeSequence(((-1, 1),))


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

        assert is_graphical(normalize(raw)) == reference.eg_graphical_naive(
            reference._runs(raw)
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

    def test_every_graphical_sequence_n_le_9(self):
        from unigraph.verify import iter_graphical

        for s in iter_graphical(9):
            assert_realizes(realize(s), s)

    @given(st.one_of(dense_unigraph_sequences(), many_run_sequences()))
    @settings(max_examples=30, deadline=None)
    def test_dense_and_many_run_sequences(self, s):
        assert_realizes_in_c(realize(s), s)

    def test_unigraphs_match_the_bucket_realization(self):
        # a unigraph has one realization up to isomorphism, so the run
        # realization and the bucket one must have the same canonical form
        from unigraph.verify import iter_unigraphs

        for s in iter_unigraphs(9):
            g, ref = realize(s), bucket_havel_hakimi(s)
            assert_realizes(ref, s)
            if g != ref:
                assert oracle.canonical_form(g) == oracle.canonical_form(ref)

    @pytest.mark.parametrize(
        "small, large",
        [("199^200", "399^400"), ("199^100,100^100", "399^200,200^200")],
        ids=["complete", "two-runs"],
    )
    def test_work_grows_with_n_not_with_m(self, small, large):
        # doubling n quadruples m; the bucket realization ran about 3.8
        # times the Python lines, since it moved every target vertex
        assert lines_run(realize, large) <= 2.5 * lines_run(realize, small)


@pytest.mark.parametrize(
    "read", [lambda g: g.to_edge_list(), lambda g: g.adj], ids=["edge-list", "adj"]
)
@pytest.mark.parametrize(
    "small, large",
    [("199^200", "399^400"), ("199^100,100^100", "399^200,200^200")],
    ids=["complete", "two-runs"],
)
def test_realized_forms_grow_with_n_not_with_m(read, small, large):
    # the Havel-Hakimi sweep takes O(1) lines per vertex, the lower-neighbour
    # pass O(1) per interval end, and the ids and names move in slices
    def run(s):
        read(realize(s))

    assert lines_run(run, large) <= 2.5 * lines_run(run, small)


def lines_run(fn, text):
    """Python line events while fn runs on the parsed text, in every frame
    it opens."""
    s = parse_sequence(text)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        fn(s)
    finally:
        sys.settrace(previous)
    return count


def bucket_havel_hakimi(s):
    """Havel-Hakimi with one stack of vertices per remaining degree, the
    realization that realize used before it worked on runs: O(n + m) steps
    and a sort of every neighbour list."""
    n = s.n
    top = s.runs[0][0] if s.runs else 0
    buckets = [[] for _ in range(top + 1)]
    end = 0
    for d, mult in s.runs:
        end += mult
        buckets[d] = list(range(end - 1, end - mult - 1, -1))
    adj = [[] for _ in range(n)]
    while top:
        if not buckets[top]:
            top -= 1
            continue
        u = buckets[top].pop()
        need = d = top
        taken_from = []
        while need:
            bucket = buckets[d]
            if bucket:
                taken = bucket[-need:]
                del bucket[-need:]
                taken_from.append((d, taken))
                adj[u] += taken
                need -= len(taken)
            d -= 1
        for d, taken in taken_from:
            for v in taken:
                adj[v].append(u)
            if d > 1:
                buckets[d - 1] += taken
    return Graph.from_adjacency(adj)


def assert_realizes(g, s):
    """g is a simple graph in which vertex v has degree s.to_list()[v]."""
    assert [len(a) for a in g.adj] == s.to_list()
    for u, nbrs in enumerate(g.adj):
        assert u not in nbrs and len(set(nbrs)) == len(nbrs)
    assert Graph.from_edges(g.n, g.edges()) == g


def assert_realizes_in_c(g, s):
    """What assert_realizes checks, and that every neighbour tuple is
    sorted, with each edge handled in C rather than in a Python loop: the
    code u * n + v of every edge u < v, read from u's tuple, must equal the
    one read from v's."""
    n = g.n
    assert [len(a) for a in g.adj] == s.to_list()
    above, below = array("q"), array("q")
    for u, nbrs in enumerate(g.adj):
        assert list(nbrs) == sorted(set(nbrs)) and u not in nbrs
        i = bisect_left(nbrs, u)
        above.extend(map(add, repeat(u * n), nbrs[i:]))
        below.extend(map(add, map(mul, nbrs[:i], repeat(n)), repeat(u)))
    assert above == array("q", sorted(below))


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


class TestToList:
    def test_small(self):
        assert parse_sequence("3,1^3").to_list() == [3, 1, 1, 1]

    def test_size_guard_refuses_before_allocating(self):
        s = parse_sequence("1^100000000")
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                s.to_list()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5


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


_PER_PART_RUN = re.compile(r"^\s*(\d+)\s*(?:\^\s*(\d+)\s*)?$")


def per_part_runs(text):
    """The runs of ``text`` as the per-part parser that the one-scan
    ``parse_sequence`` replaced reads them: one regex match per part, then a
    merge through a dict and a sort. Raises FormatError where it did."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    merged = {}
    for part in text.split(","):
        m = _PER_PART_RUN.match(part)
        if not m:
            raise FormatError(f"bad degree run {part!r}")
        d, mult = int(m.group(1)), int(m.group(2) or 1)
        if mult < 1:
            raise FormatError(f"bad multiplicity in {text!r}")
        merged[d] = merged.get(d, 0) + mult
    return tuple(sorted(merged.items(), reverse=True))


# runs of digits (ASCII, Arabic-Indic, Devanagari, fullwidth), whitespace
# (ASCII, no-break, em space, a separator control) and the characters that
# int() or a whole-text scan might let through where a run must not
_TEXT_PIECES = ["0", "1", "2", "3", "7", "10", "\u0663", "\u0969", "\uff13",
                " ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "^", "+", "_", "-"]
_pad = st.text(alphabet=" \t\u00a0\u2003\x1c", max_size=2)
_number = st.text(alphabet="0123456789\u0663\u0969\uff13", min_size=1, max_size=3)
_run = st.tuples(
    _pad, _number, _pad, st.just("") | st.tuples(_pad, _number, _pad).map("".join)
).map(lambda t: t[0] + t[1] + t[2] + (t[3] and "^" + t[3]))
sequence_texts = (
    st.lists(st.lists(st.sampled_from(_TEXT_PIECES), max_size=6).map("".join), max_size=6)
    | st.lists(_run, max_size=6)
).map(",".join)


# texts whose parse error once quoted all of them: 10^5 parts after a zero
# multiplicity, a 100 001-character paired text that fails validation, and
# one malformed part of 10^5 characters
LONG_BAD_TEXTS = [
    (
        parse_sequence,
        "1^0," + ",".join(["1"] * 10**5),
        "bad multiplicity in '1^0,1,1",
    ),
    (
        parse_paired,
        ",".join(["3"] * 50000) + ";1",
        "invalid paired sequence '3,3,3",
    ),
    (parse_sequence, "x" * 10**5, "bad degree run 'xxx"),
]


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
            lambda: compose_all([1], DegreeSequence(())),
            lambda: compose_all(None, DegreeSequence(())),
            lambda: compose_all(5, DegreeSequence(())),
        ],
        ids=[
            "is_graphical-list", "decompose-list", "determine_split-list",
            "is_unigraph-text", "unigraph_params-list", "realize-list",
            "zero-multiplicity", "increasing-runs", "self-loop", "edge-out-of-range", "edge-triple", "edge-not-int",
            "validate-stable-degree", "compact-list", "complement_seq-list",
            "compose_all-int", "compose_all-none", "compose_all-not-iterable",
        ],
    )
    def test_bad_input_raises_format_error(self, call):
        # a ValueError too, for callers that catch that
        with pytest.raises(FormatError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: complement_paired("1;1"),
            lambda: inverse_paired("1;1"),
            lambda: match_split_type("x"),
            lambda: match_nonsplit_type("x"),
            lambda: degree_sequence_of("x"),
            lambda: complement_graph("x"),
            lambda: PairedDegreeSequence("a", "b").merged(),
            lambda: PairedDegreeSequence("a", "b").validate(),
            lambda: PairedDegreeSequence("a", "b").to_text(),
            lambda: PairedDegreeSequence("a", "b").order,
            lambda: inverse_graph(PATH3, None),
            lambda: inverse_graph(None, None),
            lambda: compose_graphs(PATH3, None, PATH3),
            lambda: compose_graphs(PATH3, PATH3_PARTITION, None),
        ],
        ids=[
            "complement_paired-text", "inverse_paired-text",
            "match_split_type-text", "match_nonsplit_type-text",
            "degree_sequence_of-text", "complement_graph-text",
            "merged-text-parts", "validate-text-parts", "to_text-text-parts",
            "order-text-parts", "inverse_graph-no-partition",
            "inverse_graph-no-graph", "compose_graphs-no-partition",
            "compose_graphs-no-tail",
        ],
    )
    def test_wrong_type_argument_raises_format_error(self, call):
        with pytest.raises(FormatError):
            call()

    @pytest.mark.parametrize(
        "call",
        [decompose, determine_split, is_unigraph, unigraph_params],
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

    @pytest.mark.parametrize(
        "parse, text, start",
        LONG_BAD_TEXTS,
        ids=["zero-multiplicity", "paired-validation", "bad-run"],
    )
    def test_parse_error_quotes_a_bounded_prefix(self, parse, text, start):
        with pytest.raises(FormatError) as info:
            parse(text)
        message = str(info.value)
        assert message.startswith(start)
        assert f"... ({len(text)} characters)" in message
        assert len(message) <= BRIEF_CHARS

    def test_parse_error_quotes_short_text_verbatim(self):
        with pytest.raises(FormatError, match=r"^bad multiplicity in '3,2\^0'$"):
            parse_sequence("3,2^0")
        with pytest.raises(FormatError, match=r"^bad degree run ' 2\^\^5'$"):
            parse_sequence("1, 2^^5")

    def test_invalid_paired_structure(self):
        # stable-side degree above the clique size cannot be realized
        with pytest.raises(FormatError):
            parse_paired("1^2;2")

    @given(raw_degree_lists)
    def test_generic_round_trip(self, raw):
        s = normalize(raw)
        assert parse_sequence(s.to_text()) == s

    @given(sequence_texts)
    @example(" 3 , 2 ^ 2 ,1")
    @example("1^3,3,2,3")
    @example("+3")
    @example("1_0")
    @example("3,,2")
    @example("3^")
    @example("3^2^1")
    @example("1^0")
    @example("3 4")
    @example("\u0663^\uff12,1")
    @example("-")
    @example("-,1")
    @example("0,\x1c0")
    def test_one_scan_matches_per_part_parser(self, text):
        # the one-scan parser gives the per-part parser's runs, or both refuse
        try:
            expect = per_part_runs(text)
        except FormatError:
            with pytest.raises(FormatError):
                parse_sequence(text)
        else:
            s = parse_sequence(text)
            assert s.runs == expect
            assert s.n == runs_order(expect)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter converts any number of digits",
    )
    @pytest.mark.parametrize("text", ["1" * 5000, "3^" + "1" * 5000, "2,1" + "0" * 5000])
    def test_number_past_int_digit_limit_is_format_error(self, text):
        with pytest.raises(FormatError, match="too many digits"):
            parse_sequence(text)

    def test_parse_memory_stays_linear_in_text(self):
        # 10^5 runs of about ten characters each; a whole-text regex of the
        # run grammar would keep backtracking state per run and peak near 60
        # bytes per character
        rng = random.Random(5)
        vals = sorted(rng.sample(range(10**6, 10**7), 10**5), reverse=True)
        text = ",".join(f"{d}^{rng.randint(2, 99)}" for d in vals)
        tracemalloc.start()
        try:
            s = parse_sequence(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s.runs) == 10**5
        assert peak < 30 * len(text)
