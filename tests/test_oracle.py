import itertools

import pytest

from unigraph import oracle
from unigraph.degseq import parse_paired, parse_sequence, realize
from unigraph.errors import NotGraphical, TooLarge
from unigraph.graphcore import (
    Graph,
    VertexPartition,
    compose_graphs,
    degree_sequence_of,
)
from unigraph.split import SplitKind, determine_split


class TestEnumerate:
    def test_single_edge(self):
        assert len(list(oracle.enumerate_realizations(parse_sequence("1^2")))) == 1

    def test_c5_labeled_count(self):
        # 5!/|Aut(C5)| = 120/10
        graphs = list(oracle.enumerate_realizations(parse_sequence("2^5")))
        assert len(graphs) == 12
        forms = {oracle.canonical_form(g) for g in graphs}
        assert len(forms) == 1

    def test_c8_has_three_classes(self):
        forms = {
            oracle.canonical_form(g)
            for g in oracle.enumerate_realizations(parse_sequence("2^8"))
        }
        assert len(forms) == 3

    def test_degrees_are_respected(self):
        s = parse_sequence("3,2,2,1")
        for g in oracle.enumerate_realizations(s):
            assert degree_sequence_of(g) == s

    def test_covers_all_degree_assignments(self):
        # n!/|Aut|: the count is over labeled graphs with the degree
        # multiset, not one fixed degree-to-vertex assignment
        assert len(list(oracle.enumerate_realizations(parse_sequence("3,1^3")))) == 4
        assert (
            len(list(oracle.enumerate_realizations(parse_sequence("2,1^2,0")))) == 12
        )

    def test_guards(self):
        with pytest.raises(TooLarge):
            next(oracle.enumerate_realizations(parse_sequence("2^11")))
        with pytest.raises(NotGraphical):
            list(oracle.enumerate_realizations(parse_sequence("3,3,3,1")))


class TestCanonicalForm:
    def test_c5_self_complementary(self):
        from unigraph.graphcore import complement_graph

        c5 = realize(parse_sequence("2^5"))
        assert oracle.canonical_form(c5) == oracle.canonical_form(complement_graph(c5))

    def test_k3_vs_p3(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert oracle.canonical_form(k3) != oracle.canonical_form(p3)

    def test_relabeling_invariance(self):
        tree = Graph.from_edges(5, [(0, 1), (2, 3), (4, 3), (1, 3)])
        for perm in itertools.permutations(range(5)):
            relabeled = Graph.from_edges(
                5, [(perm[u], perm[v]) for u, v in tree.edges()]
            )
            assert oracle.canonical_form(relabeled) == oracle.canonical_form(tree)

    def test_separates_same_degree_classes(self):
        forms = {
            oracle.canonical_form(oracle.graph_of(m))
            for m in oracle.atlas_by_sequence(8)[parse_sequence("2^8").runs]
        }
        assert len(forms) == 3


class TestCountClasses:
    def test_known_counts(self):
        assert oracle.count_isomorphism_classes(parse_sequence("2^8")) == 3
        assert oracle.count_isomorphism_classes(parse_sequence("2^5")) == 1
        assert oracle.count_isomorphism_classes(parse_sequence("3,2,1^3")) == 1

    def test_n9_falls_back_to_enumeration(self):
        assert oracle.count_isomorphism_classes(parse_sequence("1^2,0^7")) == 1
        # C5+K2, C4+P3, C3+P4 and P7, each plus two isolated vertices
        assert oracle.count_isomorphism_classes(parse_sequence("2^5,1^2,0^2")) == 4

    def test_guards(self):
        with pytest.raises(TooLarge):
            oracle.count_isomorphism_classes(parse_sequence("2^10"))
        with pytest.raises(NotGraphical):
            oracle.count_isomorphism_classes(parse_sequence("3,3,3,1"))


class TestAtlas:
    def test_counts_match_a000088(self, atlas8):
        counts = [len(oracle.graphs_with_n(n)) for n in range(9)]
        assert counts == [1, 1, 2, 4, 11, 34, 156, 1044, 12346]

    def test_atlas_sequences_agree_with_erdos_gallai(self, atlas8):
        # dual route: a sequence is graphical iff it has a realization
        for n in range(8 + 1):
            from_eg = {s.runs for s in oracle.graphical_sequences(n)}
            from_atlas = set(oracle.atlas_by_sequence(n))
            assert from_eg == from_atlas

    def test_atlas_vs_enumeration_class_counts(self, atlas8):
        for s in oracle.graphical_sequences(6):
            forms = {
                oracle.canonical_form(g) for g in oracle.enumerate_realizations(s)
            }
            assert len(forms) == len(oracle.atlas_by_sequence(6).get(s.runs, ()))


class TestAutomorphisms:
    def test_c5(self):
        auts = oracle.automorphisms(realize(parse_sequence("2^5")))
        assert len(auts) == 10

    def test_rigid(self):
        # triangle with a pendant on one corner and a 2-path on another
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (4, 5)])
        assert oracle.automorphism_count(g) == 1

    def test_fig2_threshold(self):
        g = realize(parse_sequence("4^2,2^3"))
        assert oracle.automorphism_count(g) == 12  # 2! * 3!

    def test_returned_maps_preserve_edges(self):
        g = realize(parse_sequence("3,2,2,2,1"))
        for pi in oracle.automorphisms(g):
            for u, v in g.edges():
                assert g.has_edge(pi(u), pi(v))

    def test_identity_always_present(self):
        g = realize(parse_sequence("2^2,1^2"))
        assert any(p.mapping == tuple(range(g.n)) for p in oracle.automorphisms(g))


class TestBruteParams:
    def test_c5(self):
        assert oracle.brute_params(realize(parse_sequence("2^5"))) == (2, 2, 3, 3)

    def test_complete_and_empty(self):
        assert oracle.brute_params(realize(parse_sequence("4^5"))) == (5, 1, 4, 5)
        assert oracle.brute_params(Graph.from_edges(4, [])) == (1, 4, 0, 1)

    def test_petersen_like_at_n12(self):
        # order-12 guard: complete bipartite K6,6
        g = Graph.from_edges(
            12, [(u, 6 + v) for u in range(6) for v in range(6)]
        )
        assert oracle.brute_params(g) == (2, 6, 6, 2)

    def test_guard(self):
        with pytest.raises(TooLarge):
            oracle.brute_params(Graph.from_edges(13, []))


class TestBruteFixDist:
    def test_fix_anchors(self):
        # cycles, matchings, stars, completes
        for n in range(3, 9):
            cyc = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            assert oracle.brute_fix(cyc) == 2
        for m in range(1, 5):
            mk2 = Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
            assert oracle.brute_fix(mk2) == m
        for ell in range(2, 8):
            star = Graph.from_edges(ell + 1, [(0, i) for i in range(1, ell + 1)])
            assert oracle.brute_fix(star) == ell - 1
        for n in range(2, 9):
            kn = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            assert oracle.brute_fix(kn) == n - 1

    def test_dist_anchors(self):
        p4 = realize(parse_sequence("2^2,1^2"))
        assert oracle.brute_dist(p4) == 2
        assert oracle.brute_dist(realize(parse_sequence("2^5"))) == 3
        for n in range(2, 8):
            kn = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            assert oracle.brute_dist(kn) == n
            assert oracle.brute_dist(Graph.from_edges(n, [])) == n

    def test_complete_and_empty_shortcut_agrees_with_the_search(self, monkeypatch):
        graphs = []
        for n in range(8):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs += [Graph.from_edges(n, edges), Graph.from_edges(n, [])]
        short = [(oracle.brute_fix(g), oracle.brute_dist(g)) for g in graphs]
        assert short == [(max(g.n - 1, 0), max(g.n, 1)) for g in graphs]
        monkeypatch.setattr(oracle, "_complete_or_empty", lambda masks: False)
        assert [(oracle.brute_fix(g), oracle.brute_dist(g)) for g in graphs] == short

    def test_dist_le_fix_plus_one(self, atlas8):
        for masks in oracle.graphs_with_n(6):
            g = oracle.graph_of(masks)
            assert oracle.brute_dist(g) <= oracle.brute_fix(g) + 1

    def test_no_group_is_kept(self, atlas8):
        # a group on n vertices holds up to n! permutations: the searches
        # keep none of them once they return
        import gc
        import tracemalloc

        from unigraph.verify import iter_unigraphs

        graphs = [realize(s) for s in iter_unigraphs(7)]
        for g in graphs:
            g.adj  # built on first read, then kept on the graph
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for g in graphs:
                oracle.brute_fix(g), oracle.brute_dist(g)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20, kept

    def test_guards(self):
        with pytest.raises(TooLarge):
            oracle.brute_fix(Graph.from_edges(10, []))
        with pytest.raises(TooLarge):
            oracle.brute_dist(Graph.from_edges(10, []))


class TestCrossingAutomorphisms:
    def test_crossings_require_swing_and_dominant_or_isolated(self):
        # in (G,A,B) o H an automorphism moves a head vertex into the tail
        # only when the head is unbalanced and H has a dominant or isolated
        # vertex
        cases = [
            ("3,2;1^3", "2^3"),  # balanced head: no crossings
            ("0;-", "1,1"),  # K1 over K2 = K3: crossings exist
            ("0;-", "2^3"),
            ("-;0", "1,1,0"),
            ("2^2;1^2", "0"),
        ]
        for head_text, tail_text in cases:
            head_ps = parse_paired(head_text)
            head = realize(head_ps.merged())
            p = head_ps.p
            # realize orders vertices by degree, so the clique side is the
            # first p ids exactly when the partition blocks are extremal
            part = VertexPartition(frozenset(range(p)), frozenset(range(p, head.n)))
            tail = realize(parse_sequence(tail_text))
            combined = compose_graphs(head, part, tail)
            crossings = [
                pi
                for pi in oracle.automorphisms(combined)
                if any(pi(v) >= head.n for v in range(head.n))
            ]
            if crossings:
                kind = determine_split(head_ps.merged()).kind
                assert kind is SplitKind.KMAX, head_text
                has_dominant = any(tail.degree(v) == tail.n - 1 for v in range(tail.n))
                has_isolated = any(tail.degree(v) == 0 for v in range(tail.n))
                assert has_dominant or has_isolated, tail_text

    def test_balanced_head_never_crosses(self):
        head = realize(parse_sequence("3,2,1^3"))
        part = VertexPartition(frozenset({0, 1}), frozenset({2, 3, 4}))
        tail = realize(parse_sequence("1^2"))
        combined = compose_graphs(head, part, tail)
        for pi in oracle.automorphisms(combined):
            assert all(pi(v) < 5 for v in range(5))


class TestAtlasCacheFile:
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        import pickle

        path = tmp_path / "atlas.pickle"
        monkeypatch.setenv("UNIGRAPH_ATLAS_CACHE", str(path))
        monkeypatch.setattr(oracle, "_atlas_cache", {})
        assert len(oracle.graphs_with_n(3)) == 4
        assert set(pickle.loads(path.read_bytes())["atlas"]) == {0, 1, 2, 3}

        def torn_dump(obj, fh):
            fh.write(pickle.dumps(obj)[:20])
            raise OSError("disk full")

        monkeypatch.setattr(oracle.pickle, "dump", torn_dump)
        monkeypatch.setattr(oracle, "_atlas_cache", {})
        assert len(oracle.graphs_with_n(4)) == 11
        stored = pickle.loads(path.read_bytes())
        assert set(stored["atlas"]) == {0, 1, 2, 3}
        assert [p.name for p in tmp_path.iterdir()] == ["atlas.pickle"]
