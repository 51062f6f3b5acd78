import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import unigraph
from unigraph import oracle
from unigraph.decomp import (
    K1,
    S1,
    Decomposition,
    compact,
    compose_all,
    decompose,
)
from unigraph.degseq import (
    DegreeSequence,
    PairedDegreeSequence,
    parse_paired,
    parse_sequence,
)
from unigraph.errors import FormatError, NotGraphical, TooLarge
from unigraph.gen import GenSpec, compose_types, generate
from unigraph.graphcore import degree_sequence_of


def first_cut(s):
    """The (p, q) cut of the first strip of s, or None when s is
    indecomposable: the orders of the first run's component."""
    runs = decompose(s).runs
    return (runs[0][0].p, runs[0][0].q) if runs else None


class TestFindSplitPoint:
    def test_threshold_dominant_first(self):
        assert first_cut(parse_sequence("4^2,2^3")) == (1, 0)

    def test_c5_indecomposable(self):
        assert first_cut(parse_sequence("2^5")) is None

    def test_tree_over_c3(self):
        assert first_cut(parse_sequence("6,5,4^3,1^3")) == (2, 3)

    def test_not_graphical_raises(self):
        # a dominant vertex heads 3,3,3,1, but no graph has these degrees
        with pytest.raises(NotGraphical):
            first_cut(parse_sequence("3,3,3,1"))

    def test_isolated_before_dominant(self):
        # lexicographic rule: p=0 cuts precede p=1 cuts
        assert first_cut(parse_sequence("2^3,0")) == (0, 1)

    def test_prop54_specializations(self):
        # trailing zero degree -> (0,1); full degree -> (1,0)
        rng = random.Random(1)
        for _ in range(200):
            s = random_graphical(rng, rng.randint(2, 9))
            cut = first_cut(s)
            degs = s.to_list()
            if degs[-1] == 0:
                assert cut == (0, 1)
            elif degs[0] == s.n - 1:
                assert cut == (1, 0)


class TestDecompose:
    def test_fig2_threshold(self):
        d = decompose(parse_sequence("4^2,2^3"))
        assert list(d.components) == [K1, K1, S1, S1]
        assert d.tail.to_text() == "0"

    def test_indecomposable_is_pure_tail(self):
        for text in ["2^5", "1^4", "3,1^9", "2^2,1^2"]:
            d = decompose(parse_sequence(text))
            assert d.components == ()
            assert d.tail == parse_sequence(text)

    def test_s22_inverse_over_2k2(self):
        d = decompose(parse_sequence("8^4,5^4,2^2"))
        assert [c.to_text() for c in d.components] == ["4^4;2^2"]
        assert d.tail.to_text() == "1^4"

    def test_not_graphical(self):
        with pytest.raises(NotGraphical):
            decompose(parse_sequence("3,3,3,1"))

    def test_single_vertex_runs_are_maximal(self, atlas8):
        from unigraph.verify import iter_graphical

        assert decompose(parse_sequence("4^2,2^3")).runs == ((K1, 2), (S1, 2))
        for s in iter_graphical(8):
            d = decompose(s)
            for (a, _), (b, _) in zip(d.runs, d.runs[1:]):
                assert not (a == b and a.order == 1), s
            assert d.n == s.n

    def test_empty_and_single(self):
        d = decompose(parse_sequence("-"))
        assert d.components == () and d.tail.n == 0
        d = decompose(parse_sequence("0"))
        assert d.components == () and d.tail.to_text() == "0"

    def test_heads_are_indecomposable(self, atlas8):
        from unigraph.verify import iter_graphical

        for s in iter_graphical(8):
            d = decompose(s)
            for c in d.components:
                assert decompose(c.merged()).runs == (), (s, c)
            if d.tail.n:
                assert decompose(d.tail).runs == ()


class TestComposeAll:
    def test_round_trip_threshold(self):
        s = parse_sequence("4^2,2^3")
        d = decompose(s)
        assert compose_all(d.components, d.tail) == s

    def test_dominant_over_c5(self):
        out = compose_all([K1], parse_sequence("2^5"))
        assert out.to_text() == "5,3^5"

    def test_blocks_over_empty_tail(self):
        comps = [parse_paired("2^3;-"), parse_paired("-;0^4")]
        out = compose_all(comps, DegreeSequence(()))
        assert out.to_text() == "6^3,3^4"
        # oracle route: compose realizations and read the degrees
        from unigraph.graphcore import Graph, VertexPartition, compose_graphs

        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        e4 = Graph.from_edges(4, [])
        g = compose_graphs(
            k3, VertexPartition(frozenset({0, 1, 2}), frozenset()), e4
        )
        assert degree_sequence_of(g) == out

    def test_round_trip_all_small(self, atlas8):
        from unigraph.verify import verify_roundtrip

        assert list(verify_roundtrip(8)) == []


class TestCanonicity:
    def test_regrouped_compositions_decompose_identically(self):
        # any composition of indecomposable pieces is the canonical one
        rng = random.Random(23)
        for _ in range(300):
            k = rng.randint(1, 4)
            n = rng.randint(k, 9)
            if n - k in (1, 2):
                n = k
            comps = generate(GenSpec(n=n, k=k, seed=rng.randrange(10**6)))
            seq = compose_types(comps)
            d = decompose(seq)
            assert len(d.components) + 1 == k
            assert compose_all(d.components, d.tail) == seq

    def test_cut_points_match_naive_on_random_graphs(self):
        from unigraph._kernel import reference

        rng = random.Random(4)
        for _ in range(300):
            s = random_graphical(rng, rng.randint(0, 11))
            assert first_cut(s) == reference.split_point_naive(s.runs)


class TestCompact:
    def test_fig2(self):
        cd = compact(decompose(parse_sequence("4^2,2^3")))
        assert [c.to_text() for c in cd.components] == ["1^2;-", "-;0^3"]
        assert [m for _, m in cd.runs] == [1, 1]
        assert cd.tail == DegreeSequence(())

    def test_worked_example_seven_singles(self):
        comps = [S1, K1, K1, K1, S1, S1, S1]
        seq = compose_all(comps, parse_sequence("0"))
        cd = compact(decompose(seq))
        assert [c.to_text() for c in cd.components] == ["-;0", "2^3;-", "-;0^4"]
        assert cd.tail == DegreeSequence(())

    def test_no_single_vertex_components_unchanged(self):
        d = decompose(parse_sequence("8^4,5^4,2^2"))
        cd = compact(d)
        assert [c.to_text() for c in cd.components] == ["4^4;2^2"]
        assert cd.tail == d.tail

    def test_lone_vertex_is_complete_block(self):
        cd = compact(decompose(parse_sequence("0")))
        assert [c.to_text() for c in cd.components] == ["0;-"]
        assert cd.tail == DegreeSequence(())

    def test_single_tail_after_multivertex_head_stays_stable_side(self):
        # S1 o S(2,2)^I o single vertex, as in the fifth worked example
        d = decompose(parse_sequence("7^4,6,5,3^3,0"))
        cd = compact(d)
        assert [c.to_text() for c in cd.components] == ["-;0", "6^4,5;3^3", "-;0"]

    def test_block_runs_alternate(self, atlas8):
        from unigraph.verify import iter_graphical

        for s in iter_graphical(7):
            cd = compact(decompose(s))
            kinds = []
            for c in cd.components:
                if not c.kpart.runs:
                    kinds.append("s")
                elif not c.spart.runs:
                    kinds.append("k")
                else:
                    kinds.append("big")
            for a, b in zip(kinds, kinds[1:]):
                assert not (a == b and a in ("k", "s"))


class TestLargeScale:
    def test_fuzz_round_trip_large(self):
        rng = random.Random(99)
        for trial in range(300):
            n = rng.randint(10, 10**6)
            k = rng.randint(1, 30)
            if n < k or n - k in (1, 2):
                continue
            comps = generate(GenSpec(n=n, k=k, seed=trial))
            seq = compose_types(comps)
            d = decompose(seq)
            assert compose_all(d.components, d.tail) == seq
            assert len(d.components) + 1 == k

    def test_huge_multiplicities(self):
        # complete and edgeless graphs on a million vertices
        n = 10**6
        d = decompose(DegreeSequence(((n - 1, n),)))
        assert len(d.components) == n - 1 and d.components[0] == K1
        assert d.tail.to_text() == "0"
        assert len(d.runs) == 1 and d.n == n
        d = decompose(DegreeSequence(((0, n),)))
        assert len(d.components) == n - 1 and d.components[0] == S1
        assert len(d.runs) == 1 and d.n == n

    def test_per_strip_lists_refuse_past_realize_max(self):
        # K_{10^7 + 2}: the runs stay two entries, the strip lists are refused
        from unigraph.params import unigraph_params
        from unigraph.unitype import is_unigraph

        s = parse_sequence("10000001^10000002")
        d, r = is_unigraph(s)
        assert [m for _, m in d.runs] == [10**7 + 1] and d.n == 10**7 + 2
        with pytest.raises(TooLarge):
            d.components
        with pytest.raises(TooLarge):
            r.component_types
        with pytest.raises(TooLarge):
            r.tags()
        ps = unigraph_params(s)
        assert (ps.omega, ps.alpha, ps.fix, ps.dist) == (10**7 + 2, 1, 10**7 + 1, 10**7 + 2)


class TestKernelRecords:
    """decompose keeps the kernel's records; the component objects are
    built on the first read of ``runs``, and the verdict and parameters
    never read them."""

    # two K1 runs, a head, an S1 run and a C5 tail
    SEQ = compose_all([K1, K1, parse_paired("2^2;1^2"), S1, S1], parse_sequence("2^5"))

    def test_verdict_and_params_build_no_head(self, monkeypatch):
        from unigraph.params import unigraph_params
        from unigraph.unitype import is_unigraph

        s = compose_types(generate(GenSpec(n=3200, k=200, seed=7)))
        built = 0
        trusted = PairedDegreeSequence._trusted.__func__
        init = PairedDegreeSequence.__init__

        def counted_trusted(cls, kpart, spart):
            nonlocal built
            built += 1
            return trusted(cls, kpart, spart)

        def counted_init(self, kpart, spart):
            nonlocal built
            built += 1
            init(self, kpart, spart)

        monkeypatch.setattr(PairedDegreeSequence, "_trusted", classmethod(counted_trusted))
        monkeypatch.setattr(PairedDegreeSequence, "__init__", counted_init)
        d, r = is_unigraph(s)
        ps = unigraph_params(s)
        assert r.is_unigraph and ps.beta == s.n - ps.alpha
        assert built == 0
        heads = sum(rec[0] == "head" for rec in d._records)
        runs = d.runs
        assert built == heads > 100
        assert d.runs is runs and built == heads

    def test_lazy_form_has_the_value_semantics_of_its_fields(self):
        lazy = decompose(self.SEQ)
        kinds = {rec[0] for rec in lazy._records}
        assert kinds == {"k1", "s1", "head", "tail"}
        assert "runs" not in vars(lazy)
        clone = pickle.loads(pickle.dumps(lazy))
        read = decompose(self.SEQ)
        read.runs, read.tail
        for x in (lazy, clone):
            assert x == read and not x != read and hash(x) == hash(read)
            assert repr(x) == repr(read)
            assert hash(x) == hash((read.runs, read.tail))

    def test_public_constructor_derives_the_records(self):
        d = decompose(self.SEQ)
        public = Decomposition(d.runs, d.tail)
        assert public._records == d._records
        assert (public.n, public._sides) == (d.n, d._sides) == (13, (4, 4))

    @pytest.mark.parametrize(
        "runs,tail",
        [
            (None, None),
            ((), None),
            (None, DegreeSequence(())),
            (((None, 1),), DegreeSequence(())),
            (((K1,),), DegreeSequence(())),
            (((K1, 0),), DegreeSequence(())),
            (((K1, 1.5),), DegreeSequence(())),
            (((PairedDegreeSequence.from_runs((), ()), 1),), DegreeSequence(())),
            (((PairedDegreeSequence.from_runs(((5, 1),), ()), 1),), DegreeSequence(())),
            (((parse_paired("2^2;1^2"), 2),), DegreeSequence(())),
        ],
    )
    def test_public_constructor_refuses_malformed_fields(self, runs, tail):
        # no sequence tail, not (component, count) pairs, an empty
        # component or count, a single vertex neither K1 nor S1, a
        # multi-vertex component repeated
        with pytest.raises(FormatError):
            Decomposition(runs, tail)

    def test_importing_params_matches_nothing(self):
        code = (
            "import unigraph.params, unigraph.unitype as u\n"
            "print(u.match_head.cache_info().currsize)\n"
        )
        src = str(Path(unigraph.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "0\n"


def random_graphical(rng, n):
    deg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                deg[u] += 1
                deg[v] += 1
    from unigraph.degseq import normalize

    return normalize(deg)
