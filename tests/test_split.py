import pytest

from unigraph import oracle
from unigraph.degseq import parse_sequence
from unigraph.errors import NotGraphical
from unigraph.split import SplitKind, _durfee, determine_split


def is_split_realizable(masks: tuple[int, ...]) -> bool:
    """Exhaustive clique/stable bipartition test of the graph with these
    neighbor bitmasks."""
    n = len(masks)
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


class TestDetermineSplit:
    def test_kinds_are_the_three_verdicts(self):
        assert [k.value for k in SplitKind] == ["balanced", "k-max", "not-split"]

    def test_fig1_tree_balanced(self):
        sc = determine_split(parse_sequence("3,2,1^3"))
        assert sc.kind is SplitKind.BALANCED
        assert sc.paired.to_text() == "3,2;1^3"

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_complete_graph_kmax(self, n):
        sc = determine_split(parse_sequence(f"{n - 1}^{n}" if n > 1 else "0"))
        assert sc.kind is SplitKind.KMAX
        assert sc.paired.p == n and sc.paired.q == 0

    def test_c5_not_split(self):
        sc = determine_split(parse_sequence("2^5"))
        assert sc.kind is SplitKind.NOT_SPLIT
        assert sc.paired is None

    def test_edgeless_kmax(self):
        sc = determine_split(parse_sequence("0^4"))
        assert sc.kind is SplitKind.KMAX
        assert (sc.paired.p, sc.paired.q) == (1, 3)

    def test_not_graphical_raises(self):
        with pytest.raises(NotGraphical):
            determine_split(parse_sequence("3,3,3,1"))

    def test_durfee_examples(self):
        # (largest i with d_i >= i - 1, d_1 + ... + d_i)
        assert _durfee(parse_sequence("3,2,1^3").runs) == (2, 5)
        assert _durfee(parse_sequence("4^5").runs) == (5, 20)
        assert _durfee(parse_sequence("0^3").runs) == (1, 0)
        assert _durfee(parse_sequence("-").runs) == (0, 0)


class TestAgainstOracle:
    def test_split_iff_some_realization_splits(self, atlas8):
        # splitness is a property of the sequence: every realization agrees
        from unigraph.verify import iter_graphical

        for s in iter_graphical(8):
            if s.n == 0:
                continue
            sc = determine_split(s)
            reals = atlas8.atlas_by_sequence(s.n)[s.runs]
            verdicts = {is_split_realizable(m) for m in reals}
            assert len(verdicts) == 1
            assert (sc.kind is not SplitKind.NOT_SPLIT) == verdicts.pop()

    def test_paired_invariants_when_split(self, atlas8):
        from unigraph.verify import iter_graphical

        for s in iter_graphical(8):
            sc = determine_split(s)
            if sc.paired is None:
                continue
            ps = sc.paired
            assert ps.merged() == s
            if ps.kpart.runs:
                assert ps.kpart.runs[-1][0] >= ps.p - 1
            if ps.spart.runs:
                assert ps.spart.runs[0][0] <= ps.p

    def test_balanced_partition_sizes_are_extremal(self, atlas8):
        # balanced: |K| = omega and |S| = alpha of any realization
        from unigraph.verify import iter_graphical

        for s in iter_graphical(7):
            sc = determine_split(s)
            if sc.kind is not SplitKind.BALANCED:
                continue
            g = atlas8.graph_of(atlas8.atlas_by_sequence(s.n)[s.runs][0])
            omega, alpha, _, _ = oracle.brute_params(g)
            assert (sc.paired.p, sc.paired.q) == (omega, alpha)

    def test_kmax_partition_sizes(self, atlas8):
        # K-max: |K| = omega and |S| = alpha - 1, and a clique vertex of
        # degree omega - 1, which can move to the stable side
        from unigraph.verify import iter_graphical

        for s in iter_graphical(7):
            if s.n == 0:
                continue
            sc = determine_split(s)
            if sc.kind is not SplitKind.KMAX:
                continue
            g = atlas8.graph_of(atlas8.atlas_by_sequence(s.n)[s.runs][0])
            omega, alpha, _, _ = oracle.brute_params(g)
            assert (sc.paired.p, sc.paired.q) == (omega, alpha - 1)
            assert sc.paired.kpart.runs[-1][0] == omega - 1
