import time
from math import comb

import pytest

from unigraph import oracle
from unigraph.decomp import compact
from unigraph.degseq import complement_seq, parse_sequence, realize
from unigraph.errors import FormatError, NotGraphical, NotUnigraph, ParamOutOfRange
from unigraph.gen import GenSpec, compose_types, generate
from unigraph.params import (
    compact_typed,
    component_dist,
    component_fix,
    component_omega_alpha,
    core_params,
    unigraph_params,
)
from unigraph.unitype import (
    Base,
    TypedComponent,
    Variant,
    _dist_star_block,
    _min_colors_for_pairs,
    is_unigraph,
    match_split_type,
)


def T(variant, base, params, order):
    return TypedComponent(variant, base, params, order)


class TestComponentOmegaAlpha:
    def test_u3(self):
        assert component_omega_alpha(T(Variant.ORIGINAL, Base.U3, (1,), 6)) == (3, 3)

    def test_mk2_complement_swaps(self):
        assert component_omega_alpha(T(Variant.COMPLEMENT, Base.MK2, (5,), 10)) == (5, 2)

    def test_k1(self):
        assert component_omega_alpha(T(Variant.ORIGINAL, Base.K1, (), 1)) == (1, 1)

    def test_split_uses_variant_applied_parts(self):
        assert component_omega_alpha(T(Variant.ORIGINAL, Base.SPQ, (2, 2), 6)) == (2, 4)
        assert component_omega_alpha(T(Variant.INVERSE, Base.SPQ, (2, 2), 6)) == (4, 2)


class TestCoreParams:
    def test_composed_example(self):
        d, r = is_unigraph(parse_sequence("8^4,5^4,2^2"))
        assert core_params(d, r) == (6, 4, 6, 6)
        # oracle route on the 10-vertex realization
        g = realize(parse_sequence("8^4,5^4,2^2"))
        assert oracle.brute_params(g) == (6, 4, 6, 6)

    def test_c5(self):
        d, r = is_unigraph(parse_sequence("2^5"))
        assert core_params(d, r) == (2, 2, 3, 3)

    def test_edgeless(self):
        for k in (1, 4):
            d, r = is_unigraph(parse_sequence(f"0^{k}" if k > 1 else "0"))
            assert core_params(d, r) == (1, k, 0, 1)

    def test_rejects_non_unigraph(self):
        d, r = is_unigraph(parse_sequence("2^8"))
        with pytest.raises(NotUnigraph):
            core_params(d, r)
        with pytest.raises(NotUnigraph):
            unigraph_params(parse_sequence("2^8"))

    def test_chi_omega_gap_iff_c5_tail(self, atlas8):
        from unigraph.verify import iter_unigraphs

        for s in iter_unigraphs(7):
            d, r = is_unigraph(s)
            omega, _, _, chi = core_params(d, r)
            gap = chi - omega
            assert gap in (0, 1)
            tail_is_c5 = bool(r.component_types) and r.component_types[
                -1
            ].base is Base.C5
            assert (gap == 1) == tail_is_c5


class TestComponentFix:
    def test_table_values(self):
        assert component_fix(T(Variant.ORIGINAL, Base.U2, (1, 2), 5)) == 2
        assert component_fix(T(Variant.ORIGINAL, Base.SPQ, (1, 3), 6)) == 2
        assert component_fix(T(Variant.ORIGINAL, Base.S4, (1, 1), 9)) == 2
        assert component_fix(T(Variant.ORIGINAL, Base.C5, (), 5)) == 2
        assert component_fix(T(Variant.ORIGINAL, Base.MK2, (4,), 8)) == 4
        assert component_fix(T(Variant.ORIGINAL, Base.U3, (2,), 8)) == 3
        assert component_fix(T(Variant.ORIGINAL, Base.COMPLETE_BLOCK, (5,), 5)) == 4
        assert component_fix(T(Variant.ORIGINAL, Base.EMPTY_BLOCK, (3,), 3)) == 2

    def test_s4_oracle(self):
        g = realize(parse_sequence("7,5^3,2^5"))
        assert oracle.brute_fix(g) == 2

    def test_variant_ignored(self):
        a = component_fix(T(Variant.ORIGINAL, Base.SPQ, (2, 2), 6))
        b = component_fix(T(Variant.INVERSE, Base.SPQ, (2, 2), 6))
        c = component_fix(T(Variant.COMPLEMENT, Base.SPQ, (2, 2), 6))
        assert a == b == c == 2


class TestFixingNumber:
    def test_fig2_threshold(self):
        assert unigraph_params(parse_sequence("4^2,2^3")).fix == 3
        assert oracle.brute_fix(realize(parse_sequence("4^2,2^3"))) == 3

    def test_fig1_tree_rigid_up_to_leaf_swap(self):
        assert unigraph_params(parse_sequence("3,2,1^3")).fix == 1
        assert oracle.brute_fix(realize(parse_sequence("3,2,1^3"))) == 1

    def test_single_vertex(self):
        assert unigraph_params(parse_sequence("0")).fix == 0

    def test_repeated_head_adds_per_component(self):
        # spq(1,2) three times over C5: the matcher hands back one type
        # object for all three heads, and each still adds its fixing number
        from unigraph.decomp import compose_all
        from unigraph.degseq import parse_paired

        head = parse_paired("2^2;1^2")
        s = compose_all([head] * 3, parse_sequence("2^5"))
        d, r = is_unigraph(s)
        types = compact_typed(d, r)[1]
        assert types[0] is types[1] is types[2]
        ps = unigraph_params(s)
        assert ps.fix == sum(map(component_fix, types)) == 3 * 1 + 2
        assert ps.dist == max(map(component_dist, types)) == 3


def _recurring_shapes():
    """spq(1,2) and s2(2,1,1,1) heads, twice each, over an spq(2,2) tail:
    the heads' types come from the cached split matcher, and the tail's,
    one per sequence, from the uncached one."""
    from unigraph.decomp import compose_all
    from unigraph.degseq import parse_paired

    p4, tree = parse_paired("2^2;1^2"), parse_paired("3,2;1^3")
    return compose_all([p4, tree, p4, tree], parse_sequence("3^2,1^4"))


class TestPricedShapes:
    """unigraph_params keeps a matched type's fixing and distinguishing
    numbers on it, so a recurring shape is priced once."""

    def test_a_second_call_calls_no_catalog_price(self, monkeypatch):
        from unigraph import unitype

        calls = []

        def counted(name, entry):
            """A record's price entry, its calls counted."""
            if name not in ("fix", "dist", "stars") or entry is None:
                return entry

            def call(*prm):
                calls.append(name)
                return entry(*prm)

            return call

        # copies of the records, each entry passed in field order
        for base, f in list(unitype.CATALOG.items()):
            entries = [counted(name, getattr(f, name)) for name in f._fields]
            monkeypatch.setitem(unitype.CATALOG, base, unitype.Family(*entries))
        unitype.match_head.cache_clear()
        s = _recurring_shapes()
        _, r = is_unigraph(s)
        assert calls == [] and not any(hasattr(t, "_price") for t, _ in r.runs)
        first = unigraph_params(s)
        # three distinct split types, each priced once through its stars
        assert sorted(calls) == ["stars"] * 3
        calls.clear()
        # a fresh sequence is decomposed and matched again, to the same
        # types: the heads' cached objects, already priced, and a fresh
        # object for the tail, priced again
        fresh = type(s)(s.runs)
        again = unigraph_params(fresh)
        assert again == first and sorted(calls) == ["stars"]
        heads, tail = r.runs[:-1], r.runs[-1][0]
        fresh_runs = is_unigraph(fresh)[1].runs
        assert all(a is b for (a, _), (b, _) in zip(heads, fresh_runs[:-1]))
        assert fresh_runs[-1][0] == tail and fresh_runs[-1][0] is not tail
        assert (first.fix, first.dist) == (2 * 1 + 2 * 1 + 2, 2)

    def test_prices_leave_equality_hash_repr_and_pickle(self):
        import copy
        import pickle

        def state(x):
            """Every slot that is set, fields and marks alike."""
            return {k: getattr(x, k) for k in x.__slots__ if hasattr(x, k)}

        s = _recurring_shapes()
        unigraph_params(s)
        for t, _ in is_unigraph(s)[1].runs:
            assert t._price == (component_fix(t), component_dist(t))
            fresh = T(t.variant, t.base, t.params, t.order)
            assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
            # the price is the only state a priced type adds
            assert state(t) == {**state(fresh), "_price": t._price}
            for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t)):
                assert clone == t and hash(clone) == hash(t) and repr(clone) == repr(t)
                assert not hasattr(clone, "_price")


class TestThreads:
    """Classifying and pricing from many threads at once gives what one
    thread gives: the verdicts kept on shared sequences, the matcher's
    cached types and their prices are each written whole."""

    @staticmethod
    def _outcome(s):
        """Tags, report and parameters (None for a non-unigraph) of s, or
        the error it raises."""
        from unigraph.errors import UnigraphError

        try:
            _, r = is_unigraph(s)
        except UnigraphError as exc:
            return type(exc)
        return r.tags(), r, unigraph_params(s) if r.is_unigraph else None

    def test_eight_threads_agree_with_one(self):
        import sys
        import threading

        from unigraph import unitype

        texts = [
            compose_types(generate(GenSpec(n, k, seed))).to_text()
            for n, k, seed in [(60, 4, 7), (400, 20, 1), (40, 3, 7), (900, 60, 5)]
            + [(2000, 120, seed) for seed in range(8)]
        ] + ["8^3,5^6", "2^6", "3,1"]  # no unigraphs; the last not graphical
        expected = [self._outcome(parse_sequence(text)) for text in texts]
        verdicts = {e[1].is_unigraph if type(e) is tuple else e for e in expected}
        assert verdicts == {True, False, NotGraphical}
        # the threads race to the first match and the first price of a shape
        unitype.match_head.cache_clear()
        shared = [parse_sequence(text) for text in texts]
        results: dict = {}
        start = threading.Barrier(8)

        def work(i):
            try:
                start.wait(timeout=60)
                results[i] = [
                    (self._outcome(s), self._outcome(parse_sequence(text)))
                    for _ in range(3)
                    for s, text in zip(shared, texts)
                ]
            except Exception as exc:  # kept, so that the assertion shows it
                results[i] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == list(range(8))
        for got in results.values():
            assert got == [(e, e) for _ in range(3) for e in expected]


def _block_fix(p, q):
    """Fixing number of q stars with p leaves each, centres adjacent."""
    return q - 1 if p == 1 else q * (p - 1)


# The fixing and distinguishing numbers of the split families as closed
# forms over their parameters, kept as a reference: the catalog states each
# family's star blocks only.
SPLIT_PRICES = {
    Base.K1: (lambda: 0, lambda: 1),
    Base.S1: (lambda: 0, lambda: 1),
    Base.SPQ: (_block_fix, _dist_star_block),
    Base.S2: (
        lambda *prm: sum(map(_block_fix, prm[::2], prm[1::2])),
        lambda *prm: max(map(_dist_star_block, prm[::2], prm[1::2])),
    ),
    Base.S3: (
        lambda p, q1, q2: _block_fix(p, q1) + _block_fix(p + 1, q2),
        lambda p, q1, q2: max(_dist_star_block(p, q1), _dist_star_block(p + 1, q2)),
    ),
    Base.S4: (
        lambda p, q: _block_fix(p, 2) + _block_fix(p + 1, q),
        lambda p, q: max(_dist_star_block(p, 2), _dist_star_block(p + 1, q)),
    ),
}


class TestStarBlocks:
    def test_split_records_price_through_stars_only(self):
        from unigraph import unitype

        assert {f.base for f in unitype.SPLIT_FAMILIES} == set(SPLIT_PRICES)
        for f in unitype.SPLIT_FAMILIES:
            assert f.fix is None and f.dist is None and f.stars is not None, f.base
        for f in unitype.NON_SPLIT_FAMILIES + unitype.BLOCKS:
            assert f.stars is None and f.fix and f.dist, f.base

    def test_stars_price_as_the_closed_forms_orders_le_24(self):
        from unigraph import unitype

        checked = 0
        for order in range(1, 25):
            for f in unitype.SPLIT_FAMILIES:
                fix, dist = SPLIT_PRICES[f.base]
                for prm in f.candidates(order):
                    want = fix(*prm), dist(*prm)
                    assert f.price(*prm) == want, (f.base, prm)
                    t = T(Variant.ORIGINAL, f.base, prm, order)
                    assert (component_fix(t), component_dist(t)) == want, t
                    checked += 1
        assert checked > 1000, checked


class TestComponentDist:
    def test_small_values(self):
        assert component_dist(T(Variant.ORIGINAL, Base.C5, (), 5)) == 3
        assert component_dist(T(Variant.ORIGINAL, Base.MK2, (2,), 4)) == 3
        assert component_dist(T(Variant.ORIGINAL, Base.K1, (), 1)) == 1
        assert component_dist(T(Variant.ORIGINAL, Base.COMPLETE_BLOCK, (4,), 4)) == 4
        assert component_dist(T(Variant.ORIGINAL, Base.EMPTY_BLOCK, (6,), 6)) == 6

    def test_star_block_needs_center_color(self):
        # two colors suffice for three mutually adjacent pendant edges
        assert component_dist(T(Variant.ORIGINAL, Base.SPQ, (1, 3), 6)) == 2
        assert oracle.brute_dist(realize(parse_sequence("3^3,1^3"))) == 2

    def test_formula_sweep_all_orders_le_9(self, atlas8):
        # gate for every closed form: brute force over the whole catalog,
        # clique and independence numbers included
        from unigraph.degseq import DegreeSequence
        from unigraph.gen import components_of_order
        from unigraph.unitype import type_to_sequence

        checked = 0
        for order in range(1, 10):
            comps = list(components_of_order(order, split_only=False))
            comps.append(T(Variant.ORIGINAL, Base.COMPLETE_BLOCK, (order,), order))
            comps.append(T(Variant.ORIGINAL, Base.EMPTY_BLOCK, (order,), order))
            for t in comps:
                seq = type_to_sequence(t)
                if not isinstance(seq, DegreeSequence):
                    seq = seq.merged()
                g = realize(seq)
                assert component_dist(t) == oracle.brute_dist(g), t
                assert component_fix(t) == oracle.brute_fix(g), t
                assert component_omega_alpha(t) == oracle.brute_params(g)[:2], t
                checked += 1
        assert checked > 100


@pytest.mark.parametrize("fn", [component_fix, component_dist, component_omega_alpha])
@pytest.mark.parametrize(
    "bad",
    [
        None,
        "spq(p=1,q=2)",
        T(Variant.ORIGINAL, "spq", (1, 2), 4),
        T("original", Base.SPQ, (1, 2), 4),
        T(Variant.ORIGINAL, Base.SPQ, (1,), 4),
        T(Variant.ORIGINAL, Base.SPQ, (1, 2, 3), 4),
        T(Variant.ORIGINAL, Base.SPQ, [1, 2], 4),
        T(Variant.ORIGINAL, Base.SPQ, (1.0, 2), 4),
        T(Variant.ORIGINAL, Base.SPQ, (0, 2), 2),
        T(Variant.ORIGINAL, Base.SPQ, (1, 2), 99),
        T(Variant.ORIGINAL, Base.C5, (1,), 5),
        T(Variant.ORIGINAL, Base.S2, (2, 1, 2, 1), 6),
        T(Variant.ORIGINAL, Base.COMPLETE_BLOCK, (0,), 0),
        T(Variant.ORIGINAL, Base.EMPTY_BLOCK, (), 3),
    ],
)
def test_component_params_reject_bad_types(fn, bad):
    # public per-component functions validate against the catalog record
    with pytest.raises(ParamOutOfRange):
        fn(bad)


def _verdict():
    return is_unigraph(parse_sequence("3,2,1^3"))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: core_params(None, None), FormatError),
        (lambda: core_params(_verdict()[0], None), FormatError),
        (lambda: compact_typed(None, None), FormatError),
        (lambda: compact_typed(_verdict()[0], "report"), FormatError),
    ],
    ids=[
        "core-none", "core-no-report", "compact-none", "compact-text-report",
    ],
)
def test_verdict_params_reject_bad_arguments(call, error):
    # the public functions over a verdict raise only UnigraphError subclasses
    with pytest.raises(error):
        call()


def min_colors_loop(m):
    d = 1
    while d * (d - 1) // 2 < m:
        d += 1
    return d


def dist_star_loops(p, qmax):
    """The counting loop for q = 0..qmax, each q resuming from the previous
    answer, which never falls as q rises."""
    d = p
    for q in range(qmax + 1):
        while d * comb(d, p) < q:
            d += 1
        yield d


class TestClosedForms:
    """The closed-form helpers against the counting loops they replaced."""

    def test_min_colors_for_pairs(self):
        for m in range(10**4 + 1):
            assert _min_colors_for_pairs(m) == min_colors_loop(m), m

    def test_dist_star_block(self):
        for p in range(13):
            for q, d in enumerate(dist_star_loops(p, 10**4)):
                assert _dist_star_block(p, q) == d, (p, q)

    @pytest.mark.parametrize(
        "text, dist",
        [
            # spq(p=1, q=10^12): the least d with d^2 >= 10^12
            ("1000000000000^1000000000000,1^1000000000000", 10**6),
            # 10^12 disjoint edges: the least d with C(d, 2) >= 10^12
            ("1^2000000000000", 1414215),
        ],
    )
    def test_huge_blocks_take_no_loop(self, text, dist):
        s = parse_sequence(text)
        assert unigraph_params(s).dist == dist
        start = time.perf_counter()
        unigraph_params(s)
        # the counting loops took over 100 ms here
        assert time.perf_counter() - start < 0.02


class TestDistinguishingNumber:
    def test_edgeless(self):
        for k in (2, 5):
            s = parse_sequence(f"0^{k}")
            _, types = compact_typed(*is_unigraph(s))
            # the whole graph compacts to one stable-side block
            assert [t.tag() for t in types] == [f"empty(m={k})"]
            assert unigraph_params(s).dist == k

    def test_fig2_threshold(self):
        assert unigraph_params(parse_sequence("4^2,2^3")).dist == 3
        assert oracle.brute_dist(realize(parse_sequence("4^2,2^3"))) == 3

    def test_rigid_single_vertex(self):
        # the one rigid unigraph: every multi-vertex catalog family has a
        # non-trivial automorphism, and a single-vertex tail always merges
        # with a same-type neighbor in the compact form
        ps = unigraph_params(parse_sequence("0"))
        assert (ps.dist, ps.fix) == (1, 0)

    def test_asymmetric_tree_matches_oracle(self):
        ps = unigraph_params(parse_sequence("4,3,1^5"))
        g = realize(parse_sequence("4,3,1^5"))
        assert ps.fix == oracle.brute_fix(g)
        assert ps.dist == oracle.brute_dist(g)


def compact_types_by_blocks(d, r):
    """The compact entries' types derived from the blocks themselves: block
    types per single-vertex run, the split matcher per multi-vertex entry
    and the report's tail type."""
    cd = compact(d)
    types = []
    for comp in cd.components:
        if not comp.kpart.runs:
            m = comp.q
            types.append(
                T(Variant.ORIGINAL, Base.S1, (), 1)
                if m == 1
                else T(Variant.ORIGINAL, Base.EMPTY_BLOCK, (m,), m)
            )
        elif not comp.spart.runs:
            m = comp.p
            types.append(
                T(Variant.ORIGINAL, Base.K1, (), 1)
                if m == 1
                else T(Variant.ORIGINAL, Base.COMPLETE_BLOCK, (m,), m)
            )
        else:
            types.append(match_split_type(comp))
    if cd.tail.n:
        types.append(r.runs[-1][0])
    return cd, tuple(types)


class TestCompactTyped:
    def check(self, s):
        d, r = is_unigraph(s)
        assert r.is_unigraph, s
        assert compact_typed(d, r) == compact_types_by_blocks(d, r), s

    def test_every_unigraph_up_to_8(self):
        from unigraph.verify import iter_unigraphs

        for s in iter_unigraphs(8):
            self.check(s)

    def test_generated(self):
        for seed in range(20):
            self.check(compose_types(generate(GenSpec(10**4, 100, seed=seed))))


class TestInvarianceAndExhaustive:
    def test_complement_invariance(self, atlas8):
        from unigraph.verify import iter_unigraphs

        for s in iter_unigraphs(7):
            if s.n == 0:
                continue
            ps = unigraph_params(s)
            pc = unigraph_params(complement_seq(s))
            assert (ps.fix, ps.dist) == (pc.fix, pc.dist), s

    def test_params_match_oracle(self, atlas8):
        from unigraph.verify import verify_params

        assert list(verify_params(8)) == []

    def test_fixdist_match_oracle(self, atlas8):
        from unigraph.verify import verify_fixdist

        assert list(verify_fixdist(7)) == []

    def test_params_json_shape(self):
        ps = unigraph_params(parse_sequence("2^5"))
        assert ps.to_dict() == {
            "omega": 2,
            "alpha": 2,
            "beta": 3,
            "chi": 3,
            "fix": 2,
            "dist": 3,
            "perfect": False,
        }
