import random
from collections import Counter

import pytest

from unigraph import oracle, unitype
from unigraph.decomp import K1, compose_all, decompose
from unigraph.degseq import (
    DegreeSequence,
    complement_paired,
    complement_seq,
    compose_runs,
    inverse_paired,
    is_graphical,
    parse_paired,
    parse_sequence,
    realize,
    runs_order,
    transform_runs,
)
from unigraph.errors import ParamOutOfRange, VariantUndefined
from unigraph.unitype import (
    NON_SPLIT_FAMILIES,
    SPLIT_FAMILIES,
    SPLIT_VARIANTS,
    Base,
    TypedComponent,
    Variant,
    emit_runs,
    is_unigraph,
    match_nonsplit_runs,
    match_nonsplit_type,
    match_split_runs,
    match_split_type,
    type_to_sequence,
)

NON_SPLIT_BASES = frozenset(f.base for f in NON_SPLIT_FAMILIES)


def T(variant, base, params, order):
    return TypedComponent(variant, base, params, order)


def variant_of(x, v):
    """Variant v of a plain or paired sequence by the paper's sequence
    operations; the inverse complement complements first."""
    if v in (Variant.COMPLEMENT, Variant.INVERSE_COMPLEMENT):
        x = complement_seq(x) if isinstance(x, DegreeSequence) else complement_paired(x)
    if v in (Variant.INVERSE, Variant.INVERSE_COMPLEMENT):
        x = inverse_paired(x)
    return x


class TestApplyVariant:
    def test_c5_self_complementary(self):
        s = parse_sequence("2^5")
        assert complement_seq(s) == s

    def test_inverse_s22(self):
        ps = parse_paired("3^2;1^4")
        assert inverse_paired(ps).to_text() == "4^4;2^2"

    def test_original_identity(self):
        runs = parse_sequence("2^5").runs
        f = unitype.CATALOG[Base.C5]
        assert f.transform(Variant.ORIGINAL, runs) is runs

    def test_inverse_of_plain_sequence_undefined(self):
        with pytest.raises(VariantUndefined):
            emit_runs(T(Variant.INVERSE, Base.C5, (), 5))

    def test_inverse_complement_commutes(self):
        ps = parse_paired("3,2;1^3")
        assert inverse_paired(complement_paired(ps)) == complement_paired(
            inverse_paired(ps)
        )


class TestMatchNonSplit:
    def test_u2(self):
        t = match_nonsplit_type(parse_sequence("3,1^9"))
        assert t.tag() == "u2(m=3,l=3)" and t.order == 10

    def test_u3(self):
        assert match_nonsplit_type(parse_sequence("4,2^5")).tag() == "u3(m=1)"

    def test_c4_is_complement_mk2(self):
        assert match_nonsplit_type(parse_sequence("2^4")).tag() == "complement:mk2(m=2)"

    def test_c5_prefers_original(self):
        assert match_nonsplit_type(parse_sequence("2^5")).tag() == "c5"

    def test_no_match(self):
        assert match_nonsplit_type(parse_sequence("2^8")) is None
        assert match_nonsplit_type(parse_sequence("3^2,2^2,1^2")) is None

    def test_three_runs_fail_before_the_complement(self, monkeypatch):
        # every family has at most two runs, and so has its complement
        def boom(*args):
            raise AssertionError("complement_runs called")

        monkeypatch.setattr(unitype, "complement_runs", boom)
        for runs in (((3, 2), (2, 2), (1, 2)), ((4, 1), (3, 1), (2, 1), (1, 3))):
            assert match_nonsplit_runs(runs) is None


class TestMatchSplit:
    def test_fig1_tree_is_s2(self):
        t = match_split_type(parse_paired("3,2;1^3"))
        assert t.tag() == "s2(2,1,1,1)"

    def test_single_vertex_forms(self):
        assert match_split_type(parse_paired("0;-")).tag() == "k1"
        assert match_split_type(parse_paired("-;0")).tag() == "s1"

    def test_inverse_spq(self):
        t = match_split_type(parse_paired("4^4;2^2"))
        assert t.tag() == "inverse:spq(p=2,q=2)"

    def test_s3_and_s4(self):
        assert match_split_type(parse_paired("4^3;2,1^4")).tag() == "s3(p=1,q1=2,q2=1)"
        assert match_split_type(parse_paired("7,5^3;2^5")).tag() == "s4(p=1,q=1)"

    def test_no_match(self):
        # indecomposable split sequence with two realization classes
        assert match_split_type(parse_paired("4^2,3;2^2,1")) is None

    def test_run_counts_fitting_no_family_skip_every_transform(self, monkeypatch):
        # 3 clique runs over 2 stable runs, or 2 over 3 once a variant
        # swaps the sides, fit no split family
        calls = []
        for name in ("complement_runs", "transform_runs"):
            def counted(*args, _fn=getattr(unitype, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(unitype, name, counted)
        assert match_split_runs(((9, 1), (8, 1), (7, 2)), ((2, 1), (1, 3))) is None
        assert calls == []
        # one clique run over one stable run fits spq under every variant
        assert match_split_runs(((3, 2),), ((1, 4),)).tag() == "spq(p=2,q=2)"
        assert match_split_runs(((4, 4),), ((2, 2),)).tag() == "inverse:spq(p=2,q=2)"
        assert calls == ["transform_runs"]


def _trial_order_params(base, runs):
    """The parameters the trial-order matcher read off the runs of a
    variant, to be confirmed by emitting them."""
    ka, kb = runs
    if base in (Base.K1, Base.S1):
        return ()
    if base is Base.SPQ and len(ka) == len(kb) == 1:
        return kb[0][1] // ka[0][1], ka[0][1]
    if base is Base.S2 and len(ka) >= 2 and len(kb) == 1:
        k = sum(m for _, m in ka)
        return tuple(x for d, q in ka for x in (d - k + 1, q))
    if base is Base.S3 and len(ka) == 1 and len(kb) == 2:
        (d, r), (q1, _) = ka[0], kb[0]
        return d - r, q1, r - q1
    if base is Base.S4 and len(ka) == 2 and len(kb) == 1:
        d, r = ka[1]
        return d - r - 1, r - 2
    return None


def reference_split_match(kruns, sruns):
    """The trial-order split matcher: every split family under every
    variant, in the matcher's order, each transformed vertex by vertex and
    confirmed by the family's original runs."""
    order = runs_order(kruns) + runs_order(sruns)
    for v in SPLIT_VARIANTS:
        runs = per_vertex_variant(v, kruns, sruns)
        for f in SPLIT_FAMILIES:
            prm = _trial_order_params(f.base, runs)
            if prm is not None and f.valid(*prm) and f.runs(*prm) == runs:
                return TypedComponent(v, f.base, prm, order)
    return None


def _side(degrees):
    return tuple(sorted(Counter(degrees).items(), reverse=True))


def per_vertex_variant(v, kruns, sruns):
    """(clique runs, stable runs) of variant v of a split component, vertex
    by vertex as the paper defines the operations: the complement maps each
    degree to n - 1 - d and swaps the sides; the split inverse, applied
    after it, drops p - 1 from each clique degree, adds q - 1 to each stable
    one and swaps the sides."""
    k = [d for d, m in kruns for _ in range(m)]
    s = [d for d, m in sruns for _ in range(m)]
    if v in (Variant.COMPLEMENT, Variant.INVERSE_COMPLEMENT):
        n = len(k) + len(s)
        k, s = [n - 1 - d for d in s], [n - 1 - d for d in k]
    if v in (Variant.INVERSE, Variant.INVERSE_COMPLEMENT):
        p, q = len(k), len(s)
        k, s = [d + q - 1 for d in s], [d - (p - 1) for d in k]
    return _side(k), _side(s)


def random_split_sequence(rng, p, q):
    """The degree sequence of a random split graph: a clique of p vertices
    and q stable ones, each joined to a random nonempty proper subset of
    the clique."""
    clique = [p - 1] * p
    stable = []
    for _ in range(q):
        neighbours = rng.sample(range(p), rng.randint(1, p - 1))
        for u in neighbours:
            clique[u] += 1
        stable.append(len(neighbours))
    return DegreeSequence(_side(clique + stable))


def split_candidates(max_order):
    """(family, params) of every split catalog type up to max_order, read
    off the families' candidate lists, which no variant enters."""
    return [
        (f, prm)
        for order in range(1, max_order + 1)
        for f in SPLIT_FAMILIES
        for prm in f.candidates(order)
    ]


class TestVariantTable:
    """degseq.side_maps is the one table of the four variants; each of its
    readers must agree with the per-vertex definition."""

    def test_transform_runs_is_the_per_vertex_variant(self):
        cands = split_candidates(24)
        assert len(cands) == 1622
        for f, prm in cands:
            runs = f.runs(*prm)
            for v in SPLIT_VARIANTS:
                want = per_vertex_variant(v, *runs)
                got = transform_runs(unitype.TRANSFORMS[v], *runs)
                assert got == want, (f.base, prm, v)
                assert f.emit(v, prm) == want, (f.base, prm, v)
        # SIDE_SWAPPING, read off the table, holds the variants whose clique
        # side is the original's stable side
        assert unitype.SIDE_SWAPPING == {Variant.INVERSE, Variant.COMPLEMENT}

    def test_compose_runs_applies_each_variant_as_pre_transformed_runs(self):
        rng = random.Random(7)
        cands = split_candidates(12)
        tails = [(), ((2, 5),), ((0, 3),), ((4, 1), (1, 4))]
        for _ in range(400):
            coded, plain = [], []
            for f, prm in rng.choices(cands, k=rng.randint(1, 4)):
                v = rng.choice(SPLIT_VARIANTS)
                runs = f.runs(*prm)
                coded.append((*runs, unitype.TRANSFORMS[v]))
                plain.append((*per_vertex_variant(v, *runs), 0))
            tail = rng.choice(tails)
            want = compose_runs(plain, tail)
            assert compose_runs(coded, tail) == want


def near_misses(kruns, sruns):
    """The graphical heads one unit of degree away: one vertex of a run
    gains a unit that one vertex of another run, on either side, loses."""
    sides = [[d for d, m in runs for _ in range(m)] for runs in (kruns, sruns)]
    # (side, position of the first vertex) of each run
    cells = [
        (side, sum(m for _, m in runs[:i]))
        for side, runs in enumerate((kruns, sruns))
        for i in range(len(runs))
    ]
    out = set()
    for a, i in cells:
        for b, j in cells:
            if (a, i) == (b, j) or sides[b][j] == 0:
                continue
            moved = [list(sides[0]), list(sides[1])]
            moved[a][i] += 1
            moved[b][j] -= 1
            if is_graphical(DegreeSequence(_side(moved[0] + moved[1]))):
                out.add((_side(moved[0]), _side(moved[1])))
    return out


class TestGatedSplitMatcher:
    """The split matcher reads each variant's signature off the end runs
    and tries only the family it fits; it must tag as the trial order
    does."""

    def test_agrees_with_trial_order_on_catalog_types_and_near_misses(self):
        heads = {
            f.emit(v, prm)
            for order in range(2, 25)
            for f in SPLIT_FAMILIES
            for prm in f.candidates(order)
            for v in f.variants
        }
        assert len(heads) == 6217
        misses = set().union(*(near_misses(*h) for h in heads)) - heads
        assert len(misses) > len(heads)
        for head in heads:
            t = match_split_runs(*head)
            assert t is not None and t == reference_split_match(*head), head
        for head in misses:
            assert match_split_runs(*head) == reference_split_match(*head), head

    def test_a_pool_miss_transforms_at_most_once(self, monkeypatch):
        from unigraph.gen import components_of_order

        pool = [t for order in range(1, 25) for t in components_of_order(order, True)]
        heads = [emit_runs(t) for t in pool]
        calls = []
        real = unitype.transform_runs
        monkeypatch.setattr(
            unitype, "transform_runs", lambda *a: calls.append(a[0]) or real(*a)
        )
        for t, head in zip(pool, heads):
            calls.clear()
            assert match_split_runs(*head) == t
            assert len(calls) <= 1, (t, calls)


class TestTypeToSequence:
    def test_u2_row(self):
        assert type_to_sequence(T(Variant.ORIGINAL, Base.U2, (3, 3), 10)).to_text() == "3,1^9"

    def test_spq_p4(self):
        got = type_to_sequence(T(Variant.ORIGINAL, Base.SPQ, (1, 2), 4))
        assert got.to_text() == "2^2;1^2"
        # P4 realization: oracle confirms the split form realizes a path
        g = realize(got.merged())
        assert oracle.canonical_form(g) == oracle.canonical_form(
            realize(parse_sequence("2^2,1^2"))
        )

    def test_s4_row(self):
        # table row at p=q=1 (the spec's worked value had an odd degree sum;
        # this one is oracle-confirmed, see tests below)
        got = type_to_sequence(T(Variant.ORIGINAL, Base.S4, (1, 1), 9))
        assert got.to_text() == "7,5^3;2^5"
        assert oracle.count_isomorphism_classes(got.merged()) == 1

    def test_param_bounds(self):
        for bad in [
            T(Variant.ORIGINAL, Base.MK2, (1,), 2),
            T(Variant.ORIGINAL, Base.U2, (1, 1), 4),
            T(Variant.ORIGINAL, Base.SPQ, (2, 1), 3),
            T(Variant.ORIGINAL, Base.S2, (1, 1, 2, 1), 5),
            T(Variant.ORIGINAL, Base.S3, (1, 1, 1), 6),
            T(Variant.ORIGINAL, Base.S4, (0, 1), 7),
        ]:
            with pytest.raises(ParamOutOfRange):
                type_to_sequence(bad)

    def test_nonsplit_inverse_undefined(self):
        with pytest.raises(VariantUndefined):
            type_to_sequence(T(Variant.INVERSE, Base.C5, (), 5))


def all_catalog_types(max_order):
    """Independent enumeration of catalog parameter tuples by brute force."""
    out = []
    for m in range(2, max_order // 2 + 1):
        out.append(T(Variant.ORIGINAL, Base.MK2, (m,), 2 * m))
    out.append(T(Variant.ORIGINAL, Base.C5, (), 5))
    for m in range(1, max_order):
        for ell in range(2, max_order):
            if 2 * m + ell + 1 <= max_order:
                out.append(T(Variant.ORIGINAL, Base.U2, (m, ell), 2 * m + ell + 1))
    for m in range(1, max_order):
        if 2 * m + 4 <= max_order:
            out.append(T(Variant.ORIGINAL, Base.U3, (m,), 2 * m + 4))
    for p in range(1, max_order):
        for q in range(2, max_order):
            if q * (p + 1) <= max_order:
                out.append(T(Variant.ORIGINAL, Base.SPQ, (p, q), q * (p + 1)))
    # S2 with m = 2 or 3 star blocks covers every order up to 12
    for p1 in range(1, max_order):
        for q1 in range(1, max_order):
            for p2 in range(1, p1):
                for q2 in range(1, max_order):
                    o = q1 * (p1 + 1) + q2 * (p2 + 1)
                    if o <= max_order:
                        out.append(
                            T(Variant.ORIGINAL, Base.S2, (p1, q1, p2, q2), o)
                        )
                    for p3 in range(1, p2):
                        for q3 in range(1, max_order):
                            o3 = o + q3 * (p3 + 1)
                            if o3 <= max_order:
                                out.append(
                                    T(
                                        Variant.ORIGINAL,
                                        Base.S2,
                                        (p1, q1, p2, q2, p3, q3),
                                        o3,
                                    )
                                )
    for p in range(1, max_order):
        for q1 in range(2, max_order):
            for q2 in range(1, max_order):
                o = (q1 + q2) + 1 + p * q1 + (p + 1) * q2
                if o <= max_order:
                    out.append(T(Variant.ORIGINAL, Base.S3, (p, q1, q2), o))
    for p in range(1, max_order):
        for q in range(1, max_order):
            o = 1 + (q + 2) + (q * p + 2 * p + q + 1)
            if o <= max_order:
                out.append(T(Variant.ORIGINAL, Base.S4, (p, q), o))
    return out


def parameter_sweep():
    """Catalog types at larger orders: every named parameter swept to 5
    independently, the order given by the paper's formula."""
    sweep = []
    for m in range(2, 6):
        sweep.append(T(Variant.ORIGINAL, Base.MK2, (m,), 2 * m))
        sweep.append(T(Variant.ORIGINAL, Base.U3, (m,), 2 * m + 4))
    for m in range(1, 6):
        for ell in range(2, 6):
            sweep.append(T(Variant.ORIGINAL, Base.U2, (m, ell), 2 * m + ell + 1))
    for p in range(1, 6):
        for q in range(2, 6):
            sweep.append(T(Variant.ORIGINAL, Base.SPQ, (p, q), q * (p + 1)))
        for q1 in range(2, 6):
            for q2 in range(1, 6):
                order = (q1 + q2) + 1 + p * q1 + (p + 1) * q2
                sweep.append(T(Variant.ORIGINAL, Base.S3, (p, q1, q2), order))
        for q in range(1, 6):
            order = 1 + (q + 2) + (q * p + 2 * p + q + 1)
            sweep.append(T(Variant.ORIGINAL, Base.S4, (p, q), order))
    for p1 in range(2, 6):
        for p2 in range(1, p1):
            for q1 in range(1, 6):
                for q2 in range(1, 6):
                    order = q1 * (p1 + 1) + q2 * (p2 + 1)
                    sweep.append(
                        T(Variant.ORIGINAL, Base.S2, (p1, q1, p2, q2), order)
                    )
    return sweep


# The paper's side orders of each family: (clique, stable) for a split
# base, (order,) for a non-split one. The catalog states only the runs.
PAPER_ORDERS = {
    Base.C5: lambda: (5,),
    Base.MK2: lambda m: (2 * m,),
    Base.U2: lambda m, ell: (2 * m + ell + 1,),
    Base.U3: lambda m: (2 * m + 4,),
    Base.K1: lambda: (1, 0),
    Base.S1: lambda: (0, 1),
    Base.SPQ: lambda p, q: (q, p * q),
    Base.S2: lambda *prm: (
        sum(prm[1::2]), sum(p * q for p, q in zip(prm[::2], prm[1::2]))
    ),
    Base.S3: lambda p, q1, q2: (q1 + q2, 1 + p * q1 + (p + 1) * q2),
    Base.S4: lambda p, q: (q + 3, q * p + 2 * p + q + 1),
    Base.COMPLETE_BLOCK: lambda m: (m, 0),
    Base.EMPTY_BLOCK: lambda m: (0, m),
}


class TestSideOrders:
    def test_runs_have_the_papers_orders(self):
        cases = [
            (f, prm, order)
            for order in range(1, 25)
            for f in unitype.FAMILIES
            for prm in f.candidates(order)
        ]
        cases += [(f, (m,), m) for f in unitype.BLOCKS for m in range(1, 25)]
        for t in parameter_sweep():
            cases.append((unitype.CATALOG[t.base], t.params, t.order))
        assert {f.base for f, _, _ in cases} == set(Base)
        for f, prm, order in cases:
            runs = f.runs(*prm)
            want = PAPER_ORDERS[f.base](*prm)
            got = tuple(map(runs_order, runs)) if f.split else (runs_order(runs),)
            assert got == want and sum(want) == order, (f.base, prm)
            assert f.orders(*prm) == want, (f.base, prm)


class TestEnumIdentity:
    def test_pickled_and_copied_members_are_the_same_object(self):
        import copy
        import pickle

        for member in list(Base) + list(Variant):
            for clone in (
                pickle.loads(pickle.dumps(member)),
                copy.copy(member),
                copy.deepcopy(member),
            ):
                assert clone is member and hash(clone) == hash(member)
        for base in Base:
            clone = pickle.loads(pickle.dumps(base))
            assert unitype.CATALOG[clone] is unitype.CATALOG[base]
            assert unitype.CATALOG[clone].base is base
        for v in Variant:
            clone = pickle.loads(pickle.dumps(v))
            assert unitype.TRANSFORMS[clone] == unitype.TRANSFORMS[v]


class TestCatalogRoundTrip:
    def test_match_inverts_emit_order_le_12(self):
        for t in all_catalog_types(12):
            seq = type_to_sequence(t)
            for variant in Variant:
                if t.base in (Base.C5, Base.MK2, Base.U2, Base.U3):
                    if variant in (Variant.INVERSE, Variant.INVERSE_COMPLEMENT):
                        continue
                    vseq = variant_of(seq, variant)
                    got = match_nonsplit_type(vseq)
                    assert got is not None, (t, variant)
                    back = type_to_sequence(got)
                    assert back == vseq, (t, variant, got)
                else:
                    vseq = variant_of(seq, variant)
                    got = match_split_type(vseq)
                    assert got is not None, (t, variant)
                    assert type_to_sequence(got) == vseq, (t, variant, got)

    def test_catalog_instances_are_indecomposable_unigraphs(self, atlas8):
        for t in all_catalog_types(8):
            seq = type_to_sequence(t)
            merged = seq if isinstance(seq, DegreeSequence) else seq.merged()
            assert decompose(merged).runs == (), t
            assert oracle.count_isomorphism_classes(merged) == 1, t

    def test_match_inverts_emit_parameter_sweep_to_5(self):
        for t in parameter_sweep():
            seq = type_to_sequence(t)
            nonsplit = t.base in (Base.C5, Base.MK2, Base.U2, Base.U3)
            for variant in Variant:
                if nonsplit and variant in (
                    Variant.INVERSE,
                    Variant.INVERSE_COMPLEMENT,
                ):
                    continue
                vseq = variant_of(seq, variant)
                got = (
                    match_nonsplit_type(vseq)
                    if nonsplit
                    else match_split_type(vseq)
                )
                assert got is not None, (t, variant)
                assert type_to_sequence(got) == vseq, (t, variant, got)

    def test_matcher_is_deterministic(self):
        ps = parse_paired("2^2;1^2")
        assert match_split_type(ps) == match_split_type(ps)


class TestIsUnigraph:
    @pytest.mark.parametrize(
        "text,tags",
        [
            ("8^10", ["complement:mk2(m=5)"]),
            ("3,1^9", ["u2(m=3,l=3)"]),
            ("8^4,5^4,2^2", ["inverse:spq(p=2,q=2)", "mk2(m=2)"]),
            ("7^4,6,5,3^3,0", ["s1", "complement:s3(p=1,q1=2,q2=1)", "s1"]),
            ("9,7,6,4^5,1^2", ["k1", "s1", "s1", "k1", "u3(m=1)"]),
        ],
    )
    def test_paper_generation_examples(self, text, tags):
        _, r = is_unigraph(parse_sequence(text))
        assert r.is_unigraph
        assert r.tags() == tags

    def test_c8_not_unigraph(self):
        d, r = is_unigraph(parse_sequence("2^8"))
        assert not r.is_unigraph
        assert r.failure_index == 0
        assert r.component_types == ()

    def test_failure_index_points_at_component(self):
        # dominant vertex over C8: the K1 head matches, the tail does not
        d, r = is_unigraph(parse_sequence("8,3^8"))
        assert not r.is_unigraph
        assert r.failure_index == 1
        assert [t.tag() for t in r.component_types] == ["k1"]

    def test_failure_index_counts_strips_of_a_run(self):
        # three dominant vertices are one run but three strips
        d, r = is_unigraph(compose_all([K1] * 3, parse_sequence("2^6")))
        assert d.runs == ((K1, 3),)
        assert not r.is_unigraph
        assert r.failure_index == 3
        assert r.tags() == ["k1"] * 3

    def test_match_cache_is_bounded(self):
        bound = unitype.match_head.cache_info().maxsize
        assert bound == 1 << 14
        for q in range(2, bound + 10):
            # spq(1, q): a typed head, one key each, its sides flat
            unitype.match_head((q, q), (1, q))
            assert unitype.match_head.cache_info().currsize <= bound

    def test_cached_shapes_cost_at_most_560_bytes(self):
        # a cached shape holds its flat side tuples and one slotted type,
        # with no dict: about 440 bytes, where pair-tuple sides and a
        # per-type __dict__ cost about 630
        import gc
        import tracemalloc

        from unigraph.gen import GenSpec, compose_types, generate

        assert not hasattr(TypedComponent(Variant.ORIGINAL, Base.K1, (), 1), "__dict__")
        unitype.match_head.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            for seed in range(40):
                is_unigraph(compose_types(generate(GenSpec(2000, 60, seed))))
            gc.collect()
            shapes = unitype.match_head.cache_info().currsize
            held = tracemalloc.get_traced_memory()[0]
            unitype.match_head.cache_clear()
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert shapes > 1000
        assert freed <= 560 * shapes, (freed / shapes, shapes)

    def test_split_tails_leave_nothing_behind(self):
        # a sequence has one tail, and keeps its verdict itself, so a split
        # tail is matched uncached: the memory left after classifying
        # distinct random split tails does not grow with their run count
        import gc
        import tracemalloc

        def retained(p, q):
            rng = random.Random(p)
            unitype.match_head.cache_clear()
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                runs = 0
                for _ in range(20):
                    s = random_split_sequence(rng, p, q)
                    d, _ = is_unigraph(s)
                    # indecomposable, with a split tail
                    assert d.runs == () and d._records[-1][3] is not None
                    runs += len(s.runs)
                    del s, d
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before, runs
            finally:
                tracemalloc.stop()

        small, small_runs = retained(6, 12)
        large, large_runs = retained(60, 120)
        assert large_runs > 5 * small_runs
        assert large <= small + 4096, (small, large)

    def test_heads_that_fail_leave_nothing_behind(self):
        # a head that types as nothing is not cached: nothing asks again,
        # and its runs are bounded by no catalog shape
        import gc
        import tracemalloc

        rng = random.Random(3)
        tail = parse_sequence("2^5").runs
        heads = []
        for _ in range(40):
            d = decompose(random_split_sequence(rng, 400, 800))
            _, truns, _, k = d._records[-1]
            heads.append((truns[:k], truns[k:], 0))
        unitype.match_head.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for head in heads:
                s = compose_runs([head], tail)
                _, r = is_unigraph(s)
                assert r.failure_index == 0
                del s, r
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 << 10, kept

    @pytest.mark.parametrize("text", ["3^2,1^4", "2^5"], ids=["split", "non-split"])
    def test_graphicality_proved_once(self, monkeypatch, text):
        # the kernel's strip loop proves the sequence graphical, and its
        # tail record carries the split partition; neither decompose nor
        # the tail's typing runs Erdos-Gallai again or calls unigraph.split
        from unigraph import _kernel, split
        from unigraph.split import SplitKind, determine_split

        s = parse_sequence(text)
        found = determine_split(s)
        assert (found.kind is not SplitKind.NOT_SPLIT) == (text == "3^2,1^4")
        calls = {"eg_graphical": 0, "decompose_runs": 0}
        for name in calls:
            def counted(*args, _fn=getattr(_kernel, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(_kernel, name, counted)
        for name in ("_durfee", "_take_top", "determine_split"):
            def refused(*args, _name=name):
                raise AssertionError(f"split.{_name} called")

            monkeypatch.setattr(split, name, refused)
        d, r = is_unigraph(s)
        assert d.tail == s and r.is_unigraph
        assert calls == {"eg_graphical": 0, "decompose_runs": 1}
        if found.paired is not None:
            assert r.runs[-1][0] == match_split_type(found.paired)

    def test_params_reuse_the_verdict(self, monkeypatch):
        # the verdict is kept on the sequence object, so neither a second
        # is_unigraph nor unigraph_params decomposes it again
        from unigraph import _kernel
        from unigraph.params import unigraph_params

        text = "7^4,6,5,3^3,0"
        s = parse_sequence(text)
        verdict = is_unigraph(s)
        calls = 0

        def counted(*args, _fn=_kernel.decompose_runs):
            nonlocal calls
            calls += 1
            return _fn(*args)

        monkeypatch.setattr(_kernel, "decompose_runs", counted)
        assert is_unigraph(s) is verdict
        params = unigraph_params(s)
        assert calls == 0
        assert params == unigraph_params(parse_sequence(text))
        assert calls == 1

    def test_verdict_leaves_equality_hash_and_repr(self):
        from unigraph.degseq import normalize

        text = "7^4,6,5,3^3,0"
        classified = parse_sequence(text)
        d, r = is_unigraph(classified)
        for other in (parse_sequence(text), normalize([7] * 4 + [6, 5, 3, 3, 3, 0])):
            assert "_unigraph" not in vars(other)
            assert classified == other and other == classified
            assert hash(classified) == hash(other)
            assert repr(classified) == repr(other)
            assert {other: 1}[classified] == 1
        assert d.tail == parse_sequence("0") and r.is_unigraph

    def test_edgeless(self):
        for k in (1, 2, 5):
            _, r = is_unigraph(parse_sequence(f"0^{k}" if k > 1 else "0"))
            assert r.is_unigraph

    def test_empty(self):
        d, r = is_unigraph(parse_sequence("-"))
        assert r.is_unigraph and r.component_types == ()

    def test_single_vertex_tail_typing(self):
        # lone vertex: complete-graph convention
        _, r = is_unigraph(parse_sequence("0"))
        assert r.tags() == ["k1"]
        # inherits a single-vertex neighbor's type
        _, r = is_unigraph(parse_sequence("1,1"))
        assert r.tags() == ["k1", "k1"]
        _, r = is_unigraph(parse_sequence("0,0"))
        assert r.tags() == ["s1", "s1"]
        # stable-side after a multi-vertex component
        _, r = is_unigraph(parse_sequence("7^4,6,5,3^3,0"))
        assert r.tags()[-1] == "s1"

    def test_variant_soundness_on_split_instances(self):
        # all four variants of a table instance match with matching tags
        base = type_to_sequence(T(Variant.ORIGINAL, Base.SPQ, (2, 3), 9))
        seqs = {
            Variant.ORIGINAL: base,
            Variant.INVERSE: inverse_paired(base),
            Variant.COMPLEMENT: complement_paired(base),
            Variant.INVERSE_COMPLEMENT: inverse_paired(complement_paired(base)),
        }
        for variant, seq in seqs.items():
            got = match_split_type(seq)
            assert got.base is Base.SPQ and got.params == (2, 3)
            assert type_to_sequence(got) == seq


class TestRunLevelParity:
    def test_matchers_invert_emitter_over_every_variant_order_le_16(self):
        from unigraph.gen import components_of_order

        for order in range(1, 17):
            pool = components_of_order(order, split_only=False)
            for t in pool:
                nonsplit = t.base in NON_SPLIT_BASES
                match = match_nonsplit_type if nonsplit else match_split_type
                assert match(type_to_sequence(t)) == t, t
                base = type_to_sequence(
                    TypedComponent(Variant.ORIGINAL, t.base, t.params, t.order)
                )
                variants = (
                    (Variant.ORIGINAL, Variant.COMPLEMENT) if nonsplit else Variant
                )
                for v in variants:
                    vt = TypedComponent(v, t.base, t.params, t.order)
                    vseq = type_to_sequence(vt)
                    assert vseq == variant_of(base, v), vt
                    got = match(vseq)
                    assert got in pool, vt
                    assert type_to_sequence(got) == vseq, vt
                    runs = emit_runs(vt)
                    if nonsplit:
                        assert runs == vseq.runs
                        assert match_nonsplit_runs(runs) == got
                    else:
                        assert runs == (vseq.kpart.runs, vseq.spart.runs)
                        assert match_split_runs(*runs) == got

    def test_report_is_run_length(self):
        from unigraph.params import unigraph_params

        s = parse_sequence("999999^1000000")
        d, r = is_unigraph(s)
        assert [(t.tag(), m) for t, m in r.runs] == [("k1", 999999), ("k1", 1)]
        assert r.is_unigraph and r.failure_index is None
        assert "component_types" not in vars(r)
        assert unigraph_params(s).omega == 10**6
        assert len(r.component_types) == 10**6 and r.tags()[-1] == "k1"
