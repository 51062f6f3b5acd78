import hashlib
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import unigraph.gen as gen
import unigraph.unitype as unitype
from unigraph.decomp import compose_all, decompose
from unigraph.degseq import DegreeSequence
from unigraph.errors import Infeasible, ParamOutOfRange, UnigraphError
from unigraph.gen import (
    GenSpec,
    _canonical,
    _candidates,
    _part_count,
    _sample_large,
    _weight_marks,
    _weights,
    components_of_order,
    compose_types,
    generate,
)
from unigraph.unitype import (
    NON_SPLIT_BASES,
    SPLIT_VARIANTS,
    Base,
    TypedComponent,
    Variant,
    is_unigraph,
    type_to_sequence,
)


class TestFeasibility:
    def test_forced_c5(self):
        comps = generate(GenSpec(n=5, k=1, allowed=frozenset({Base.C5})))
        assert [c.tag() for c in comps] == ["c5"]

    def test_single_vertex(self):
        comps = generate(GenSpec(n=1, k=1))
        assert [c.tag() for c in comps] == ["k1"]

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (0, 1), (5, 0), (4, 2), (2, 6)])
    def test_infeasible(self, n, k):
        with pytest.raises(Infeasible):
            generate(GenSpec(n=n, k=k))

    def test_infeasible_message_names_bound(self):
        with pytest.raises(Infeasible, match="4 vertices"):
            generate(GenSpec(n=2, k=1))
        with pytest.raises(Infeasible, match="at least 1"):
            generate(GenSpec(n=5, k=0))


class TestDeterminism:
    def test_same_seed_same_draw(self):
        a = generate(GenSpec(n=40, k=5, seed=123))
        b = generate(GenSpec(n=40, k=5, seed=123))
        assert a == b

    def test_different_seeds_vary(self):
        draws = {tuple(c.tag() for c in generate(GenSpec(n=40, k=5, seed=s))) for s in range(20)}
        assert len(draws) > 5


class TestSoundness:
    def test_thousand_draws_round_trip(self):
        rng = random.Random(7)
        for trial in range(1000):
            n = rng.randint(1, 30)
            feasible = [k for k in range(1, n + 1) if n - k == 0 or n - k >= 3]
            k = rng.choice(feasible)
            comps = generate(GenSpec(n=n, k=k, seed=trial))
            assert sum(c.order for c in comps) == n
            seq = compose_types(comps)
            d, r = is_unigraph(seq)
            assert r.is_unigraph
            assert len(d.components) + 1 == k
            assert [t.tag() for t in r.component_types] == [c.tag() for c in comps]

    def test_component_count(self):
        for seed in range(50):
            comps = generate(GenSpec(n=60, k=7, seed=seed))
            seq = compose_types(comps)
            d = decompose(seq)
            assert len(d.components) + 1 == 7

    def test_allowed_types_respected(self):
        allowed = frozenset({Base.K1, Base.S1, Base.SPQ})
        for seed in range(30):
            comps = generate(GenSpec(n=24, k=4, seed=seed, allowed=allowed))
            assert all(c.base in allowed for c in comps)

    def test_large_orders_use_structured_sampler(self):
        comps = generate(GenSpec(n=10**5, k=3, seed=5))
        seq = compose_types(comps)
        d, r = is_unigraph(seq)
        assert r.is_unigraph and len(d.components) + 1 == 3

    def test_distinct_singletons_flag(self):
        for seed in range(40):
            comps = generate(
                GenSpec(n=12, k=6, seed=seed, distinct_singletons=True)
            )
            for a, b in zip(comps, comps[1:]):
                if a.order == 1 and b.order == 1:
                    assert a.base != b.base


class TestEnumeration:
    def test_order_one(self):
        tags = [t.tag() for t in components_of_order(1, split_only=True)]
        assert tags == ["k1", "s1"]

    def test_no_order_two_or_three(self):
        for order in (2, 3):
            assert components_of_order(order, split_only=False) == ()

    def test_order_four(self):
        tags = {t.tag() for t in components_of_order(4, split_only=False)}
        assert tags == {"mk2(m=2)", "complement:mk2(m=2)", "spq(p=1,q=2)"}

    def test_order_five_contains_c5_and_tree(self):
        tags = {t.tag() for t in components_of_order(5, split_only=False)}
        assert "c5" in tags and "s2(2,1,1,1)" in tags
        assert "u2(m=1,l=2)" in tags


def _golden_grid():
    """Seeded specs whose tags are pinned by a digest below: small and
    mid-size n with k up to 60, type filters, distinct singletons, and two
    many-component draws."""
    specs = []
    for n in (1, 4, 5, 6, 9, 13, 24, 25, 40, 77, 150, 400, 1000, 3000):
        for k in (1, 2, 3, 4, 7, 12, 25, 60):
            if k > n or n - k in (1, 2):
                continue
            for seed in range(3):
                specs.append(GenSpec(n, k, seed))
    few = frozenset({Base.K1, Base.S1, Base.SPQ, Base.MK2})
    big = frozenset({Base.K1, Base.S1, Base.S2, Base.S3, Base.S4, Base.U2})
    for seed in range(10):
        specs.append(GenSpec(60, 6, seed, allowed=few))
        specs.append(GenSpec(30, 12, seed, distinct_singletons=True))
        specs.append(GenSpec(300, 4, seed, allowed=big))
    specs.append(GenSpec(10**4, 109, 1))
    specs.append(GenSpec(10**5, 367, 2))
    return specs


def _compose_counts(n, k):
    """Every weight w_0..w_k of the sampler's recurrence in one list."""
    extra = n - k
    weights = [1 if extra == 0 else 0, *_weights(k, extra)]
    return weights + [0] * (k + 1 - len(weights))


def _comb_weights(n, k):
    """The sampling weights by their closed form: choose which j of the k
    parts are multi-vertex, then compose the n - (k - j) vertices left into
    j parts of order at least 4."""
    out = []
    for j in range(k + 1):
        m = n - (k - j)
        if j == 0:
            out.append(1 if m == 0 else 0)
        elif m >= 4 * j:
            out.append(math.comb(k, j) * math.comb(m - 3 * j - 1, j - 1))
        else:
            out.append(0)
    return out


class TestGolden:
    """Generated draws are part of the contract: a seed gives the same
    components release after release."""

    @pytest.mark.parametrize(
        "spec,tags",
        [
            (
                GenSpec(40, 5, 123),
                ["complement:s2(2,1,1,2)", "inverse:spq(p=3,q=2)",
                 "inverse:s2(13,1,4,1,1,2)", "s1", "s1"],
            ),
            (GenSpec(12, 4, 1), ["spq(p=1,q=2)", "s2(3,1,1,1)", "s1", "s1"]),
            (
                GenSpec(30, 3, 7, allowed=frozenset({Base.K1, Base.S1, Base.SPQ})),
                ["complement:spq(p=1,q=3)", "inverse:spq(p=2,q=6)",
                 "complement:spq(p=1,q=3)"],
            ),
            (
                GenSpec(12, 6, 3, distinct_singletons=True),
                ["s1", "k1", "s1", "k1", "spq(p=1,q=2)", "mk2(m=2)"],
            ),
            (GenSpec(100, 2, 5), ["s2(9,2,1,36)", "inverse:s2(2,2,1,1)"]),
            (GenSpec(9, 9, 0), ["s1", "k1"] + ["s1"] * 7),
        ],
    )
    def test_literal_tags(self, spec, tags):
        assert [c.tag() for c in generate(spec)] == tags

    def test_seeded_grid_digest(self):
        h = hashlib.sha1()
        specs = _golden_grid()
        for spec in specs:
            h.update(("|".join(c.tag() for c in generate(spec)) + "\n").encode())
        assert len(specs) == 263
        assert h.hexdigest() == "181b6513808bd7bb9c1fc328befb855c19634a11"

    def test_compose_counts_match_binomials(self):
        for n in range(1, 81):
            for k in range(1, n + 1):
                assert _compose_counts(n, k) == _comb_weights(n, k), (n, k)

    def test_checkpointed_pick_matches_full_scan(self):
        rng = random.Random(3)
        for n in range(1, 81):
            for k in range(1, n + 1):
                weights = _compose_counts(n, k)
                total, marks = _weight_marks(n, k)
                assert total == sum(weights), (n, k)
                if not total:
                    continue
                picks = {0, total // 2, total - 1}
                picks.update(rng.randrange(total) for _ in range(5))
                for pick in picks:
                    j, rest = 0, pick
                    while rest >= weights[j]:
                        rest -= weights[j]
                        j += 1
                    assert _part_count(n, k, marks, pick) == j, (n, k, pick)


# The structured sampler's candidate lists as plain scans over its shapes:
# the reference the arithmetic lists of gen._candidates must reproduce,
# entry for entry and in order, so that every seed draws the same types.
_S2_FIRST = tuple(
    (p1, q1, q1 * (p1 + 1)) for p1 in range(2, 12) for q1 in range(1, 4)
)
_S3_SECOND = tuple(
    (p, q2, 1 + q2 * (p + 2)) for p in range(1, 10) for q2 in range(1, 6)
)


def _scanned_candidates(order):
    spq = [
        (order // q - 1, q)
        for q in range(2, min(order, 64))
        if order % q == 0 and order // q >= 2
    ]
    s2 = [
        (p1, q1, 1, rest // 2)
        for p1, q1, used in _S2_FIRST
        if (rest := order - used) >= 2 and rest % 2 == 0
    ]
    s3 = [
        (p, rest // (p + 1), q2)
        for p, q2, used in _S3_SECOND
        if (rest := order - used) >= 2 * (p + 1) and rest % (p + 1) == 0
    ]
    s4 = [
        (p, num // (p + 2))
        for p in range(1, 12)
        if (num := order - 2 * p - 4) >= p + 2 and num % (p + 2) == 0
    ]
    return spq, s2, s3, s4


def _arithmetic_candidates(order):
    spq, s2, s3, s4 = _candidates(order)
    return spq, [(p1, q1, 1, (order - used) // 2) for p1, q1, used in s2], s3, s4


def _reference_sample(rng, order, split_only):
    """The structured sampler by scans and re-tagging through the matcher."""
    lists = zip((Base.SPQ, Base.S2, Base.S3, Base.S4), _scanned_candidates(order))
    options = [
        (base, cands[rng.randrange(len(cands))]) for base, cands in lists if cands
    ]
    if not split_only:
        if order % 2 == 0:
            options += [(Base.MK2, (order // 2,)), (Base.U3, ((order - 4) // 2,))]
        m = rng.randrange(1, (order - 3) // 2 + 1)
        options.append((Base.U2, (m, order - 1 - 2 * m)))
    base, prm = options[rng.randrange(len(options))]
    variants = (
        (Variant.ORIGINAL, Variant.COMPLEMENT)
        if base in NON_SPLIT_BASES
        else SPLIT_VARIANTS
    )
    v = variants[rng.randrange(len(variants))]
    return _canonical(TypedComponent(v, base, prm, order))


class TestStructuredSampler:
    """The large-order sampler reads its candidates off fixed tables and
    returns canonical tags without emitting or matching runs."""

    def test_candidate_lists_match_scans(self):
        for order in range(25, 20001):
            assert _arithmetic_candidates(order) == _scanned_candidates(order), order

    @pytest.mark.parametrize("split_only", [True, False])
    def test_draws_match_reference_sampler(self, split_only):
        new, ref = random.Random(11), random.Random(11)
        for order in range(25, 20001):
            expect = _reference_sample(ref, order, split_only)
            assert _sample_large(new, order, split_only) == expect, order

    def test_every_candidate_and_variant_is_canonical(self):
        for order in range(25, 201):
            spq, s2, s3, s4 = _scanned_candidates(order)
            cands = [(Base.SPQ, x) for x in spq] + [(Base.S2, x) for x in s2]
            cands += [(Base.S3, x) for x in s3] + [(Base.S4, x) for x in s4]
            if order % 2 == 0:
                cands += [(Base.MK2, (order // 2,)), (Base.U3, ((order - 4) // 2,))]
            cands += [
                (Base.U2, (m, order - 1 - 2 * m))
                for m in range(1, (order - 3) // 2 + 1)
            ]
            for base, prm in cands:
                variants = (
                    (Variant.ORIGINAL, Variant.COMPLEMENT)
                    if base in NON_SPLIT_BASES
                    else SPLIT_VARIANTS
                )
                for v in variants:
                    drawn = TypedComponent(v, base, prm, order)
                    if base is Base.SPQ:
                        v = gen._spq_variant(v, *prm)
                    t = TypedComponent(v, base, prm, order)
                    assert _canonical(drawn) == t == _canonical(t), drawn

    def test_seeded_draws_are_canonical(self):
        rng = random.Random(17)
        for _ in range(20000):
            t = _sample_large(rng, rng.randrange(25, 10**5 + 1), rng.random() < 0.5)
            assert _canonical(t) == t

    def test_generate_emits_and_matches_nothing(self, monkeypatch):
        spec = GenSpec(10**5, 200, 4)
        generate(spec)
        calls = []
        for module in (gen, unitype):
            for name in ("emit_runs", "match_split_runs", "match_nonsplit_runs"):
                real = getattr(module, name)

                def counted(*args, _real=real, _name=name):
                    calls.append(_name)
                    return _real(*args)

                monkeypatch.setattr(module, name, counted)
        generate(spec)
        assert calls == []


def _k1():
    return TypedComponent(Variant.ORIGINAL, Base.K1, (), 1)


class TestEntryPointErrors:
    """Bad input to the emit and generate entry points raises only
    UnigraphError subclasses."""

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: compose_types([]), ParamOutOfRange),
            (lambda: compose_types([None]), ParamOutOfRange),
            (lambda: compose_types([_k1(), "k1"]), ParamOutOfRange),
            (
                lambda: compose_types(
                    [TypedComponent(Variant.ORIGINAL, Base.C5, (), 5), _k1()]
                ),
                ParamOutOfRange,
            ),
            (
                lambda: type_to_sequence(
                    TypedComponent(Variant.ORIGINAL, Base.SPQ, (1,), 4)
                ),
                ParamOutOfRange,
            ),
            (
                lambda: type_to_sequence(
                    TypedComponent(Variant.ORIGINAL, Base.K1, (1,), 1)
                ),
                ParamOutOfRange,
            ),
            (
                lambda: type_to_sequence(
                    TypedComponent(Variant.ORIGINAL, Base.S1, (0, 0), 1)
                ),
                ParamOutOfRange,
            ),
            (
                lambda: type_to_sequence(
                    TypedComponent(Variant.ORIGINAL, Base.MK2, (2.5,), 5)
                ),
                ParamOutOfRange,
            ),
            (
                lambda: type_to_sequence(
                    TypedComponent(Variant.ORIGINAL, "spq", (1, 2), 4)
                ),
                ParamOutOfRange,
            ),
            (
                lambda: type_to_sequence(
                    TypedComponent("inverse", Base.SPQ, (1, 2), 4)
                ),
                ParamOutOfRange,
            ),
            (lambda: generate(GenSpec(n="10", k=2)), ParamOutOfRange),
            (lambda: generate(GenSpec(n=10, k=None)), ParamOutOfRange),
            (lambda: generate(GenSpec(10, 2, allowed="spq")), ParamOutOfRange),
            (lambda: generate(GenSpec(10, 2, allowed=5)), ParamOutOfRange),
            (lambda: generate(GenSpec(10, 2, allowed=["spq"])), ParamOutOfRange),
            (lambda: generate(GenSpec(10, 2, allowed=[[Base.K1]])), ParamOutOfRange),
            (lambda: generate(GenSpec(10, 2, seed=[1])), ParamOutOfRange),
            (lambda: generate(None), ParamOutOfRange),
            (lambda: generate(GenSpec(10, 0)), Infeasible),
        ],
    )
    def test_bad_input_raises_domain_error(self, call, error):
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, UnigraphError)

    def test_allowed_is_stored_as_frozenset(self):
        spec = GenSpec(24, 4, allowed=iter([Base.K1, Base.S1, Base.SPQ]))
        assert spec.allowed == frozenset({Base.K1, Base.S1, Base.SPQ})
        assert all(c.base in spec.allowed for c in generate(spec))


class TestComposeTypes:
    @given(
        n=st.integers(1, 400),
        k=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_object_composition(self, n, k, seed):
        assume(k <= n and n - k not in (1, 2))
        comps = generate(GenSpec(n, k, seed))
        tail = type_to_sequence(comps[-1])
        if not isinstance(tail, DegreeSequence):
            tail = tail.merged()
        heads = [type_to_sequence(t) for t in comps[:-1]]
        assert compose_types(comps) == compose_all(heads, tail)

    def test_million_vertices_ten_thousand_components(self):
        comps = generate(GenSpec(10**6, 10**4, seed=1))
        assert len(comps) == 10**4
        assert sum(c.order for c in comps) == 10**6
        d = decompose(compose_types(comps))
        assert len(d.components) + 1 == 10**4
