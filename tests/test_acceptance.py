"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
exact; the scaling criterion allows a small constant overhead term.
"""

import random
import time

from unigraph import oracle
from unigraph.decomp import compose_all, decompose
from unigraph.degseq import DegreeSequence, parse_sequence, realize
from unigraph.gen import GenSpec, compose_types, generate
from unigraph.params import component_omega_alpha
from unigraph.unitype import (
    Base,
    TypedComponent,
    Variant,
    is_unigraph,
    type_to_sequence,
)
from unigraph.verify import (
    iter_graphical,
    verify_aut_product,
    verify_fixdist,
    verify_params,
    verify_roundtrip,
    verify_unigraph,
)


def _report(num: int, text: str) -> None:
    print(f"\nCRITERION {num} PASS: {text}")


def test_criterion_1_unigraph_ground_truth(atlas8):
    diffs = list(verify_unigraph(8))
    assert diffs == []
    count = sum(1 for _ in iter_graphical(8))
    _report(1, f"is_unigraph matches oracle class counts on all {count} graphical sequences with n <= 8")


def test_criterion_2_paper_example_suite():
    expected = {
        "8^10": ["complement:mk2(m=5)"],
        "3,1^9": ["u2(m=3,l=3)"],
        "8^4,5^4,2^2": ["inverse:spq(p=2,q=2)", "mk2(m=2)"],
        "7^4,6,5,3^3,0": ["s1", "complement:s3(p=1,q1=2,q2=1)", "s1"],
        "9,7,6,4^5,1^2": ["k1", "s1", "s1", "k1", "u3(m=1)"],
    }
    for text, tags in expected.items():
        _, r = is_unigraph(parse_sequence(text))
        assert r.is_unigraph, text
        assert r.tags() == tags, (text, r.tags())
    # sixth example: the published annotation is arithmetically inconsistent
    # (its middle component cannot be a stable-side vertex); the recomputed
    # list is recorded here and re-verified by composing it back
    sixth = parse_sequence("8^4,7,6^2,3^3")
    d, r = is_unigraph(sixth)
    assert r.is_unigraph
    recorded = ["complement:s3(p=1,q1=2,q2=1)", "k1", "k1"]
    assert r.tags() == recorded
    assert compose_all(d.components, d.tail) == sixth
    head = type_to_sequence(r.component_types[0])
    assert oracle.count_isomorphism_classes(head.merged()) == 1
    # all six really are unigraphs at their full 10-vertex size: with the
    # degrees pinned to vertices in sorted order, a single isomorphism class
    # realizes exactly (product of multiplicity factorials)/|Aut| labeled
    # graphs, and any further class would push the count above that
    import math

    from unigraph.degseq import complement_seq

    for text in list(expected) + ["8^4,7,6^2,3^3"]:
        s = parse_sequence(text)
        comp = complement_seq(s)
        side = comp if comp.degree_sum < s.degree_sum else s
        graphs = list(oracle._realizations_assigned(side.to_list()))
        aut = oracle.automorphism_count(graphs[0])
        fixed_assignments = math.prod(math.factorial(m) for _, m in side.runs)
        assert len(graphs) * aut == fixed_assignments, text
    _report(2, "five consistent published examples match exactly; sixth recorded as "
               + " o ".join(recorded) + "; all six oracle-confirmed at n=10")


def test_criterion_3_round_trip(atlas8):
    assert list(verify_roundtrip(8)) == []
    rng = random.Random(33)
    trials = 0
    while trials < 10000:
        n = rng.randint(1, 10**4)
        k = rng.randint(1, min(n, 50))
        if n - k in (1, 2):
            continue
        comps = generate(GenSpec(n=n, k=k, seed=trials))
        seq = compose_types(comps)
        d = decompose(seq)
        assert compose_all(d.components, d.tail) == seq
        trials += 1
    _report(3, "decompose/compose round trip exact on all n <= 8 and 10000 fuzzed sequences up to n = 10^4")


def test_criterion_4_parameter_exactness(atlas8):
    assert list(verify_params(8)) == []
    # chi exceeds omega exactly on 5-cycle tails
    from unigraph.params import core_params
    from unigraph.verify import iter_unigraphs

    for s in iter_unigraphs(8):
        d, r = is_unigraph(s)
        omega, _, _, chi = core_params(d, r)
        tail_c5 = bool(r.component_types) and r.component_types[-1].base is Base.C5
        assert chi - omega == (1 if tail_c5 else 0)
    _report(4, "omega/alpha/beta/chi exact vs brute force for every unigraph with n <= 8; chi-omega flags exactly the C5 tails")


def test_criterion_5_symmetry_parameters(atlas8):
    assert list(verify_fixdist(7)) == []
    from unigraph.gen import components_of_order
    from unigraph.params import component_dist

    swept = 0
    for order in range(1, 10):
        comps = list(components_of_order(order, split_only=False))
        comps.append(TypedComponent(Variant.ORIGINAL, Base.COMPLETE_BLOCK, (order,), order))
        comps.append(TypedComponent(Variant.ORIGINAL, Base.EMPTY_BLOCK, (order,), order))
        for t in comps:
            seq = type_to_sequence(t)
            if not isinstance(seq, DegreeSequence):
                seq = seq.merged()
            g = realize(seq)
            assert component_dist(t) == oracle.brute_dist(g), t.tag()
            swept += 1
    _report(5, f"fix/dist exact vs brute force for every unigraph with n <= 7; all {swept} closed-form dist values of order <= 9 oracle-confirmed")


def test_criterion_6_table_formula_fidelity():
    checked = 0
    omega_alpha_checked = 0
    for t, table_seq, table_oa in _table_rows(12):
        got = type_to_sequence(t)
        got_runs = got.runs if isinstance(got, DegreeSequence) else (
            got.kpart.runs,
            got.spart.runs,
        )
        assert got_runs == table_seq, (t.tag(), got_runs, table_seq)
        checked += 1
        if table_oa is not None:
            merged = got if isinstance(got, DegreeSequence) else got.merged()
            g = realize(merged)
            omega, alpha, _, _ = oracle.brute_params(g)
            assert (omega, alpha) == table_oa, t.tag()
            assert component_omega_alpha(t) == table_oa, t.tag()
            comp = TypedComponent(Variant.COMPLEMENT, t.base, t.params, t.order)
            cg = realize(type_to_sequence(comp))
            comega, calpha, _, _ = oracle.brute_params(cg)
            assert (comega, calpha) == (alpha, omega), t.tag()
            omega_alpha_checked += 1
    _report(6, f"{checked} catalog sequences of order <= 12 match the table formulas; {omega_alpha_checked} non-split rows have the stated clique/independence numbers")


def _table_rows(max_order):
    """(component, table-built sequence runs, (omega, alpha) or None).

    Sequences are rebuilt here literally from the published table formulas,
    independent of the emitter under test.
    """
    rows = []

    def runs(pairs):
        return tuple((d, m) for d, m in pairs if m > 0)

    rows.append(
        (TypedComponent(Variant.ORIGINAL, Base.C5, (), 5), runs([(2, 5)]), (2, 2))
    )
    for m in range(2, max_order // 2 + 1):
        rows.append(
            (
                TypedComponent(Variant.ORIGINAL, Base.MK2, (m,), 2 * m),
                runs([(1, 2 * m)]),
                (2, m),
            )
        )
    for m in range(1, max_order):
        for ell in range(2, max_order):
            order = 2 * m + ell + 1
            if order <= max_order:
                rows.append(
                    (
                        TypedComponent(Variant.ORIGINAL, Base.U2, (m, ell), order),
                        runs([(ell, 1), (1, 2 * m + ell)]),
                        (2, m + ell),
                    )
                )
    for m in range(1, max_order):
        order = 2 * m + 4
        if order <= max_order:
            rows.append(
                (
                    TypedComponent(Variant.ORIGINAL, Base.U3, (m,), order),
                    runs([(2 * m + 2, 1), (2, 2 * m + 3)]),
                    (3, m + 2),
                )
            )
    for p in range(1, max_order):
        for q in range(2, max_order):
            order = q * (p + 1)
            if order <= max_order:
                rows.append(
                    (
                        TypedComponent(Variant.ORIGINAL, Base.SPQ, (p, q), order),
                        (runs([(p + q - 1, q)]), runs([(1, p * q)])),
                        None,
                    )
                )
    def s2_rows(blocks):
        order = sum(q * (p + 1) for p, q in blocks)
        if order > max_order:
            return
        ncent = sum(q for _, q in blocks)
        params = tuple(x for pq in blocks for x in pq)
        rows.append(
            (
                TypedComponent(Variant.ORIGINAL, Base.S2, params, order),
                (
                    runs([(p + ncent - 1, q) for p, q in blocks]),
                    runs([(1, sum(p * q for p, q in blocks))]),
                ),
                None,
            )
        )

    for p1 in range(2, max_order):
        for q1 in range(1, max_order):
            for p2 in range(1, p1):
                for q2 in range(1, max_order):
                    if q1 * (p1 + 1) + q2 * (p2 + 1) > max_order:
                        continue
                    s2_rows([(p1, q1), (p2, q2)])
                    for p3 in range(1, p2):
                        for q3 in range(1, max_order):
                            if (
                                q1 * (p1 + 1) + q2 * (p2 + 1) + q3 * (p3 + 1)
                                <= max_order
                            ):
                                s2_rows([(p1, q1), (p2, q2), (p3, q3)])
    for p in range(1, max_order):
        for q1 in range(2, max_order):
            for q2 in range(1, max_order):
                order = (q1 + q2) + 1 + p * q1 + (p + 1) * q2
                if order > max_order:
                    continue
                rows.append(
                    (
                        TypedComponent(Variant.ORIGINAL, Base.S3, (p, q1, q2), order),
                        (
                            runs([(p + q1 + q2, q1 + q2)]),
                            runs([(q1, 1), (1, p * q1 + (p + 1) * q2)]),
                        ),
                        None,
                    )
                )
    for p in range(1, max_order):
        for q in range(1, max_order):
            order = 1 + (q + 2) + (q * p + 2 * p + q + 1)
            if order > max_order:
                continue
            rows.append(
                (
                    TypedComponent(Variant.ORIGINAL, Base.S4, (p, q), order),
                    (
                        runs([(2 * (p + q + 1) + q * p, 1), (p + q + 3, q + 2)]),
                        runs([(2, q * p + 2 * p + q + 1)]),
                    ),
                    None,
                )
            )
    return rows


def test_criterion_7_aut_product_law(atlas8):
    assert list(verify_aut_product(8)) == []
    _report(7, "|Aut| equals the product over compact components for every unigraph with n <= 8")


def test_criterion_8_linear_time_scaling():
    def bench(n):
        comps = generate(GenSpec(n=n, k=60, seed=88))
        seq = compose_types(comps)
        best = float("inf")
        for _ in range(7):
            # a fresh object each time: is_unigraph keeps its verdict on the
            # sequence, and the classification is what is timed
            fresh = DegreeSequence(seq.runs)
            t0 = time.perf_counter()
            d = decompose(fresh)
            _, r = is_unigraph(fresh)
            best = min(best, time.perf_counter() - t0)
        assert r.is_unigraph and len(d.components) + 1 == 60
        return best

    t5 = bench(10**5)
    t6 = bench(10**6)
    assert t6 < 2.0, f"decompose+is_unigraph at n=1e6 took {t6:.3f}s"
    assert t6 <= 3 * t5 + 0.05, f"scaling ratio {t6 / t5:.2f} exceeds 3x"
    _report(8, f"n=1e5: {t5 * 1e3:.2f}ms, n=1e6: {t6 * 1e3:.2f}ms (ratio {t6 / max(t5, 1e-9):.2f}, budget 3x + overhead)")
