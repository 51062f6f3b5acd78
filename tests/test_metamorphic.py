"""Metamorphic properties on run-length inputs far past the oracle's n of
about 10: up to n = 10^6 vertices and r = 10^3 runs, where every run-level
loop of recognition stops at the Durfee prefix."""

from hypothesis import given, settings
from hypothesis import strategies as st

from unigraph.decomp import K1, compose_all, decompose
from unigraph.degseq import (
    DegreeSequence,
    complement_paired,
    complement_seq,
    compose_runs,
    is_graphical,
)
from unigraph.gen import GenSpec, compose_types, generate
from unigraph.params import unigraph_params
from unigraph.unitype import is_unigraph

NMAX = 10**6
RMAX = 10**3


@st.composite
def random_runs(draw):
    """r distinct degrees below n with random multiplicities; mostly not
    graphical, so Erdos-Gallai fails at every depth."""
    rng = draw(st.randoms(use_true_random=False))
    r = draw(st.integers(min_value=1, max_value=RMAX))
    n = draw(st.integers(min_value=r, max_value=NMAX))
    cuts = sorted(rng.sample(range(1, n), r - 1)) if r > 1 else []
    mults = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    vals = sorted(rng.sample(range(n), r), reverse=True)
    return DegreeSequence(tuple(zip(vals, mults)))


@st.composite
def zz_runs(draw):
    """Degrees in [a, b] with n >= (a + b + 1)^2 / 4a and an even sum, which
    Zverovich-Zverovich proves graphical."""
    rng = draw(st.randoms(use_true_random=False))
    a = draw(st.integers(min_value=1, max_value=2000))
    r = draw(st.integers(min_value=1, max_value=RMAX))
    b = a + draw(st.integers(min_value=r - 1, max_value=4 * a + r))
    n = draw(st.integers(min_value=max((a + b + 2) ** 2 // (4 * a), r), max_value=NMAX))
    vals = sorted(rng.sample(range(a, b + 1), r), reverse=True)
    cuts = sorted(rng.sample(range(1, n), r - 1)) if r > 1 else []
    mults = [y - x for x, y in zip([0, *cuts], [*cuts, n])]
    if sum(v * m for v, m in zip(vals, mults)) % 2:
        mults[next(t for t, v in enumerate(vals) if v % 2)] += 1
    return DegreeSequence(tuple(zip(vals, mults)))


@st.composite
def generated_specs(draw):
    """Specs of k catalog components on n vertices."""
    k = draw(st.integers(min_value=1, max_value=60))
    # k one-vertex components, or at least 3 more vertices for a larger one
    n = draw(st.integers(min_value=k + 3, max_value=NMAX))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return GenSpec(n, k, seed=seed)


def generated_unigraphs():
    """Compositions of k generated catalog components."""
    return generated_specs().map(lambda spec: compose_types(generate(spec)))


large_sequences = st.one_of(random_runs(), zz_runs(), generated_unigraphs())


def run_heads(d):
    """(clique runs, stable runs, no transform) per decomposition run,
    a run of m > 1 single vertices as the complete or edgeless block it
    composes to."""
    for c, m in d.runs:
        if m == 1:
            yield c.kpart.runs, c.spart.runs, 0
        elif c == K1:
            yield ((m - 1, m),), (), 0
        else:
            yield (), ((0, m),), 0


@given(large_sequences)
@settings(max_examples=40, deadline=None)
def test_complement_keeps_verdicts(s):
    c = complement_seq(s)
    assert c.n == s.n
    graphical = is_graphical(s)
    assert is_graphical(c) == graphical
    if graphical:
        assert is_unigraph(c)[1].is_unigraph == is_unigraph(s)[1].is_unigraph


@given(large_sequences)
@settings(max_examples=40, deadline=None)
def test_compose_inverts_decompose(s):
    if not is_graphical(s):
        return
    d = decompose(s)
    assert compose_runs(list(run_heads(d)), d.tail.runs) == s
    if s.n <= 2000:
        assert compose_all(d.components, d.tail) == s


@given(large_sequences)
@settings(max_examples=40, deadline=None)
def test_complement_complements_every_component(s):
    # the complement of (G, A, B) o H is (co-G, B, A) o co-H: the same
    # components in the same order, each with its sides swapped and its
    # runs reversed (a K1 run turns into an S1 run), over the complemented
    # tail
    if not is_graphical(s):
        return
    d = decompose(s)
    c = decompose(complement_seq(s))
    assert c.runs == tuple((complement_paired(x), m) for x, m in d.runs)
    assert c.tail == complement_seq(d.tail)


@given(generated_unigraphs())
@settings(max_examples=40, deadline=None)
def test_complement_swaps_clique_and_independence(s):
    # a clique of G is an independent set of its complement, and both have
    # the same automorphism group
    p = unigraph_params(s)
    c = unigraph_params(complement_seq(s))
    assert (c.omega, c.alpha) == (p.alpha, p.omega)
    assert c.beta == s.n - p.omega
    assert (c.fix, c.dist) == (p.fix, p.dist)


@given(generated_specs())
@settings(max_examples=40, deadline=None)
def test_recognition_returns_generated_tags(spec):
    comps = generate(spec)
    d, r = is_unigraph(compose_types(comps))
    assert r.is_unigraph
    assert r.tags() == [t.tag() for t in comps]
    assert d.n == spec.n
