"""The kernel and the naive reference must agree bit for bit on everything,
and the package must reach the kernel through the ``unigraph._kernel``
module."""

import random
from bisect import bisect_right
from itertools import combinations_with_replacement
from operator import mul

import pytest

from unigraph import _kernel
from unigraph._kernel import reference
from unigraph.decomp import decompose, side_runs
from unigraph.degseq import DegreeSequence, is_graphical, normalize, runs_order
from unigraph.gen import GenSpec, compose_types, generate
from unigraph.split import SplitKind, determine_split


def random_graph_degrees(rng, n, p):
    deg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                deg[u] += 1
                deg[v] += 1
    return deg


def flatten(records):
    """Per-vertex (heads, tail) of the kernel's records, in the form
    ``reference.decompose_naive`` returns; a head's sides are flat."""
    heads = []
    tail = None
    for rec in records:
        if rec[0] == "k1":
            heads += [([0], [])] * rec[1]
        elif rec[0] == "s1":
            heads += [([], [0])] * rec[1]
        elif rec[0] == "head":
            kruns, sruns = side_runs(rec[1]), side_runs(rec[2])
            heads.append((reference.expand(kruns), reference.expand(sruns)))
        else:
            tail = reference.expand(rec[1])
    return heads, tail


def nonincreasing_sequences(nmax):
    """Every non-increasing sequence of n degrees in [0, n-1], n <= nmax."""
    for n in range(nmax + 1):
        yield from combinations_with_replacement(range(n - 1, -1, -1), n)


@pytest.mark.parametrize("kernel", [_kernel], ids=[_kernel.IMPL])
class TestAgainstReference:
    def test_eg_on_graphical_and_near_graphical(self, kernel):
        rng = random.Random(1)
        for _ in range(1500):
            n = rng.randint(0, 12)
            if rng.random() < 0.5:
                deg = random_graph_degrees(rng, n, rng.random())
            else:
                deg = sorted(
                    (rng.randint(0, max(n - 1, 0)) for _ in range(n)), reverse=True
                )
            runs = reference._runs(deg)
            graphical = kernel.eg_graphical(runs)
            assert graphical == reference.eg_graphical_naive(runs)
            assert (kernel.decompose_runs(runs) is None) == (not graphical)

    def test_decompose_matches_naive(self, kernel):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randint(0, 12)
            deg = random_graph_degrees(rng, n, rng.random())
            runs = reference._runs(deg)
            heads, tail = reference.decompose_naive(runs)
            assert flatten(kernel.decompose_runs(runs)) == (heads, tail)

    def test_exhaustive_n_le_9(self, kernel):
        # the Durfee-bounded loops against the naive ones on every sequence
        graphical_count = 0
        for deg in nonincreasing_sequences(9):
            runs = reference._runs(deg)
            graphical = kernel.eg_graphical(runs)
            assert graphical == reference.eg_graphical_naive(runs), deg
            records = kernel.decompose_runs(runs)
            assert (records is None) == (not graphical), deg
            if graphical:
                graphical_count += 1
                assert flatten(records) == reference.decompose_naive(runs), deg
        assert graphical_count == 6068

    def test_exhaustive_n_10(self, kernel):
        # the clique cuts read off Erdos-Gallai equalities against the naive
        # cut search, one order past the n <= 9 sweep
        graphical_count = 0
        for deg in combinations_with_replacement(range(9, -1, -1), 10):
            runs = reference._runs(deg)
            graphical = kernel.eg_graphical(runs)
            assert graphical == reference.eg_graphical_naive(runs), deg
            records = kernel.decompose_runs(runs)
            assert (records is None) == (not graphical), deg
            if graphical:
                graphical_count += 1
                assert flatten(records) == reference.decompose_naive(runs), deg
        assert graphical_count == 22084 - 6068

    def test_record_orders_exhaustive_n_le_9(self, kernel):
        # a head carries the (p, q) of its Erdos-Gallai equality and the
        # tail its order; each must equal the order of the runs beside it.
        # A head's sides are flat int tuples, the tail's runs pairs
        heads = 0
        for deg in nonincreasing_sequences(9):
            records = kernel.decompose_runs(reference._runs(deg))
            if records is None:
                continue
            for rec in records:
                if rec[0] == "head":
                    heads += 1
                    _, kside, sside, p, q = rec
                    assert all(type(x) is int for x in kside + sside), deg
                    kruns, sruns = side_runs(kside), side_runs(sside)
                    assert (p, q) == (runs_order(kruns), runs_order(sruns)), deg
                elif rec[0] == "tail":
                    assert rec[2] == runs_order(rec[1]), deg
            assert records[-1][0] == "tail", deg
        assert heads > 0

    def test_tail_split_partition_exhaustive_n_le_10(self, kernel):
        # the tail's split partition, read off the Erdos-Gallai equalities,
        # against the Hammer-Simeone test on the tail alone
        tails = split = 0
        for deg in nonincreasing_sequences(10):
            records = kernel.decompose_runs(reference._runs(deg))
            if records is None:
                continue
            _, truns, n, k = records[-1]
            if n <= 1:
                assert k is None, deg
                continue
            tails += 1
            found = determine_split(DegreeSequence(truns))
            if k is None:
                assert found.kind is SplitKind.NOT_SPLIT, deg
                continue
            split += 1
            sides = (found.paired.kpart.runs, found.paired.spart.runs)
            assert (truns[:k], truns[k:]) == sides, deg
        assert (tails, split) == (19208, 2564)

    def test_normalize(self, kernel):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(0, 40)
            raw = [rng.randint(0, max(n - 1, 0)) for _ in range(n)]
            runs = kernel.normalize_runs(raw)
            assert [d for d, _ in runs] == sorted(set(raw), reverse=True)
            assert sum(m for _, m in runs) == n
            assert reference.expand(runs) == sorted(raw, reverse=True)

    def test_normalize_rejects_bad_degrees(self, kernel):
        with pytest.raises(ValueError):
            kernel.normalize_runs([-1])
        with pytest.raises(ValueError):
            kernel.normalize_runs([3, 0, 0])
        with pytest.raises(ValueError):
            kernel.normalize_runs([2**70, 0])

    def test_normalize_counts_bools_as_ints(self, kernel):
        runs = kernel.normalize_runs([True, True])
        assert runs == ((1, 2),)
        assert type(runs[0][0]) is int

    @pytest.mark.parametrize("raw", [[1.5, 0.5], [2, None], ["a"]])
    def test_normalize_rejects_non_integers(self, kernel, raw):
        with pytest.raises(TypeError):
            kernel.normalize_runs(raw)


def test_huge_multiplicity():
    # K_n for n = 2^33 strips its n-1 dominant vertices as one run
    n = 2**33
    runs = ((n - 1, n),)
    assert _kernel.decompose_runs(runs)[0] == ("k1", n - 1)
    assert _kernel.eg_graphical(runs)


def test_public_functions_call_through_kernel_module(monkeypatch):
    # perfbench/layers.py times the kernel by wrapping these attributes, so a
    # caller that imports the functions directly would go untimed
    calls = {}
    for name in ("normalize_runs", "eg_graphical", "decompose_runs"):
        def counted(*args, _fn=getattr(_kernel, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(_kernel, name, counted)
    s = normalize([2, 2, 1, 1])
    assert calls == {"normalize_runs": 1}
    assert is_graphical(s)
    assert calls == {"normalize_runs": 1, "eg_graphical": 1}
    decompose(s)
    assert calls["decompose_runs"] == 1


def wide_runs(seed=9, r=5000):
    """r distinct degrees in [2000, 22000) with multiplicities in [300, 600]
    and an even sum: graphical by Zverovich-Zverovich (n >= 72 000), with a
    Durfee prefix of a few dozen runs."""
    rng = random.Random(seed)
    vals = sorted(rng.sample(range(2000, 22000), r), reverse=True)
    mults = [rng.randint(300, 600) for _ in vals]
    if sum(map(mul, vals, mults)) % 2:
        mults[next(t for t, v in enumerate(vals) if v % 2)] += 1
    return tuple(zip(vals, mults))


def durfee_runs(runs):
    """Runs holding a vertex i with d_i >= i - 1."""
    pos = 0
    for t, (d, m) in enumerate(runs):
        if d < pos:  # the run's first vertex has index pos + 1
            return t
        pos += m
    return len(runs)


@pytest.mark.parametrize("fn", ["eg_graphical", "decompose_runs"])
def test_run_loops_stop_at_durfee_prefix(monkeypatch, fn):
    runs = wide_runs()
    bound = durfee_runs(runs) + 2
    assert bound < 100
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return bisect_right(*args)

    monkeypatch.setattr(_kernel, "bisect_right", counted)
    assert getattr(_kernel, fn)(runs)
    assert 0 < calls <= bound


def test_each_head_costs_one_bisect(monkeypatch):
    # the Erdos-Gallai pass finds every clique cut, so past its Durfee-bounded
    # loop a head costs one bisection for its stable side and no search
    s = compose_types(generate(GenSpec(n=4000, k=300, seed=1)))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return bisect_right(*args)

    monkeypatch.setattr(_kernel, "bisect_right", counted)
    records = _kernel.decompose_runs(s.runs)
    heads = sum(rec[0] == "head" for rec in records)
    assert heads > 200
    assert calls <= durfee_runs(s.runs) + 2 + heads
