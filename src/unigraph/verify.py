"""Cross-validation drivers: every fast path against the brute-force oracle.

Each driver walks exhaustively enumerated degree sequences up to a size cap
and yields one machine-readable diff dict per disagreement; an empty result
means the check passed. The CLI ``verify`` subcommands and the acceptance
suite share these.
"""

from __future__ import annotations

from typing import Iterator

from . import oracle
from .decomp import compact, compose_all, decompose
from .degseq import DegreeSequence, realize
from .params import compact_typed, core_params, unigraph_params
from .unitype import is_unigraph


def iter_graphical(max_n: int) -> Iterator[DegreeSequence]:
    for n in range(max_n + 1):
        yield from oracle.graphical_sequences(n)


def iter_unigraphs(max_n: int) -> Iterator[DegreeSequence]:
    for s in iter_graphical(max_n):
        if is_unigraph(s)[1].is_unigraph:
            yield s


def verify_unigraph(max_n: int = 8) -> Iterator[dict]:
    """Recognition agrees with the realization-class count."""
    for s in iter_graphical(max_n):
        fast = is_unigraph(s)[1].is_unigraph
        classes = oracle.count_isomorphism_classes(s)
        if fast != (classes == 1):
            yield {
                "check": "unigraph",
                "sequence": s.to_text(),
                "fast": fast,
                "classes": classes,
            }


def verify_roundtrip(max_n: int = 8) -> Iterator[dict]:
    for s in iter_graphical(max_n):
        cd = compact(decompose(s))  # one entry per run, each of count 1
        back = compose_all([c for c, _ in cd.runs], cd.tail)
        if back != s:
            yield {
                "check": "roundtrip",
                "sequence": s.to_text(),
                "recomposed": back.to_text(),
            }


def verify_params(max_n: int = 8) -> Iterator[dict]:
    for s in iter_unigraphs(max_n):
        d, r = is_unigraph(s)
        fast = core_params(d, r)
        brute = oracle.brute_params(realize(s))
        if fast != brute:
            yield {
                "check": "params",
                "sequence": s.to_text(),
                "fast": list(fast),
                "oracle": list(brute),
            }


def verify_fixdist(max_n: int = 7) -> Iterator[dict]:
    for s in iter_unigraphs(max_n):
        ps = unigraph_params(s)
        g = realize(s)
        bf, bd = oracle.brute_fix(g), oracle.brute_dist(g)
        if (ps.fix, ps.dist) != (bf, bd):
            yield {
                "check": "fixdist",
                "sequence": s.to_text(),
                "fast": [ps.fix, ps.dist],
                "oracle": [bf, bd],
            }


def verify_aut_product(max_n: int = 8) -> Iterator[dict]:
    """|Aut| of a unigraph equals the product over compact components."""
    for s in iter_unigraphs(max_n):
        if s.n == 0:
            continue
        d, r = is_unigraph(s)
        cd, _ = compact_typed(d, r)
        product = 1
        for comp, _ in cd.runs:  # every count of the compact form is 1
            product *= oracle.automorphism_count(realize(comp.merged()))
        if cd.tail.n:
            product *= oracle.automorphism_count(realize(cd.tail))
        whole = oracle.automorphism_count(realize(s))
        if product != whole:
            yield {
                "check": "aut-product",
                "sequence": s.to_text(),
                "product": product,
                "whole": whole,
            }


# each check, its default size and the size guard of the oracle it calls
CHECKS = {
    "unigraph": (verify_unigraph, 8, oracle.MAX_CLASSES),
    "roundtrip": (verify_roundtrip, 8, oracle.MAX_PARAMS),
    "params": (verify_params, 8, oracle.MAX_PARAMS),
    "fixdist": (verify_fixdist, 7, oracle.MAX_FIXDIST),
    "aut": (verify_aut_product, 8, oracle.MAX_ENUM),
}
