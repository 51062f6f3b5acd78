"""The timed operation of every item kind.

This module imports nothing, so a fresh interpreter can load it before its
clock starts without pre-loading any module that ``unigraph`` itself imports.
Every function takes the imported ``unigraph`` package as ``U``.
"""

RECOGNIZE_KINDS = ("few-runs", "many-comp", "threshold", "complete", "bad-tail")
SCREEN_KINDS = ("raw", "raw-odd", "raw-oor")
REALIZE_KINDS = ("sparse", "dense")


def prepare(U, kind, payload):
    """Turn a plain payload into the argument of :func:`call` (untimed)."""
    if kind in REALIZE_KINDS:
        return U.DegreeSequence(payload)
    return payload


def call(U, kind, arg):
    """The operation a caller of the library performs on one item."""
    if kind in RECOGNIZE_KINDS:
        s = U.parse_sequence(arg)
        _, report = U.is_unigraph(s)
        params = U.unigraph_params(s) if report.is_unigraph else None
        return s, report, params
    if kind in SCREEN_KINDS:
        s = U.normalize(arg)
        if not U.is_graphical(s):
            return s, False, None, None
        d, report = U.is_unigraph(s)
        return s, True, d, report
    if kind == "gen":
        n, k, seed = arg
        comps = U.generate(U.GenSpec(n, k, seed))
        return comps, U.compose_types(comps)
    if kind in REALIZE_KINDS:
        g = U.realize(arg)
        return g.n, g.to_edge_list()
    raise ValueError(f"unknown item kind {kind!r}")
