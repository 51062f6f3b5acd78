"""Linear-time unigraph parameters: clique, independence, vertex-cover and
chromatic numbers from the canonical decomposition; fixing and
distinguishing numbers from the compact one.

Clique/independence numbers add up part sizes because every multi-vertex
indecomposable split component is balanced. A unigraph is perfect unless its
tail is a 5-cycle, which pins the chromatic number. Fixing numbers sum over
compact components and distinguishing numbers take their maximum.

The per-family distinguishing values are derived here and gated by a brute
force sweep (all parameter tuples up to order 9) in the test suite:

* q stars with p leaves each, centers mutually adjacent and interchangeable:
  leaves inside one star need pairwise distinct colors, and two stars swap
  unless their (center color, leaf color set) pairs differ, so the block
  needs the least d with d >= p and d*C(d,p) >= q.
* m interchangeable edges: an edge needs two distinct endpoint colors and no
  two edges may carry the same pair, so the least d with C(d,2) >= m.
* A star's leaves are mutually interchangeable: d = number of leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .decomp import CompactDecomposition, Decomposition, compact
from .degseq import brief, runs_order
from .errors import NotUnigraph
from .unitype import (
    Base,
    TypedComponent,
    UnigraphReport,
    Variant,
    emit_runs,
    is_unigraph,
)

# compact block of a run of m > 1 single vertices; only K1 and S1 runs repeat
_BLOCK = {Base.K1: Base.COMPLETE_BLOCK, Base.S1: Base.EMPTY_BLOCK}

_TABLE_OMEGA_ALPHA = {
    Base.C5: lambda p: (2, 2),
    Base.MK2: lambda p: (2, p[0]),
    Base.U2: lambda p: (2, p[0] + p[1]),
    Base.U3: lambda p: (3, p[0] + 2),
}


@dataclass(frozen=True)
class ParamSet:
    omega: int
    alpha: int
    beta: int
    chi: int
    fix: int
    dist: int

    @property
    def perfect(self) -> bool:
        return self.chi == self.omega

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "alpha": self.alpha,
            "beta": self.beta,
            "chi": self.chi,
            "fix": self.fix,
            "dist": self.dist,
            "perfect": self.perfect,
        }


def component_omega_alpha(t: TypedComponent) -> tuple[int, int]:
    """Clique and independence numbers of one typed component."""
    if t.base in _TABLE_OMEGA_ALPHA:
        omega, alpha = _TABLE_OMEGA_ALPHA[t.base](t.params)
        if t.variant is Variant.COMPLEMENT:
            return alpha, omega
        return omega, alpha
    if t.order == 1:
        return 1, 1
    # multi-vertex split components are balanced: the parts are extremal
    kruns, sruns = emit_runs(t)
    return runs_order(kruns), runs_order(sruns)


def core_params(d: Decomposition, r: UnigraphReport) -> tuple[int, int, int, int]:
    """(omega, alpha, beta, chi) from the canonical decomposition."""
    if not r.is_unigraph:
        raise NotUnigraph("exact parameters require a unigraph sequence")
    if d.n == 0:
        return 0, 0, 0, 0
    omega = sum(c.p * m for c, m in d.runs)
    alpha = sum(c.q * m for c, m in d.runs)
    tail_type = r.runs[-1][0] if d.tail.n else None
    if tail_type is not None:
        t_omega, t_alpha = component_omega_alpha(tail_type)
        omega += t_omega
        alpha += t_alpha
    chi = omega + (1 if tail_type is not None and tail_type.base is Base.C5 else 0)
    return omega, alpha, d.n - alpha, chi


def _fix_star_block(p: int, q: int) -> int:
    # q stars with p leaves each; rigid pendants when p == 1
    return q - 1 if p == 1 else q * (p - 1)


def component_fix(t: TypedComponent) -> int:
    """Fixing number of one typed component; complement and split inverse
    preserve the automorphism group, so the variant is ignored."""
    b, prm = t.base, t.params
    if b in (Base.K1, Base.S1):
        return 0
    if b in (Base.COMPLETE_BLOCK, Base.EMPTY_BLOCK):
        return prm[0] - 1
    if b is Base.C5:
        return 2
    if b is Base.MK2:
        return prm[0]
    if b is Base.U2:
        return prm[0] + prm[1] - 1
    if b is Base.U3:
        return prm[0] + 1
    if b is Base.SPQ:
        return _fix_star_block(prm[0], prm[1])
    if b is Base.S2:
        return sum(_fix_star_block(p, q) for p, q in zip(prm[::2], prm[1::2]))
    if b is Base.S3:
        p, q1, q2 = prm
        return _fix_star_block(p, q1) + _fix_star_block(p + 1, q2)
    p, q = prm  # S4
    return _fix_star_block(p, 2) + _fix_star_block(p + 1, q)


def _min_colors_for_pairs(m: int) -> int:
    d = 1
    while d * (d - 1) // 2 < m:
        d += 1
    return d


def _dist_star_block(p: int, q: int) -> int:
    d = p
    while d * comb(d, p) < q:
        d += 1
    return d


def component_dist(t: TypedComponent) -> int:
    """Distinguishing number of one typed component (variant-insensitive)."""
    b, prm = t.base, t.params
    if b in (Base.K1, Base.S1):
        return 1
    if b in (Base.COMPLETE_BLOCK, Base.EMPTY_BLOCK):
        return prm[0]
    if b is Base.C5:
        return 3
    if b is Base.MK2:
        return _min_colors_for_pairs(prm[0])
    if b is Base.U2:
        return max(_min_colors_for_pairs(prm[0]), prm[1])
    if b is Base.U3:
        return max(_min_colors_for_pairs(prm[0]), 2)
    if b is Base.SPQ:
        return _dist_star_block(prm[0], prm[1])
    if b is Base.S2:
        return max(_dist_star_block(p, q) for p, q in zip(prm[::2], prm[1::2]))
    if b is Base.S3:
        p, q1, q2 = prm
        return max(_dist_star_block(p, q1), _dist_star_block(p + 1, q2))
    p, q = prm  # S4
    return max(_dist_star_block(p, 2), _dist_star_block(p + 1, q))


def compact_typed(
    d: Decomposition, r: UnigraphReport
) -> tuple[CompactDecomposition, tuple[TypedComponent, ...]]:
    """Compact decomposition with one typed component per compact entry,
    read from the report's runs: a run of m > 1 single vertices types as
    its block, and every other entry keeps its type."""
    if not r.is_unigraph:
        raise NotUnigraph("compact typing requires a unigraph sequence")
    runs = list(r.runs)
    if d.tail.n == 1 and len(runs) > 1 and runs[-2][0] == runs[-1][0]:
        # compact absorbs a single-vertex tail into a run of its own type
        runs[-2:] = [(runs[-1][0], runs[-2][1] + 1)]
    types = tuple(
        t if m == 1 else TypedComponent(Variant.ORIGINAL, _BLOCK[t.base], (m,), m)
        for t, m in runs
    )
    return compact(d), types


def fixing_number(
    cd: CompactDecomposition, types: tuple[TypedComponent, ...]
) -> int:
    """Sum of per-component fixing numbers over the compact decomposition."""
    return sum(component_fix(t) for t in types)


def distinguishing_number(
    cd: CompactDecomposition, types: tuple[TypedComponent, ...]
) -> int:
    """Maximum per-component distinguishing number; 1 for the empty graph."""
    return max((component_dist(t) for t in types), default=1)


def unigraph_params(s) -> ParamSet:
    """All six parameters of a unigraph sequence in one pass."""
    d, r = is_unigraph(s)
    if not r.is_unigraph:
        raise NotUnigraph(f"{brief(s)} is not a unigraph")
    omega, alpha, beta, chi = core_params(d, r)
    cd, types = compact_typed(d, r)
    return ParamSet(
        omega=omega,
        alpha=alpha,
        beta=beta,
        chi=chi,
        fix=fixing_number(cd, types),
        dist=distinguishing_number(cd, types),
    )
