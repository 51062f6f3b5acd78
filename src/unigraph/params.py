"""Linear-time unigraph parameters: clique, independence, vertex-cover and
chromatic numbers from the canonical decomposition; fixing and
distinguishing numbers from the types of the compact one.

Clique/independence numbers add up part sizes because every multi-vertex
indecomposable split component is balanced. A unigraph is perfect unless its
tail is a 5-cycle, which pins the chromatic number. Fixing numbers sum over
compact components and distinguishing numbers take their maximum.
:func:`unigraph_params` is the one path to all six: it reads the part sizes
off the kernel's records and the compact types straight off the report, one
per run, and builds no component object and no compact form.

The per-component values are read off the catalog records of
:mod:`unigraph.unitype`, a split base's off its blocks of stars
(``Family.stars``). The matcher hands back one type object per head shape,
and :func:`unigraph_params` keeps a type's fixing and distinguishing
numbers on it the first time it reads them, so each shape is priced once.
Their distinguishing numbers are derived as below and gated, with the
fixing, clique and independence numbers, by a brute force sweep (all
parameter tuples up to order 9) in the test suite:

* q stars with p leaves each, centers mutually adjacent and interchangeable:
  leaves inside one star need pairwise distinct colors, and two stars swap
  unless their (center color, leaf color set) pairs differ, so the block
  needs the least d with d >= p and d*C(d,p) >= q.
* m interchangeable edges: an edge needs two distinct endpoint colors and no
  two edges may carry the same pair, so the least d with C(d,2) >= m.
* A star's leaves are mutually interchangeable: d = number of leaves.
"""

from __future__ import annotations

from ._record import Record
from .decomp import Decomposition, compact
from .degseq import brief
from .errors import FormatError, NotUnigraph
from .unitype import (
    CATALOG,
    SIDE_SWAPPING,
    Base,
    TypedComponent,
    UnigraphReport,
    Variant,
    family_of,
    is_unigraph,
)

# compact block of a run of m > 1 single vertices; only K1 and S1 runs repeat
_BLOCK = {Base.K1: Base.COMPLETE_BLOCK, Base.S1: Base.EMPTY_BLOCK}


class ParamSet(Record):
    _fields = ("omega", "alpha", "beta", "chi", "fix", "dist")

    def __init__(
        self, omega: int, alpha: int, beta: int, chi: int, fix: int, dist: int
    ) -> None:
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "fix", fix)
        object.__setattr__(self, "dist", dist)

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


def _omega_alpha(t: TypedComponent) -> tuple[int, int]:
    f = CATALOG[t.base]
    omega, alpha = (f.omega_alpha or f.orders)(*t.params)
    return (alpha, omega) if t.variant in SIDE_SWAPPING else (omega, alpha)


def component_omega_alpha(t: TypedComponent) -> tuple[int, int]:
    """Clique and independence numbers of one typed component: its record's,
    swapped by a variant that swaps the sides."""
    family_of(t)
    return _omega_alpha(t)


def _check_verdict(d, r) -> None:
    """Raise FormatError unless (d, r) has the shape is_unigraph returns,
    and NotUnigraph unless r is a unigraph verdict."""
    if not isinstance(d, Decomposition):
        raise FormatError(f"expected a Decomposition, got {type(d).__name__}")
    if not isinstance(r, UnigraphReport):
        raise FormatError(f"expected a UnigraphReport, got {type(r).__name__}")
    if not r.is_unigraph:
        raise NotUnigraph("the report is not a unigraph verdict")
    # a unigraph verdict types each run of d, and its tail unless empty
    records = d._records
    if len(r.runs) != len(records) - 1 + (records[-1][2] > 0):
        raise FormatError("the report is not the verdict of this decomposition")


def core_params(d: Decomposition, r: UnigraphReport) -> tuple[int, int, int, int]:
    """(omega, alpha, beta, chi): the sides of the components, read off the
    kernel's records, plus the tail's own numbers."""
    _check_verdict(d, r)
    omega, alpha = d._sides
    chi = omega
    if d.tail.n:
        tail_type = r.runs[-1][0]
        t_omega, t_alpha = _omega_alpha(tail_type)
        omega += t_omega
        alpha += t_alpha
        chi = omega + (tail_type.base is Base.C5)
    return omega, alpha, d.n - alpha, chi


def component_fix(t: TypedComponent) -> int:
    """Fixing number of one typed component; complement and split inverse
    preserve the automorphism group, so the variant is ignored."""
    return family_of(t).price(*t.params)[0]


def component_dist(t: TypedComponent) -> int:
    """Distinguishing number of one typed component (variant-insensitive)."""
    return family_of(t).price(*t.params)[1]


def compact_typed(
    d: Decomposition, r: UnigraphReport
) -> tuple[Decomposition, tuple[TypedComponent, ...]]:
    """The compact form (:func:`~unigraph.decomp.compact`) of ``d``, with
    one typed component per compact entry and the type of a non-empty tail
    last, read from the report's runs: a run of m > 1 single vertices
    types as its block, and every other entry keeps its type."""
    _check_verdict(d, r)
    return compact(d), _compact_types(d, r)


def _compact_runs(d: Decomposition, r: UnigraphReport) -> list:
    """The report's (type, count) runs, with a single-vertex tail absorbed
    as :func:`~unigraph.decomp.compact` absorbs it; a run of m > 1 single
    vertices is one compact block."""
    runs = list(r.runs)
    if d.tail.n == 1 and len(runs) > 1 and runs[-2][0] == runs[-1][0]:
        # compact absorbs a single-vertex tail into a run of its own type
        runs[-2:] = [(runs[-1][0], runs[-2][1] + 1)]
    return runs


def _compact_types(d: Decomposition, r: UnigraphReport) -> tuple[TypedComponent, ...]:
    """The types of :func:`compact_typed`, without building the compact
    decomposition they describe."""
    return tuple(
        t if m == 1 else TypedComponent(Variant.ORIGINAL, _BLOCK[t.base], (m,), m)
        for t, m in _compact_runs(d, r)
    )


def unigraph_params(s) -> ParamSet:
    """All six parameters of a unigraph sequence in one pass.

    The decomposition and types come from :func:`is_unigraph`, which keeps
    them on the sequence object: after ``is_unigraph(s)`` this reuses that
    verdict and neither decomposes nor matches again. A matched type's
    fixing and distinguishing numbers are kept on it the first time they
    are read, so a head whose shape recurred costs two additions."""
    d, r = is_unigraph(s)
    if not r.is_unigraph:
        raise NotUnigraph(f"{brief(s)} is not a unigraph")
    omega, alpha, beta, chi = core_params(d, r)
    fix, dist = 0, 1
    for t, m in _compact_runs(d, r):
        if m > 1:
            # a compact block of m interchangeable vertices
            fix += m - 1
            dist = max(dist, m)
            continue
        price = getattr(t, "_price", None)
        if price is None:
            # the first read of this type: keep its numbers on it in one
            # write (TypedComponent._price), so a recurring head shape is
            # priced once and a concurrent reader sees both or neither
            price = CATALOG[t.base].price(*t.params)
            object.__setattr__(t, "_price", price)
        fix += price[0]
        if price[1] > dist:
            dist = price[1]
    return ParamSet(omega=omega, alpha=alpha, beta=beta, chi=chi, fix=fix, dist=dist)
