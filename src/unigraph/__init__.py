"""Degree-sequence decomposition and unigraph toolkit.

Decomposes any graphical degree sequence into its canonical indecomposable
components, recognizes unigraphs together with their component types, and
computes clique, independence, vertex-cover, chromatic, fixing, and
distinguishing numbers of unigraphs in time linear in the input. A
brute-force oracle cross-validates everything at small sizes.

All public values are immutable and all operations are pure functions, so
they are safe to share across threads.

A public name is imported from its submodule on first access (PEP 562), so
a process loads only the submodules it uses.
"""

from importlib import import_module as _import_module

from ._kernel import IMPL as KERNEL_IMPL
from .errors import (
    FormatError,
    Infeasible,
    InvalidPartition,
    NegativeDegree,
    NotGraphical,
    NotUnigraph,
    ParamOutOfRange,
    TooLarge,
    UnigraphError,
    VariantUndefined,
)

__version__ = "0.1.0"

# the public names of each lazily imported submodule
_EXPORTS = {
    "degseq": "DegreeSequence PairedDegreeSequence complement_paired complement_seq"
    " compose_seq inverse_paired is_graphical normalize parse_paired"
    " parse_sequence realize",
    "decomp": "Decomposition compact compose_all decompose",
    "gen": "GenSpec compose_types generate",
    "graphcore": "Graph VertexPartition complement_graph compose_graphs"
    " degree_sequence_of inverse_graph",
    "params": "ParamSet compact_typed component_dist component_fix"
    " component_omega_alpha core_params unigraph_params",
    "split": "SplitClass SplitKind determine_split",
    "unitype": "Base TypedComponent UnigraphReport Variant is_unigraph"
    " match_nonsplit_type match_split_type type_to_sequence",
}
_SUBMODULE = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = [
    "KERNEL_IMPL",
    "FormatError",
    "Infeasible",
    "InvalidPartition",
    "NegativeDegree",
    "NotGraphical",
    "NotUnigraph",
    "ParamOutOfRange",
    "TooLarge",
    "UnigraphError",
    "VariantUndefined",
    *_SUBMODULE,
]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
