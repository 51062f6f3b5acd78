"""Degree-sequence decomposition and unigraph toolkit.

Decomposes any graphical degree sequence into its canonical indecomposable
components, recognizes unigraphs together with their component types, and
computes clique, independence, vertex-cover, chromatic, fixing, and
distinguishing numbers of unigraphs in time linear in the input. A
brute-force oracle cross-validates everything at small sizes.

All public values are immutable and all operations are pure functions, so
they are safe to share across threads.
"""

from ._kernel import IMPL as KERNEL_IMPL
from .degseq import (
    DegreeSequence,
    PairedDegreeSequence,
    complement_paired,
    complement_seq,
    compose_seq,
    inverse_paired,
    is_graphical,
    normalize,
    parse_paired,
    parse_sequence,
    realize,
)
from .decomp import (
    Decomposition,
    compact,
    compose_all,
    decompose,
    find_split_point,
)
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
from .gen import GenSpec, compose_types, generate
from .graphcore import (
    Graph,
    VertexPartition,
    complement_graph,
    compose_graphs,
    degree_sequence_of,
    inverse_graph,
)
from .params import (
    ParamSet,
    compact_typed,
    component_dist,
    component_fix,
    component_omega_alpha,
    core_params,
    unigraph_params,
)
from .split import SplitClass, SplitKind, determine_split, smax_partition
from .unitype import (
    Base,
    TypedComponent,
    UnigraphReport,
    Variant,
    apply_variant,
    is_unigraph,
    match_nonsplit_type,
    match_split_type,
    type_to_sequence,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
