"""Entropy lower bounds for shift spaces whose alphabet symbols may overlap.

The central object is the TI-graph: a directed transition graph T (the
shift of finite type) merged with a simple undirected intersection graph I
recording which symbols overlap.  The package computes the classical
entropy of T, several certified lower bounds for the overlap entropy
(independent subshifts, primitive and periodic component estimates, the
I-component sofic shift, and the higher-shift supremum), and a brute-force
separated-word oracle (``oracle_separated_count``) for cross-checking.
``verify_bound`` re-checks any bound's certificate.  The bounds read T's
SCCs, periods and primitivity indices from ``Digraph.structure``, which
analyses a graph once and caches the result.
"""

from .bounds import (
    Bound,
    BoundReport,
    LimitEntry,
    LimitSequence,
    SeparatedCount,
    best_bound,
    complete_digraph_bound,
    component_bound,
    graph_digest,
    independent_subshift_bound,
    limit_sequence,
    oracle_separated_count,
    primitive_bound,
    sofic_bound,
    verify_bound,
)
from .config import Config
from .errors import (
    DegenerateCoverError,
    EmptyGraphError,
    LengthMismatchError,
    NoConvergenceError,
    NotPrimitiveError,
    ParseError,
    SizeCapExceeded,
    StateCapExceeded,
    TigraphError,
    ValidationError,
)
from .graph import (
    Digraph,
    TIGraph,
    UGraph,
    Word,
    export_dot,
    induced_subgraph,
    is_vertex_path,
    parse_tigraph,
    prune_stranded,
    serialize_tigraph,
)
from .higher import HigherGraph, higher_graph, words_indistinguishable
from .independence import IndependenceResult, max_independent_set
from .ingest import (
    Arc,
    CircleMap,
    IntervalCover,
    doubling_map,
    load_map_spec,
    ti_from_circle,
)
from .sofic import (
    LabeledGraph,
    RightResolvingPresentation,
    clique_components_check,
    component_labeling,
    right_resolve,
    sofic_entropy,
)
from .spectral import SpectralResult, perron_eigenvalue, sft_entropy
from .structure import (
    StructureReport,
    analyze_structure,
    primitivity_index,
    scc_decompose,
    wielandt_cap,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
