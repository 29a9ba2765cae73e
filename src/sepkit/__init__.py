"""Treewidth-reducing separator toolkit.

Computes a bounded-treewidth replacement graph that preserves all small
minimal s-t separators, then solves hereditary-class-constrained cut and
bipartization problems on it, with brute-force oracles validating results at
desk scale.
"""

from .chains import SeparatorChain, build_chain, validate_chain
from .graphs import (
    DomainError,
    Graph,
    GraphError,
    ParseError,
    boundary,
    components,
    contract_terminal_sets,
    induced_subgraph,
    parse_graph,
    serialize_graph,
    shortest_odd_cycle,
    two_coloring,
)
from .problems import (
    AnnotatedInstance,
    BipartizationBranch,
    EdgeCutWitness,
    edge_induced_vertex_cut,
    exact_separator_union,
    exact_stable_bipartization,
    odd_cycle_transversal,
    stable_bipartization,
    stable_st_cut,
)
from .reduction import (
    GADGET,
    ReducedInstance,
    TreewidthBounds,
    cover_set,
    reduce_instance,
    torso,
    tw_bound,
)
from .separation import (
    INFINITE,
    SeparatorResult,
    is_separator,
    min_separator_containing,
    min_vertex_separator,
    minimalize_separator,
)
from .solver import (
    ANY,
    BIPARTITE,
    EDGELESS,
    FOREST,
    MATCH_DEFICIENCY,
    MAX_DEGREE,
    FORBIDDEN_INDUCED,
    CutConstraints,
    DPWitness,
    HereditaryClass,
    VerificationError,
    dp_constrained_cut,
    g_mincut,
    g_multicut_uncut,
    parse_class,
)
from .treedecomp import (
    NiceDecomposition,
    TreeDecomposition,
    decompose,
    exact_treewidth,
    make_nice,
    validate_decomposition,
)

__all__ = [
    "ANY", "AnnotatedInstance", "BIPARTITE", "BipartizationBranch",
    "CutConstraints", "DPWitness", "DomainError", "EDGELESS", "EdgeCutWitness",
    "FORBIDDEN_INDUCED", "FOREST", "GADGET", "Graph", "GraphError",
    "HereditaryClass", "INFINITE", "MATCH_DEFICIENCY", "MAX_DEGREE",
    "NiceDecomposition", "ParseError", "ReducedInstance", "SeparatorChain",
    "SeparatorResult", "TreeDecomposition", "TreewidthBounds",
    "VerificationError", "boundary", "build_chain", "components",
    "contract_terminal_sets", "cover_set",
    "decompose", "dp_constrained_cut", "edge_induced_vertex_cut",
    "exact_separator_union", "exact_stable_bipartization", "exact_treewidth",
    "g_mincut", "g_multicut_uncut", "induced_subgraph", "is_separator",
    "make_nice", "min_separator_containing", "min_vertex_separator",
    "minimalize_separator", "odd_cycle_transversal", "parse_class",
    "parse_graph", "reduce_instance", "serialize_graph", "shortest_odd_cycle",
    "stable_bipartization", "stable_st_cut", "torso", "tw_bound",
    "two_coloring", "validate_chain", "validate_decomposition",
]

__version__ = "0.1.0"
