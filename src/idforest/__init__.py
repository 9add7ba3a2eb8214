"""idforest: how far a graph is from being a forest, measured in
identifications.

The headline quantity is the minimum total size of a set of disjoint vertex
blocks whose simultaneous identification (each block collapses to a single
heir vertex) leaves a forest.  It equals the vertex cover number of the
graph with its bridges removed, which makes it computable by kernelization
and exact branching at useful sizes; the package also ships obstruction-set
enumeration, minor detectors with a witness-or-certificate dichotomy, and
independent brute-force oracles for every fast path.
"""

from .canon import (CANON_MAX_VERTICES, canonical_form, canonical_graph,
                    canonical_labeling, is_isomorphic)
from .errors import (Graph6ParseError, InvalidBlockError, NotPresentError,
                     SizeLimitError, WorkerLostError)
from .graph import (Graph, bridges, complete_graph, connected_components,
                    cut_vertices, cycle_graph, delete_edge, delete_vertex,
                    disjoint_union, induced_subgraph, is_2_connected,
                    is_connected, is_forest, path_graph, remove_bridges,
                    with_new_vertex)
from .graphio import (GRAPH6_MAX_VERTICES, edge_list_str, edge_list_to_graph,
                      graph6_bytes, graph6_str, graph6_to_graph)
from .identify import (VertexPartition, contract_edge, identify_partition,
                       is_id_forest_partition, normalize_partition,
                       partition_to_text, text_to_partition)
from .minors import (CYCLE_SEARCH_MAX, MARGUERITE_SEARCH_MAX,
                     DichotomyOutcome, circumference, cycle_packing,
                     dichotomy, exact_fvs, gen_antichain_h, gen_cycle,
                     gen_marguerite, gen_triangles, longest_cycle,
                     marguerite_model, max_cycle_packing, max_marguerite)
from .obstructions import (ENUMERATION_MAX_VERTICES, CheckResult,
                           FamilyClaim, ObstructionReport,
                           enumerate_graphs, family_obstruction_report,
                           obs_idf, obs_vc, verify_section4, write_catalog)
from .oracle import (BRUTE_ECF_MAX_EDGES, BRUTE_IDF_MAX, BRUTE_MINOR_MAX,
                     BRUTE_VC_MAX, EcfValue, MinorModel, brute_ecf,
                     brute_idf, brute_minor, brute_vc)
from .solver import (IdfCertificate, apex_bridgeless, idf_decision, idf_exact,
                     idf_kernel, partition_from_cover, vc_to_idf)
from .vc import (VC_MAX_VERTICES, KernelInstance, VcSolution,
                 lp_half_integral, nt_kernel, vc_decision, vc_exact)

__version__ = "0.1.0"

__all__ = [
    "CANON_MAX_VERTICES", "GRAPH6_MAX_VERTICES", "VC_MAX_VERTICES",
    "BRUTE_IDF_MAX", "BRUTE_VC_MAX", "BRUTE_ECF_MAX_EDGES", "BRUTE_MINOR_MAX",
    "CYCLE_SEARCH_MAX", "MARGUERITE_SEARCH_MAX", "ENUMERATION_MAX_VERTICES",
    "Graph", "Graph6ParseError", "InvalidBlockError", "NotPresentError",
    "SizeLimitError", "WorkerLostError",
    "VertexPartition", "IdfCertificate", "KernelInstance",
    "VcSolution", "EcfValue", "MinorModel", "DichotomyOutcome",
    "ObstructionReport", "CheckResult", "FamilyClaim",
    "bridges", "complete_graph",
    "connected_components", "contract_edge", "cut_vertices", "cycle_graph",
    "delete_edge", "delete_vertex", "disjoint_union", "induced_subgraph",
    "is_2_connected", "is_connected", "is_forest", "path_graph",
    "remove_bridges", "with_new_vertex",
    "canonical_form", "canonical_graph", "canonical_labeling", "is_isomorphic",
    "edge_list_str", "edge_list_to_graph", "graph6_bytes", "graph6_str",
    "graph6_to_graph",
    "identify_partition", "is_id_forest_partition",
    "normalize_partition", "partition_to_text", "text_to_partition",
    "lp_half_integral", "nt_kernel", "vc_decision",
    "vc_exact",
    "idf_exact", "idf_decision", "idf_kernel", "apex_bridgeless", "vc_to_idf",
    "partition_from_cover",
    "brute_idf", "brute_vc", "brute_ecf", "brute_minor",
    "gen_cycle", "gen_triangles", "gen_marguerite", "gen_antichain_h",
    "longest_cycle", "circumference", "cycle_packing", "max_cycle_packing",
    "marguerite_model", "max_marguerite", "exact_fvs", "dichotomy",
    "enumerate_graphs", "obs_vc",
    "obs_idf", "verify_section4", "family_obstruction_report",
    "write_catalog",
]
