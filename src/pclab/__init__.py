"""pclab: exact proper connection numbers of small graphs, with certificates."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ColoringFormatError,
    ConstructionError,
    GraphFormatError,
    PclabError,
    PreconditionError,
    UnsupportedSizeError,
)
from .graph import (
    BridgeProfile,
    Graph,
    LayeredView,
    StructureFlags,
    are_isomorphic,
    bridge_profile,
    canonical_code,
    canonical_form,
    canonical_graph,
    complement,
    components,
    diameter,
    is_connected,
    layered_view,
    relabel,
    structure_flags,
)
from .graph6 import graph6_decode, graph6_encode, iter_graph6, read_graph6_file
from .generators import (
    FamilySpec,
    complete_graph,
    complete_multipartite,
    cycle4_plus_edge,
    cycle_graph,
    double_star,
    enumerate_connected,
    generate,
    path_graph,
    star_graph,
    star_plus_edge,
)
from .coloring import (
    ConnectivityCheck,
    EdgeColoring,
    PathCheck,
    check_tree_witness,
    endpoint_color_pairs,
    format_coloring,
    has_strong_property,
    is_proper_connected,
    is_proper_path,
    parse_coloring,
)
from .solver import (
    PcResult,
    SolverBudget,
    SolverStats,
    exact_pc,
    exists_k_coloring,
    pc_lower_bound,
    pc_upper_bound,
)
from .constructions import (
    ClassificationVerdict,
    Construction,
    Diam3Analysis,
    DispatchResult,
    analyze_diam3,
    auto_pc2_complement,
    classify_pc_n_minus_2,
    color_complement_diam2_trianglefree,
    color_complement_diam3_trianglefree,
    color_complement_diam_ge4,
    color_complement_with_trivial_component,
)
from .census import (
    CensusReport,
    emit_report,
    run_construction_sweep,
    run_ng_census,
    run_pc_census,
)
