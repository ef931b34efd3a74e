"""Line consistency of signed multigraphs.

A signed graph is line consistent when its line graph, with vertex marks
inherited from the edge signs, has positive vertex-sign product around every
circle.  This package provides the data model, the line-graph construction,
definitional oracles, several independent fast checks that provably agree
with them, structural classification, generators, serialization, and a CLI.
"""

from .analysis import (
    Block,
    ComponentReport,
    StructureReport,
    Verdict,
    blocks,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    check_corollary_3,
    check_theorem1_simple,
    classify_structure,
    find_isthmi,
    find_negative_circle,
    find_witness,
    is_balanced_fast,
)
from .core import (
    Circle,
    Edge,
    GraphError,
    MarkedGraph,
    MarkedVertex,
    Sign,
    SignedEdge,
    SignedGraph,
    new_marked_graph,
    new_signed_graph,
    sign_product,
    validate_circle,
)
from .cycles import (
    CircleLimitError,
    ConsistencyResult,
    circle_vertex_sign,
    enumerate_circles,
    is_balanced_oracle,
    is_consistent_oracle,
)
from .generate import (
    Recipe,
    exhaustive_signed_graphs,
    generate_line_consistent,
    random_recipe,
    random_signed_graph,
)
from .io import (
    GraphFormatError,
    export_dot,
    read_signed_graph,
    structure_report_to_dict,
    write_marked_graph,
    write_signed_graph,
)
from .linegraph import circle_image, line_edge_id, line_graph

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Circle",
    "CircleLimitError",
    "ComponentReport",
    "ConsistencyResult",
    "Edge",
    "GraphError",
    "GraphFormatError",
    "MarkedGraph",
    "MarkedVertex",
    "Recipe",
    "Sign",
    "SignedEdge",
    "SignedGraph",
    "StructureReport",
    "Verdict",
    "blocks",
    "check_condition_i",
    "check_condition_ii",
    "check_condition_iii",
    "check_corollary_3",
    "check_theorem1_simple",
    "circle_image",
    "circle_vertex_sign",
    "classify_structure",
    "enumerate_circles",
    "exhaustive_signed_graphs",
    "export_dot",
    "find_isthmi",
    "find_negative_circle",
    "find_witness",
    "generate_line_consistent",
    "is_balanced_fast",
    "is_balanced_oracle",
    "is_consistent_oracle",
    "line_edge_id",
    "line_graph",
    "new_marked_graph",
    "new_signed_graph",
    "random_recipe",
    "random_signed_graph",
    "read_signed_graph",
    "sign_product",
    "structure_report_to_dict",
    "validate_circle",
    "write_marked_graph",
    "write_signed_graph",
]
