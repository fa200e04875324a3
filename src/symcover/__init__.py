"""Cover ideals of graphs, their symbolic powers, duplication constructions,
and exact vertex-decomposability checks, with a scenario harness for the
whiskered-cycle-cover theorems this package mechanizes."""

from .graphs import (
    Graph,
    GraphError,
    StarCompleteSpec,
    WhiskeredGraph,
    add_whiskers,
    attach_star_complete,
    build_graph,
    glue_along_edge,
    load_graph,
    parse_graph_text,
    render_graph_text,
    save_graph,
)
from .duplication import (
    duplicate_edges,
    duplicate_vertices,
    parse_tuple,
    render_tuple,
    satisfies_whisker_dominance,
    shadows_of,
)
from .ideals import (
    IdealError,
    Monomial,
    MonomialIdeal,
    cover_ideal,
    depolarize,
    has_linear_quotients,
    is_linear_quotients_order,
    load_ideal,
    parse_ideal_text,
    parse_monomial,
    polarize,
    render_ideal_text,
    symbolic_power,
)
from .decomposability import (
    DecompositionCertificate,
    DecompositionEngine,
    SheddingSequenceTrace,
    check_shedding_sequence,
    is_shedding_vertex,
    is_vertex_decomposable,
    linear_order_from_certificate,
    render_certificate,
    validate_certificate,
    vertex_decomposable,
)
from .scenarios import (
    ScenarioReport,
    ScenarioStep,
    counterexample_search,
    verify_edge_theorem,
    verify_glue_star,
    verify_glue_theorem,
    verify_main_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
