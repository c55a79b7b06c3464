"""Low-discrepancy two-colorings of set systems derived from sparse
graphs: constructive bounded-degree rounding, ordering-certified bounds
for graph powers, constant bounds for quantifier-free definable systems,
and epsilon-approximations by iterated halving, with exhaustive oracles
that certify every bound at desk scale.
"""

from .discrepancy import (
    Coloring,
    beck_fiala,
    eval_discrepancy,
    exact_discrepancy,
    herdisc_search,
    spectral_lower_bound,
)
from .graphs import (
    Graph,
    HadamardMatrix,
    generate_family,
    graph_power,
    graph_stats,
    hadamard,
    read_edge_list,
    subdivide,
    sylvester_graph,
    write_edge_list,
)
from .orderings import (
    LinearOrder,
    Orientation,
    degeneracy_order,
    orient_along,
    wcol_exact,
    wcol_from_order,
    weak_reach,
)
from .setsystems import (
    SetSystem,
    bipartite_double,
    degree,
    dual,
    edge_color_system,
    intersection_closure,
    neighborhood_system,
    shatter,
    trace,
    vc_dimension,
)

__all__ = [
    "Coloring",
    "Graph",
    "HadamardMatrix",
    "LinearOrder",
    "Orientation",
    "SetSystem",
    "beck_fiala",
    "bipartite_double",
    "degeneracy_order",
    "degree",
    "dual",
    "edge_color_system",
    "eval_discrepancy",
    "exact_discrepancy",
    "generate_family",
    "graph_power",
    "graph_stats",
    "hadamard",
    "herdisc_search",
    "intersection_closure",
    "neighborhood_system",
    "orient_along",
    "read_edge_list",
    "shatter",
    "spectral_lower_bound",
    "subdivide",
    "sylvester_graph",
    "trace",
    "vc_dimension",
    "wcol_exact",
    "wcol_from_order",
    "weak_reach",
    "write_edge_list",
]
