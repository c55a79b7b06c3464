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
    generate_family,
    graph_power,
    hadamard,
    read_edge_list,
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
    degree,
    edge_color_system,
    intersection_closure,
    neighborhood_system,
    trace,
)

__all__ = [
    "Coloring",
    "Graph",
    "LinearOrder",
    "Orientation",
    "SetSystem",
    "beck_fiala",
    "degeneracy_order",
    "degree",
    "edge_color_system",
    "eval_discrepancy",
    "exact_discrepancy",
    "generate_family",
    "graph_power",
    "hadamard",
    "herdisc_search",
    "intersection_closure",
    "neighborhood_system",
    "orient_along",
    "read_edge_list",
    "spectral_lower_bound",
    "sylvester_graph",
    "trace",
    "wcol_exact",
    "wcol_from_order",
    "weak_reach",
    "write_edge_list",
]
