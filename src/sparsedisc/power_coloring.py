"""Coloring pipelines that certify neighborhood discrepancy bounds from
orderings.

For graph powers: build the weak-reachability star system for a fixed
order L, color it with the constructive solver, and certify the bound
(2d*M_{d-1} + 1)*M_d where M_i is the maximum weak-i-reach size under L.
Every neighborhood of G^d decomposes into at most M_{d-1} star sets plus
a remainder inside one weak-reach set, which is where the bound comes from.
The achieved discrepancy is summed straight from the BFS balls of
`graphs.balls`, without building G^d.  POWER_STAR_CAP bounds n*d before
any pass (the reach profile has d + 1 entries, counted per vertex) and the
star system's incidences before it is built.

For d = 1 there is a leaner pipeline: color the in-neighborhood system of
a bounded out-degree orientation; out-neighborhoods add at most deg(G)
per set, giving discrepancy strictly below 3*deg(G).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .discrepancy import Coloring, beck_fiala
from .errors import ResourceLimitError
from .graphs import Graph, balls
from .orderings import (
    LinearOrder,
    degeneracy_order,
    orient_along,
    weak_reach,
)
from .setsystems import SetSystem

# unused here; perfbench/tracing.py wraps them by attribute name
from .discrepancy import eval_discrepancy  # noqa: F401
from .graphs import graph_power  # noqa: F401
from .setsystems import neighborhood_system  # noqa: F401

POWER_STAR_CAP = 10_000_000  # caps n*d and the star system's incidences


@dataclass(frozen=True)
class PowerColoringCertificate:
    d: int
    ordering: LinearOrder
    reach_profile: tuple[int, ...]  # M_0..M_d
    claimed_bound: int
    achieved: int

    def __post_init__(self):
        assert self.reach_profile[0] == 1
        assert all(a <= b for a, b in zip(self.reach_profile, self.reach_profile[1:]))
        assert self.achieved < self.claimed_bound

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": self.d,
                "reach_profile": list(self.reach_profile),
                "claimed_bound": self.claimed_bound,
                "achieved": self.achieved,
                "order": self.ordering.sequence(),
            },
            separators=(",", ":"),
        )


def wreach_star_system(g: Graph, order: LinearOrder, d: int) -> SetSystem:
    """One set per (vertex z, radius i <= d): all vertices that weakly
    i-reach z.  Each element u lies in at most d * max|WReach_d| sets,
    because u is only in the (z, i) star when z is in u's weak i-reach."""
    if d < 1:
        raise ValueError("radius must be at least 1")
    rows = weak_reach(g, order, d)
    radii = [row.values() for row in rows]
    # the (z, i) stars with i past the largest radius found repeat the
    # (z, top) star, so only radii up to top are built
    top = max(1, max(map(max, radii), default=0))
    # the pair (u, z) at radius r lies in the stars of radii max(r, 1)..top,
    # and each row holds one pair at radius 0 (u itself)
    size = (top + 1) * sum(map(len, radii)) - sum(map(sum, radii)) - g.n
    if size > POWER_STAR_CAP:
        raise ResourceLimitError(
            f"star system capped at {POWER_STAR_CAP} incidences, needs {size}"
        )
    stars: list[set[int]] = [set() for _ in range(g.n * top)]
    for u, row in enumerate(rows):
        for z, r in row.items():
            for i in range(max(r, 1), top + 1):
                stars[(i - 1) * g.n + z].add(u)
    return SetSystem.from_sets(g.n, stars)


def reach_profile(g: Graph, order: LinearOrder, d: int) -> tuple[int, ...]:
    """M_i = max_v |WReach_i| for i = 0..d (M_0 is always 1)."""
    profile = [1] * (d + 1)
    for row in weak_reach(g, order, d):
        counts = [0] * (d + 1)
        for r in row.values():
            counts[r] += 1
        size = 0
        for i in range(d + 1):
            size += counts[i]
            if size > profile[i]:
                profile[i] = size
    return tuple(profile)


def power_coloring(
    g: Graph, d: int, order: Optional[LinearOrder] = None
) -> tuple[Coloring, PowerColoringCertificate]:
    """Color V(G) so that the neighborhood system of G^d has discrepancy
    strictly below the ordering-relative bound (2d*M_{d-1} + 1)*M_d."""
    if d < 1:
        raise ValueError("power radius must be at least 1")
    if g.n * d > POWER_STAR_CAP:
        raise ResourceLimitError(
            f"power coloring capped at n*d <= {POWER_STAR_CAP}, got {g.n}*{d}"
        )
    if order is None:
        order, _ = degeneracy_order(g)
    profile = reach_profile(g, order, d)
    chi = beck_fiala(wreach_star_system(g, order, d))
    bound = (2 * d * profile[d - 1] + 1) * profile[d]
    values = chi.values
    achieved = max((abs(sum([values[w] for w in b])) for b in balls(g, d)), default=0)
    cert = PowerColoringCertificate(d, order, profile, bound, achieved)
    return chi, cert


def in_neighborhood_system(g: Graph, order: Optional[LinearOrder] = None) -> SetSystem:
    """In-neighborhoods under the orientation along the order (defaults to
    the degeneracy order); its degree is the orientation's max out-degree."""
    if order is None:
        order, _ = degeneracy_order(g)
    orientation = orient_along(g, order)
    return SetSystem.from_sets(g.n, orientation.in_neighbors())


def orientation_coloring(g: Graph) -> tuple[Coloring, int]:
    """Color V(G) with neighborhood discrepancy < 3*deg(G).

    Returns the coloring and the bound 3*deg(G).  The in-neighborhood
    system has degree at most deg(G), so its solver coloring is below
    2*deg(G) on every in-neighborhood; out-neighborhoods contribute at
    most deg(G) more per vertex.
    """
    order, dgn = degeneracy_order(g)
    chi = beck_fiala(in_neighborhood_system(g, order))
    return chi, 3 * dgn
