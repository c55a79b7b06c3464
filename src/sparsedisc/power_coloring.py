"""Coloring pipelines that certify neighborhood discrepancy bounds from
orderings.

For graph powers: build the weak-reachability star system for a fixed
order L, color it with the constructive solver, and certify the bound
(2d*M_{d-1} + 1)*M_d where M_i is the maximum weak-i-reach size under L.
Every neighborhood of G^d decomposes into at most M_{d-1} star sets plus
a remainder inside one weak-reach set, which is where the bound comes from.
One weak-reach pass (`orderings.weak_reach`, root-major BFS levels) feeds
both the reach profile (`orderings.reach_profile`) and the star system;
each root's stars are the sorted prefixes of its BFS list, one per level,
so no star is built twice.  The achieved discrepancy is summed straight
from the BFS balls of `graphs.balls`, without building G^d.
POWER_STAR_CAP bounds n*d before any pass (the reach profile has d + 1
entries) and the incidences of the stars built so far, as they are built.

For d = 1 there is a leaner pipeline: color the in-neighborhood system of
the orientation along the order, whose out-degree is at most deg(G).  A
vertex's in-neighbors are its later neighbors, radius 1 of its weak-reach
levels.  Out-neighborhoods add at most deg(G) per set, giving discrepancy
strictly below 3*deg(G).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .discrepancy import Coloring, beck_fiala
from .errors import ResourceLimitError
from .graphs import Graph, balls
# by name: perfbench/tracing.py wraps reach_profile and weak_reach here
from .orderings import LinearOrder, degeneracy_order, reach_profile, weak_reach
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


def wreach_star_system(levels: list[list[list[int]]], d: int) -> SetSystem:
    """One set per (vertex z, radius i <= d): all vertices that weakly
    i-reach z, read from the root-major levels of `weak_reach(g, order, d)`.
    Each element u lies in at most d * max|WReach_d| sets, because u is only
    in the (z, i) star when z is in u's weak i-reach.

    The stars of root z are nested, (z, 1) <= ... <= (z, top), and the
    (z, i) star is the sorted prefix of z's BFS list through level i.  Only
    radii 1..len(levels[z]) - 1 are built (radius 1 alone when z's BFS is
    only [z]), because the stars of larger radii repeat the last one, and
    each built star strictly contains the one before.  Stars of different
    roots differ too: the root is the unique earliest-ranked element of its
    star.  So the stars are already distinct and only need sorting.
    """
    if d < 1:
        raise ValueError("radius must be at least 1")
    stars: list[tuple[int, ...]] = []
    size = 0
    for lv in levels:
        star = lv[0]
        # a root whose BFS is only [z] still has its radius-1 star {z}
        for layer in lv[1:] or [[]]:
            star = sorted(star + layer)
            stars.append(tuple(star))
            size += len(star)
            if size > POWER_STAR_CAP:
                raise ResourceLimitError(
                    f"star system capped at {POWER_STAR_CAP} incidences, needs at least {size}"
                )
    stars.sort()
    return SetSystem(len(levels), tuple(stars))


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
    levels = weak_reach(g, order, d)
    profile = reach_profile(levels, d)
    chi = beck_fiala(wreach_star_system(levels, d))
    bound = (2 * d * profile[d - 1] + 1) * profile[d]
    values = chi.values
    achieved = max((abs(sum([values[w] for w in b])) for b in balls(g, d)), default=0)
    cert = PowerColoringCertificate(d, order, profile, bound, achieved)
    return chi, cert


def in_neighborhood_system(g: Graph, order: Optional[LinearOrder] = None) -> SetSystem:
    """In-neighborhoods under the orientation along the order (defaults to
    the degeneracy order): each vertex's later neighbors, level 1 of its
    `weak_reach` levels.  Its degree is the orientation's max out-degree."""
    if order is None:
        order, _ = degeneracy_order(g)
    return SetSystem.from_sets(g.n, (lv[1] for lv in weak_reach(g, order, 1) if len(lv) > 1))


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
