"""Coloring pipelines that certify neighborhood discrepancy bounds from
orderings.

For graph powers: build the weak-reachability star system for a fixed
order L, color it with the constructive solver, and certify the bound
(2d*M_{d-1} + 1)*M_d where M_i is the maximum weak-i-reach size under L.
Every neighborhood of G^d decomposes into at most M_{d-1} star sets plus
a remainder inside one weak-reach set, which is where the bound comes from.

One reach pass feeds both the reach profile and the star system.  Inside
the size rule in `graphs` (`fits_masks`) that is one `graphs._reach_masks`
pass with the order's positions, drawn to radius d: M_i is the largest
popcount after round i, as in `orderings.wcol_profile`, and the stars are
the unpacked rows of the same rounds (`_mask_reach`).  Above the size
rule one weak-reach pass (`orderings.weak_reach`, root-major BFS levels)
feeds the reach profile (`orderings.reach_profile`) and the star system
(each root's stars are the sorted prefixes of its BFS list, one per
level).  No star is built twice on either route.  The mask read costs
about n^2 bytes per round whatever the reach, which sparse graphs near
MASK_MAX_N pay for.  BFS time / mask time of the profile and star system
(the "stars" reader of scripts/reach_kernel_ratios.py: best of 5 calls on
a fresh copy of the graph under its smallest-last order; above 1 the
masks win); p=k is random_degenerate_graph(n, k, 0), grid the 11x11 and
32x32 grids, sylv the Sylvester graph on n vertices:

    n     graph  r=1    r=2    r=3    r=4
    128   p=3    0.95   0.98   1.16   1.27
    128   p=6    1.11   1.54   2.37   2.39
    128   path   1.07   1.03   0.99   1.10
    128   grid   1.08   1.16   1.20   1.39
    128   sylv   1.28   3.93   5.16   6.47
    1024  p=3    0.60   0.56   0.68   0.87
    1024  p=6    0.65   0.84   1.32   1.62
    1024  path   0.55   0.49   0.44   0.41
    1024  grid   0.58   0.55   0.62   0.64
    1024  sylv   0.83  11.69  19.82  23.27

At n = 128 no cell loses more than 5%; at n = 1024 the paths, grids and
sparse degenerate graphs lose up to 2.4x on this part of the call, the
cost of one route per side of the size rule (the Sylvester graph at
r = 1 is the pass itself losing to a BFS of one level).
POWER_STAR_CAP bounds n*d before any pass (the reach profile has d + 1
entries) and the incidences of the stars as they are built, or, on the
mask read, as each round's row popcounts count them.

For d = 1 there is a leaner pipeline: color the in-neighborhood system of
the orientation along the order, whose out-degree is at most deg(G).  A
vertex's in-neighbors are its later neighbors, read from its sorted
adjacency row.  Out-neighborhoods add at most deg(G) per set, giving
discrepancy strictly below 3*deg(G).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional

import numpy as np

from . import graphs
from .discrepancy import Coloring, beck_fiala
from .errors import ResourceLimitError
from .graphs import Graph, ball_sums
# by name: perfbench/tracing.py wraps reach_profile and weak_reach here
from .orderings import LinearOrder, _check_reach_args, degeneracy_order, reach_profile, weak_reach
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
            _check_star_cap(size)
    stars.sort()
    return SetSystem(len(levels), tuple(stars))


def _check_star_cap(size: int) -> None:
    if size > POWER_STAR_CAP:
        raise ResourceLimitError(
            f"star system capped at {POWER_STAR_CAP} incidences, needs at least {size}"
        )


def _mask_reach(g: Graph, order: LinearOrder, d: int) -> tuple[tuple[int, ...], SetSystem]:
    """M_0..M_d, the largest popcount of each round of one
    `graphs._reach_masks` pass drawn to radius d (M past the pass's last
    round equals M there), and the star system read off the same rounds.

    Round i holds the stars of radius i: unpacked little-endian, its row r
    is the star of the root of rank r.  Every row of round 1 is a star, and
    after it the rows whose popcount grew, since stars are nested; a pass
    that ends after round 0 (no edges) leaves the singletons.  Each round
    is read as it is drawn, since the masks change in place, so the read
    holds one unpacked round at a time (about n * 64 * ceil(n/64) bytes,
    a few copies of it while it is transposed and filtered) beside the
    star incidences, which POWER_STAR_CAP bounds: it is checked on each
    round's row popcounts before any tuple is built.
    """
    n, words = g.n, -(-g.n // 64)
    rounds = islice(graphs._reach_masks(g, order.position), d + 1)
    zero = next(rounds)
    profile, cols, counts, size = [1], [], [], 0
    # every row of round 1 grew from 0: each star holds its root
    before = np.zeros(n, dtype=np.int64)
    # rounds 1..d, or round 0 (its rows the singletons) if the pass ends there
    for masks, sizes in chain([next(rounds, zero)], rounds):
        profile.append(int(sizes.max(initial=1)))
        bits = np.unpackbits(
            masks.astype("<u8", copy=False).view(np.uint8).reshape(words, n, 8),
            axis=2,
            bitorder="little",
        )
        rows = bits.transpose(0, 2, 1).reshape(words * 64, n)[:n].view(bool)
        count = rows.sum(axis=1)
        grown = count > before
        rows, before, count = rows[grown], count, count[grown]
        size += int(count.sum())
        _check_star_cap(size)
        cols.append(np.flatnonzero(rows) % n)
        counts.append(count)
    profile += profile[-1:] * (d + 1 - len(profile))
    members = iter(np.concatenate(cols).tolist())
    stars = sorted(tuple(islice(members, c)) for c in np.concatenate(counts).tolist())
    return tuple(profile), SetSystem(n, tuple(stars))


def _max_ball_sum(g: Graph, d: int, values: tuple[int, ...]) -> int:
    """max over v of |sum of values over the vertices at distance 1..d|."""
    x = np.array(values, dtype=np.int64)
    # each closed ball holds v itself, whose value is taken back out
    return int(np.abs(ball_sums(g, d, x) - x).max(initial=0))


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
    _check_reach_args(g, order, d)
    if graphs.fits_masks(g):
        profile, stars = _mask_reach(g, order, d)
    else:
        levels = weak_reach(g, order, d)
        profile, stars = reach_profile(levels, d), wreach_star_system(levels, d)
    chi = beck_fiala(stars)
    bound = (2 * d * profile[d - 1] + 1) * profile[d]
    achieved = _max_ball_sum(g, d, chi.values)
    cert = PowerColoringCertificate(d, order, profile, bound, achieved)
    return chi, cert


def in_neighborhood_system(g: Graph, order: LinearOrder) -> SetSystem:
    """In-neighborhoods under the orientation along the order: each
    vertex's later neighbors (the mirror of `orderings.orient_along`),
    deduplicated as `neighborhood_system` does, since a filtered sorted
    row stays sorted.  Its degree is the orientation's max out-degree."""
    _check_reach_args(g, order, 1)
    pos = order.position
    later = (tuple(w for w in nbrs if pos[w] > p) for nbrs, p in zip(g.adjacency, pos))
    return SetSystem(g.n, tuple(sorted(set(later) - {()})))


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
