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
popcount after round i, as in `orderings.wcol_profile`.  When those
rounds are dense, the stars are read off them too (`_mask_reach`);
otherwise, and above the size rule, one weak-reach pass
(`orderings.weak_reach`, root-major BFS levels) feeds the star system
(each root's stars are the sorted prefixes of its BFS list, one per
level), and above the size rule the reach profile
(`orderings.reach_profile`).  No star is built twice on either route.
The dense read costs about n^2 bytes per round whatever the reach, so it
is made only when the rounds' popcount totals hold at least
DENSE_PAIRS_PER_WORD (root, vertex) pairs per 64-bit mask word per round.
BFS time / mask time of the profile and star system (the "stars" reader
of scripts/reach_kernel_ratios.py: best of 3 calls on a fresh copy of the
graph under its smallest-last order; above 1 the masks win), with that
density in parentheses; p=k is random_degenerate_graph(n, k, 0), grid the
11x11 and 32x32 grids, sylv the Sylvester graph on n vertices:

    n     graph  r=1           r=2           r=3           r=4
    64    p=3     0.64 (2.39)   0.82 (3.55)   0.89 (4.96)   0.96 (6.43)
    64    p=6     0.87 (4.03)   1.22 (8.09)   1.55 (12.13)  1.51 (14.89)
    64    path    0.82 (1.98)   0.81 (2.47)   0.84 (2.95)   0.81 (3.42)
    64    sylv    0.94 (9.25)   1.90 (17.00)  2.78 (22.17)  3.11 (22.17)
    128   p=3     0.94 (1.18)   0.96 (1.81)   1.08 (2.68)   1.27 (3.73)
    128   p=6     1.01 (2.14)   1.43 (4.97)   2.06 (8.81)   1.90 (11.99)
    128   path    1.13 (1.00)   1.03 (1.24)   0.97 (1.49)   1.01 (1.73)
    128   grid    1.04 (1.41)   0.92 (2.23)   1.10 (3.24)   1.25 (4.41)
    1024  p=3     0.61 (0.16)   0.61 (0.26)   0.64 (0.46)   0.79 (0.83)
    1024  p=6     1.17 (0.25)   1.16 (0.68)   1.50 (1.85)   1.83 (3.87)
    1024  path    0.59 (0.12)   0.47 (0.16)   0.44 (0.19)   0.42 (0.22)
    1024  grid    0.63 (0.18)   0.53 (0.30)   0.59 (0.45)   0.66 (0.64)
    1024  sylv    0.77 (8.08)  13.39 (16.06) 22.07 (21.39) 24.46 (21.39)

From n = 128 up (sizes 128, 256, 512 and 1024 were run) the read won
every cell at 2 pairs per word or more but one (the 128 grid at r = 2),
and the paths and grids at n = 1024, all below 1, lose up to 2.4x, which
is what the rule is for; the Sylvester graph at n = 1024 and r = 1 is the
pass itself losing to a BFS of one level over 131,328 edges.  At n = 64 a
round costs little either way and the read lost cells up to 6.4 pairs,
by at most 1.6x; the rule stays on the density alone.
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
from itertools import islice
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
DENSE_PAIRS_PER_WORD = 2  # stars read off the masks from this density up (table above)


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


def _mask_reach(
    g: Graph, order: LinearOrder, d: int
) -> tuple[tuple[int, ...], Optional[SetSystem]]:
    """M_0..M_d, the largest popcount of each round of one
    `graphs._reach_masks` pass drawn to radius d (M past the pass's last
    round equals M there), and the star system read off the same rounds
    when they are dense, else None.

    Round i holds the stars of radius i: unpacked little-endian, its row r
    is the star of the root of rank r.  Every row of round 1 is a star, and
    after it the rows whose popcount grew, since stars are nested; a pass
    that ends after round 0 (no edges) leaves the singletons.  The read
    costs about n^2 bytes per round whatever the reach, so it is made only
    when the popcount totals of those rounds hold at least
    DENSE_PAIRS_PER_WORD (root, vertex) pairs per mask word per round.
    Columns only gain bits, so the pass keeps each round as the words it
    changed, and the dense read replays them on round 0.  POWER_STAR_CAP is
    checked on each round's row popcounts before any tuple is built.
    """
    n, words = g.n, -(-g.n // 64)
    rounds = graphs._reach_masks(g, order.position)
    masks, sizes = next(rounds)
    start, last = masks.copy(), masks.copy()
    profile, changes, totals = [1], [], []
    for masks, sizes in islice(rounds, d):
        profile.append(int(sizes.max()))
        where = np.flatnonzero(masks != last)
        changes.append((where, masks.flat[where]))
        last[...] = masks
        totals.append(int(sizes.sum()))
    profile += profile[-1:] * (d + 1 - len(profile))
    totals = totals or [n]
    if sum(totals) < DENSE_PAIRS_PER_WORD * words * n * len(totals):
        return tuple(profile), None
    # every row of round 1 grew from 0: each star holds its root
    cols, counts, size, before = [], [], 0, np.zeros(n, dtype=np.int64)
    for where, new in changes or [(slice(0), ())]:
        start.flat[where] = new
        bits = np.unpackbits(
            start.astype("<u8", copy=False).view(np.uint8).reshape(words, n, 8),
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
    profile, stars = _mask_reach(g, order, d) if graphs.fits_masks(g) else (None, None)
    if stars is None:
        levels = weak_reach(g, order, d)
        profile = profile or reach_profile(levels, d)
        stars = wreach_star_system(levels, d)
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
