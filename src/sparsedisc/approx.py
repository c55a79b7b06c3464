"""Epsilon-approximations by iterated halving.

Each level colors the traced system with the constructive solver and
keeps one color class, rebalanced to exactly half (rounded up).  With the
full ground set adjoined as a member, the per-level charge
disc_used = achieved discrepancy + rebalancing moves makes the claimed
error (2/|U|) * sum_i 2^i * disc_used_i a sound upper bound on the exact
measured error; halving stops before the claim would exceed the target.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .discrepancy import beck_fiala, eval_discrepancy
from .setsystems import SetSystem, trace


@dataclass(frozen=True)
class LevelRecord:
    size: int  # |current| when the halving ran
    disc_used: int
    kept: tuple[int, ...]
    applied: bool  # False for the final attempted level that broke the budget

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "disc_used": self.disc_used,
            "kept": list(self.kept),
            "applied": self.applied,
        }


@dataclass(frozen=True)
class ApproximationReport:
    sample: tuple[int, ...]
    epsilon_claimed: Fraction
    epsilon_measured: Fraction
    levels: tuple[LevelRecord, ...]
    ground_adjoined: bool

    def __post_init__(self):
        assert self.sample, "sample must be non-empty"
        assert self.epsilon_measured <= self.epsilon_claimed

    def to_json(self) -> str:
        return json.dumps(
            {
                "sample": list(self.sample),
                "epsilon_claimed": frac_str(self.epsilon_claimed),
                "epsilon_measured": frac_str(self.epsilon_measured),
                "levels": [rec.to_dict() for rec in self.levels],
                "ground_adjoined": self.ground_adjoined,
            },
            separators=(",", ":"),
        )


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _checked_eps(eps: Fraction) -> Fraction:
    """eps as a Fraction; a ValueError unless it lies in (0, 1]."""
    eps = Fraction(eps)
    if eps <= 0 or eps > 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps


def halve(s: SetSystem, current: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """One halving level; the caller must have the ground set as a member.

    Keeps the larger color class (tie: the class of the lowest-index
    element), then moves its lowest-index elements out until the kept size
    is exactly ceil(|current|/2).  disc_used charges those moves on top of
    the achieved discrepancy.
    """
    # mapping is current sorted, deduplicated and checked against the ground
    traced, mapping = trace(s, current)
    if not mapping:
        raise ValueError("cannot halve an empty subset")
    chi = beck_fiala(traced)
    achieved, _ = eval_discrepancy(traced, chi)
    pos = [mapping[i] for i, v in enumerate(chi.values) if v == 1]
    neg = [mapping[i] for i, v in enumerate(chi.values) if v == -1]
    if len(pos) != len(neg):
        kept = pos if len(pos) > len(neg) else neg
    else:
        kept = pos if chi.values[0] == 1 else neg
    target = (len(mapping) + 1) // 2
    moves = len(kept) - target
    assert moves >= 0
    return tuple(kept[moves:]), achieved + moves


def epsilon_approximation(s: SetSystem, eps: Fraction) -> ApproximationReport:
    """Largest halving chain whose claimed error stays within eps.

    The ground set is adjoined as a member when absent (and reported):
    the carrier is then the input plus the ground tuple, inserted at its
    sorted place, and otherwise the input itself.  Level 0 halves the
    whole ground, whose trace is the carrier itself, so the solver's
    first input is the carrier object.
    The report carries the exact claimed and measured errors; the final
    attempted level that would have broken the budget is recorded too.
    """
    eps = _checked_eps(eps)
    n = s.ground_size
    if n == 0:
        raise ValueError("cannot approximate an empty ground set")
    ground = tuple(range(n))
    # s.sets is sorted, so the ground tuple's place is found by bisection
    # and the carrier is s with that one tuple inserted
    at = bisect_left(s.sets, ground)
    adjoined = s.sets[at:at + 1] != (ground,)
    carrier = SetSystem(n, s.sets[:at] + (ground,) + s.sets[at:]) if adjoined else s
    current = ground
    levels: list[LevelRecord] = []
    weighted_sum = 0  # sum of 2^i * disc_used_i over applied levels
    while len(current) > 1:
        kept, used = halve(carrier, current)
        candidate = weighted_sum + 2 ** len(levels) * used
        applied = Fraction(2 * candidate, n) <= eps
        levels.append(LevelRecord(len(current), used, kept, applied))
        if not applied:
            break
        weighted_sum = candidate
        current = kept
    claimed = Fraction(2 * weighted_sum, n)
    _, _, measured = verify_approximation(s, current, eps)
    return ApproximationReport(current, claimed, measured, tuple(levels), adjoined)


def verify_approximation(
    s: SetSystem, sample: Iterable[int], eps: Fraction
) -> tuple[bool, Optional[int], Fraction]:
    """Exact per-set check of ||A cap S|/|S| - |A|/|U|| <= eps for every
    set A and the sample S, with the first worst set and the worst error."""
    sam = sorted(set(sample))
    if not sam:
        raise ValueError("sample must be non-empty")
    if sam[0] < 0 or sam[-1] >= s.ground_size:
        raise ValueError("sample vertex outside the ground set")
    inside = set(sam)
    eps = _checked_eps(eps)
    # the error of a set is |hit*n - |A|*k| / (k*n) with k = |S|: compared
    # as integers over the common denominator
    k, n = len(sam), s.ground_size
    worst, worst_set = 0, None
    for i, st in enumerate(s.sets):
        hit = sum(1 for v in st if v in inside)
        err = abs(hit * n - len(st) * k)
        if err > worst:
            worst, worst_set = err, i
    measured = Fraction(worst, k * n)
    return measured <= eps, worst_set, measured


def verify_net(s: SetSystem, sample: Iterable[int], eps: Fraction) -> bool:
    """True iff the sample meets every set of size at least eps * |U|."""
    inside = set(sample)
    eps = _checked_eps(eps)
    bar = eps.numerator * s.ground_size  # |A| >= eps*|U|, times eps's denominator
    for st in s.sets:
        if len(st) * eps.denominator >= bar and not inside.intersection(st):
            return False
    return True
