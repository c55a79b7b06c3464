"""Host-speed probe: a fixed pure-Python loop, timed next to each op.

The machines these numbers come from are shared; the same op runs up to
twice as slow for tens of seconds at a time, in CPU time as well as wall
time.  The probe slows with it, so an op's time multiplied by
REFERENCE_S / (probe time around the op) is its time at one fixed host
speed.  The probe uses only the standard library (Fraction arithmetic,
dict, set and list work, like the library's hot loops), so no change to
the library can move it.
"""
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0027  # the probe's time on a quiet 2-core host that set the bounds
PROBE_ITERATIONS = 1200


def _loop() -> float:
    start = perf_counter()
    acc = Fraction(0)
    table: dict[int, list[int]] = {}
    seen: set[int] = set()
    for i in range(1, PROBE_ITERATIONS):
        acc += Fraction(i % 13 + 1, i % 7 + 2)
        table[i] = [i, 3 * i]
        seen.add(7 * i % 101)
    return perf_counter() - start


def probe() -> float:
    """Seconds the fixed loop takes now: the faster of two runs, which drops
    one-off interruptions of the probe itself."""
    return min(_loop(), _loop())


def to_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    """seconds at the reference host speed."""
    return seconds * 2 * REFERENCE_S / (probe_before + probe_after)
