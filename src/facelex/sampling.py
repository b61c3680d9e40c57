"""Deterministic rational samplers for the randomized oracles and tests.

Every sampler takes an explicit random.Random instance; nothing here keeps
hidden global state, so identical seeds reproduce identical samples.
Weights are drawn and points combined as integers over one denominator;
only the returned values are built as ``Fraction``s.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import Point


def _int_weights(rng: random.Random, count: int, positive: bool, span: int = 8) -> list[int]:
    """Random nonnegative integer weights with a positive sum (all positive on demand)."""
    low = 1 if positive else 0
    raw = [rng.randint(low, span) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    return raw


def _int_combination(rows: Sequence[Sequence[int]], scales: Sequence[int]) -> list[int]:
    """``sum(scales[i] * rows[i])`` for int rows and int scales."""
    total = [0] * len(rows[0])
    for s, row in zip(scales, rows):
        if s:
            total = [a + s * b for a, b in zip(total, row)]
    return total


def _combination(points: Sequence[Point], scales: Sequence[int], den: int) -> Point:
    """The point ``sum(scales[i] * points[i]) / den``, for int scales and an int den > 0."""
    scaled = [p._scaled for p in points]
    den_p = lcm(*(d for _nums, d in scaled))
    rows = [nums for nums, _d in scaled]
    nums = _int_combination(rows, [s * (den_p // d) for s, (_nums, d) in zip(scales, scaled)])
    den *= den_p
    return Point(tuple(Fraction(n, den) for n in nums))


def convex_weights(
    rng: random.Random, count: int, *, positive: bool = False, span: int = 8
) -> tuple[Fraction, ...]:
    """Random rational weights summing to one (all strictly positive on demand)."""
    raw = _int_weights(rng, count, positive, span)
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def combine(points: Sequence[Point], weights: Sequence[Fraction]) -> Point:
    """Weighted sum of points with exact rational weights."""
    den = lcm(*(w.denominator for w in weights))
    return _combination(points, [w.numerator * (den // w.denominator) for w in weights], den)


def sample_in_hull(rng: random.Random, points: Sequence[Point], *, positive: bool = False) -> Point:
    """A random rational convex combination of the given points."""
    weights = _int_weights(rng, len(points), positive)
    return _combination(points, weights, sum(weights))
