"""Deterministic rational samplers for the randomized oracles and tests.

Every sampler takes an explicit random.Random instance; nothing here keeps
hidden global state, so identical seeds reproduce identical samples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .core import Point


def convex_weights(
    rng: random.Random, count: int, *, positive: bool = False, span: int = 8
) -> tuple[Fraction, ...]:
    """Random rational weights summing to one (all strictly positive on demand)."""
    low = 1 if positive else 0
    raw = [rng.randint(low, span) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    total = Fraction(sum(raw))
    return tuple(Fraction(r) / total for r in raw)


def combine(points: Sequence[Point], weights: Sequence[Fraction]) -> Point:
    """Weighted sum of points with exact rational weights."""
    coords = [Fraction(0)] * points[0].dim
    for p, w in zip(points, weights):
        for k, c in enumerate(p.coords):
            coords[k] += w * c
    return Point(tuple(coords))


def sample_in_hull(rng: random.Random, points: Sequence[Point], *, positive: bool = False) -> Point:
    """A random rational convex combination of the given points."""
    return combine(points, convex_weights(rng, len(points), positive=positive))
