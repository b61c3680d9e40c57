"""Deterministic integer samplers for the randomized face refuter.

Every sampler takes an explicit random.Random instance; nothing here keeps
hidden global state, so identical seeds reproduce identical samples.
Weights are drawn and points combined as integers; the caller chooses the
one denominator they are read over.
"""

from __future__ import annotations

import random
from typing import Sequence


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
