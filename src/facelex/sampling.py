"""Deterministic integer samplers for the randomized face refuter.

Every sampler takes an explicit random.Random instance; nothing here keeps
hidden global state, so identical seeds reproduce identical samples.
Weights are drawn and points combined as integers; the caller chooses the
one denominator they are read over.  Each weight is drawn with
``randrange(low, span + 1)``, the call ``randint(low, span)`` makes, so
the random stream is the one a ``randint`` sampler would consume.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Sequence


def _int_weights(rng: random.Random, count: int, positive: bool, span: int = 8) -> list[int]:
    """Random nonnegative integer weights with a positive sum (all positive on demand)."""
    low = 1 if positive else 0
    raw = [rng.randrange(low, span + 1) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    return raw


def _int_combination(rows: Sequence[Sequence[int]], scales: Sequence[int]) -> list[int]:
    """``sum(scales[i] * rows[i])`` for int rows and int scales, one column at a time."""
    return [sum(map(mul, scales, col)) for col in zip(*rows)]
