"""Deterministic integer samplers for the randomized face refuter.

Every sampler takes an explicit random.Random instance; nothing here keeps
hidden global state, so identical seeds reproduce identical samples.
Weights are drawn and points combined as integers; the caller chooses the
one denominator they are read over.

Each draw of a value below n is the rejection loop of ``random.Random``:
``getrandbits(n.bit_length())`` until the result is below n.  That is the
loop ``randrange(low, span + 1)`` (so ``randint(low, span)``) and
``choice`` run, so the random stream is the one a ``randint`` sampler
would consume, without their argument checks on every draw.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Sequence, TypeVar

_T = TypeVar("_T")


def _int_weights(rng: random.Random, count: int, positive: bool, span: int = 8) -> list[int]:
    """Random nonnegative integer weights with a positive sum (all positive on demand).

    Each weight is ``randint(low, span)``, with low 1 when positive, else 0;
    an empty range raises ``ValueError`` as ``randint`` does.
    """
    low = 1 if positive else 0
    width = span + 1 - low
    if width <= 0:
        raise ValueError(f"empty range for weights in [{low}, {span}]")
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    raw = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        raw.append(low + r)
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    return raw


def _choice(rng: random.Random, items: Sequence[_T]) -> _T:
    """``rng.choice(items)``, drawing the same bits; an empty sequence raises ``IndexError``."""
    width = len(items)
    if not width:
        raise IndexError("cannot choose from an empty sequence")
    bits = width.bit_length()
    r = rng.getrandbits(bits)
    while r >= width:
        r = rng.getrandbits(bits)
    return items[r]


def _int_combination(rows: Sequence[Sequence[int]], scales: Sequence[int]) -> list[int]:
    """``sum(scales[i] * rows[i])`` for int rows and int scales, one column at a time."""
    return [sum(map(mul, scales, col)) for col in zip(*rows)]
