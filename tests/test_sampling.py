import itertools
import random
from fractions import Fraction

import pytest

import facelex as fx
from facelex.sampling import _choice, _int_combination, _int_weights
from helpers import reference_combine, reference_convex_weights


def random_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


class FiniteDraws(random.Random):
    """A generator that fails a draw of 0 bits, which returns 0 forever, and
    a run of draws long enough to mean that a rejection loop cannot end."""

    def getrandbits(self, k):
        self.draws = getattr(self, "draws", 0) + 1
        assert k > 0 and self.draws < 1000, "the rejection loop would never end"
        return super().getrandbits(k)


class TestIntegerAccumulation:
    """The refuter's integer samplers equal the plain Fraction sums and draw
    the same random numbers."""

    def test_int_combination_equals_fraction_sum(self):
        rng = random.Random(31)
        for _ in range(300):
            dim = rng.randint(1, 5)
            rows = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(rng.randint(1, 6))]
            scales = [rng.randint(-9, 9) for _ in rows]
            expected = reference_combine([fx.Point(tuple(row)) for row in rows], [Fraction(s) for s in scales])
            assert fx.Point(tuple(_int_combination(rows, scales))) == expected
        assert _int_combination([[1, 2]], [3]) == [3, 6]

    def test_same_draws_and_values(self):
        """Every span from 1 to 16, so every draw width from 1 to 5 bits."""
        for span, positive in itertools.product(range(1, 17), (False, True)):
            ours, theirs = random.Random(8), random.Random(8)
            for count in (1, 1, 2, 3, 5, 8) * 40:
                weights = _int_weights(ours, count, positive, span)
                assert max(weights) <= span
                if positive:
                    assert min(weights) > 0
                total = sum(weights)
                assert tuple(Fraction(w, total) for w in weights) == reference_convex_weights(
                    theirs, count, positive=positive, span=span
                )
                assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("positive,span", [(True, 0), (True, -1), (False, -1), (False, -5)])
    def test_empty_range_raises_like_randint(self, positive, span):
        """An empty range raises at once, where a draw of 0 bits would loop forever."""
        low = 1 if positive else 0
        with pytest.raises(ValueError):
            random.Random(3).randint(low, span)
        rng = FiniteDraws(3)
        state = rng.getstate()
        with pytest.raises(ValueError):
            _int_weights(rng, 4, positive, span)
        assert rng.getstate() == state

    def test_choice_draws_what_rng_choice_draws(self):
        """The refuter's step draw leaves the generator where ``rng.choice``
        does, for its four steps and for other lengths."""
        steps = [(1, 1), (1, 2), (1, 4), (1, 8)]
        for length in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17):
            items = steps if length == 4 else list(range(length))
            ours, theirs = random.Random(length), random.Random(length)
            for _ in range(300):
                assert _choice(ours, items) == theirs.choice(items)
                assert ours.getstate() == theirs.getstate()
        with pytest.raises(IndexError):
            _choice(FiniteDraws(1), [])

    def test_all_zero_draw_falls_back_to_one_weight(self):
        """span=0 draws only zeros, so one weight is picked to be 1."""
        ours, theirs = random.Random(4), random.Random(4)
        for count in range(1, 7):
            weights = _int_weights(ours, count, False, span=0)
            assert sorted(weights) == [0] * (count - 1) + [1]
            assert tuple(Fraction(w) for w in weights) == reference_convex_weights(theirs, count, span=0)
