import random
from fractions import Fraction

import facelex as fx
from facelex.sampling import _int_combination, _int_weights
from helpers import reference_combine, reference_convex_weights


def random_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


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
        for positive in (False, True):
            ours, theirs = random.Random(8), random.Random(8)
            for count in (1, 1, 2, 3, 5, 8) * 40:
                weights = _int_weights(ours, count, positive)
                if positive:
                    assert min(weights) > 0
                total = sum(weights)
                assert tuple(Fraction(w, total) for w in weights) == reference_convex_weights(
                    theirs, count, positive=positive
                )
                assert ours.getstate() == theirs.getstate()

    def test_all_zero_draw_falls_back_to_one_weight(self):
        """span=0 draws only zeros, so one weight is picked to be 1."""
        ours, theirs = random.Random(4), random.Random(4)
        for count in range(1, 7):
            weights = _int_weights(ours, count, False, span=0)
            assert sorted(weights) == [0] * (count - 1) + [1]
            assert tuple(Fraction(w) for w in weights) == reference_convex_weights(theirs, count, span=0)
