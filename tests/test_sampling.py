import random
from fractions import Fraction

import facelex as fx
from facelex.sampling import combine, convex_weights, sample_in_hull
from helpers import reference_combine, reference_convex_weights


def random_rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


class TestIntegerAccumulation:
    """The integer-numerator samplers equal the plain Fraction sums and draw
    the same random numbers."""

    def test_combine_equals_fraction_sum(self):
        rng = random.Random(31)
        for _ in range(300):
            dim = rng.randint(1, 5)
            points = [fx.Point(tuple(random_rational(rng) for _ in range(dim))) for _ in range(rng.randint(1, 6))]
            weights = [random_rational(rng) for _ in points]
            assert combine(points, weights) == reference_combine(points, weights)
        assert combine([fx.Point((1, 2))], [3]) == fx.Point((3, 6))

    def test_same_draws_and_values(self):
        for positive in (False, True):
            ours, theirs = random.Random(8), random.Random(8)
            for count in (1, 1, 2, 3, 5, 8) * 40:
                assert convex_weights(ours, count, positive=positive) == reference_convex_weights(
                    theirs, count, positive=positive
                )
                assert ours.getstate() == theirs.getstate()

    def test_all_zero_draw_falls_back_to_one_weight(self):
        """span=0 draws only zeros, so one weight is picked to be 1."""
        ours, theirs = random.Random(4), random.Random(4)
        for count in range(1, 7):
            weights = convex_weights(ours, count, span=0)
            assert sorted(weights) == [0] * (count - 1) + [1]
            assert weights == reference_convex_weights(theirs, count, span=0)

    def test_sample_in_hull_matches_reference(self, fixture_polytopes):
        ours, theirs = random.Random(19), random.Random(19)
        for polytope in fixture_polytopes.values():
            for positive in (False, True):
                weights = reference_convex_weights(theirs, len(polytope.vertices), positive=positive)
                expected = reference_combine(polytope.vertices, weights)
                assert sample_in_hull(ours, polytope.vertices, positive=positive) == expected
