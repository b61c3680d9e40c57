"""Corteges of affine functionals and step-affine function evaluation.

A cortege is an ordered family of affine functionals where each level is
genuinely new: the common zero set of the preceding levels is nonempty and
the level is non-constant on it; in finite dimension this holds exactly
when the linear parts are nonzero and linearly independent.  The induced
step-affine function returns the value of the first level that does not
vanish at the point (and the last level's value, i.e. zero, when all
vanish).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    AffineFunctional,
    AffineManifold,
    IncrementalSpan,
    LinearFunctional,
    Point,
    _require_same_dim,
    solve_affine_zero_set,
)
from .errors import InvalidCortegeError


class Region(enum.Enum):
    """Position of a point relative to a step-affine function's sign split."""

    NEGATIVE_SIDE = "negative_side"
    ZERO_MANIFOLD = "zero_manifold"
    POSITIVE_SIDE = "positive_side"


@dataclass(frozen=True)
class Cortege:
    """A validated ordered family of affine functionals.

    Level i is valid when the zero set of the preceding levels is nonempty
    and the level is non-constant on it (for the first level: the linear
    part is nonzero).  Construction checks this with one elimination pass
    over the linear parts, because validity of levels 1..i is the same as
    linear independence of their linear parts.  By induction on i: if the
    linear parts of the earlier levels are independent, their system of
    equations has full row rank, so their zero set is nonempty and its
    directions are the common kernel of those linear parts.  Level i is
    constant on that set exactly when its linear part vanishes on the
    kernel, that is, lies in the span of the earlier linear parts (the zero
    functional included).  So the zero set of a valid prefix is never empty,
    and the first invalid level is the first whose linear part is zero or
    dependent on the earlier ones.  It is reported via
    :class:`InvalidCortegeError` with reason ``"constant_on_manifold"`` and
    a 1-based index.  The rank never exceeds the ambient dimension.
    """

    functionals: tuple[AffineFunctional, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "functionals", tuple(self.functionals))
        if not self.functionals:
            raise ValueError("a cortege needs at least one functional")
        dim = self.functionals[0].dim
        for f in self.functionals[1:]:
            _require_same_dim(dim, f.dim)
        span = IncrementalSpan(dim)
        for index, f in enumerate(self.functionals, start=1):
            if not span.add(f.linear.coeffs):
                raise InvalidCortegeError("constant_on_manifold", index)

    @property
    def rank(self) -> int:
        return len(self.functionals)

    @property
    def dim(self) -> int:
        return self.functionals[0].dim

    def is_linear(self) -> bool:
        return all(f.offset == 0 for f in self.functionals)

    def linear_parts(self) -> tuple[LinearFunctional, ...]:
        return tuple(f.linear for f in self.functionals)


@dataclass(frozen=True)
class StepAffineFunction:
    """The step-affine function induced by a cortege."""

    cortege: Cortege

    @property
    def rank(self) -> int:
        return self.cortege.rank

    @property
    def dim(self) -> int:
        return self.cortege.dim

    @classmethod
    def step_linear(cls, levels: Sequence[LinearFunctional]) -> StepAffineFunction:
        """Build a step-linear function (all offsets zero) from linear levels."""
        return cls(Cortege(tuple(AffineFunctional(l, Fraction(0)) for l in levels)))

    def is_linear(self) -> bool:
        return self.cortege.is_linear()

    def evaluate(self, x: Point) -> Fraction:
        """Value of the first non-vanishing level at x, else the last value."""
        value = Fraction(0)
        for f in self.cortege.functionals:
            value = f(x)
            if value != 0:
                return value
        return value

    def __call__(self, x: Point) -> Fraction:
        return self.evaluate(x)

    def zero_set(self) -> AffineManifold:
        """Common zero manifold of all levels, never empty.

        A valid cortege has independent linear parts (see :class:`Cortege`),
        so the system of all its levels has full row rank and a solution.
        """
        manifold = solve_affine_zero_set(self.cortege.functionals, self.dim)
        assert manifold is not None  # independent linear parts are always solvable
        return manifold

    def classify(self, x: Point) -> Region:
        """Exact trichotomy: negative side, zero manifold, or positive side."""
        value = self.evaluate(x)
        if value > 0:
            return Region.POSITIVE_SIDE
        if value < 0:
            return Region.NEGATIVE_SIDE
        return Region.ZERO_MANIFOLD

    def decompose(self) -> tuple[StepAffineFunction, Point]:
        """Split a regular function as ``u(x) = w(x - a)``.

        ``w`` is step-linear with the same linear parts and ``a`` is the
        canonical base point of the zero manifold (deterministic by the
        solver's pivoting), so the identity holds exactly for every x.
        """
        linear = StepAffineFunction.step_linear(self.cortege.linear_parts())
        return linear, self.zero_set().base
