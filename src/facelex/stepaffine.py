"""Corteges of affine functionals and step-affine function evaluation.

A cortege is an ordered family of affine functionals where each level is
genuinely new: the common zero set of the preceding levels is nonempty and
the level is non-constant on it.  The induced step-affine function returns
the value of the first level that does not vanish at the point (and the
last level's value, i.e. zero, when all vanish).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import (
    AffineFunctional,
    AffineManifold,
    LinearFunctional,
    Point,
    _require_same_dim,
    solve_affine_zero_set,
)
from .errors import InvalidCortegeError, IrregularFunctionError


class Region(enum.Enum):
    """Position of a point relative to a step-affine function's sign split."""

    NEGATIVE_SIDE = "negative_side"
    ZERO_MANIFOLD = "zero_manifold"
    POSITIVE_SIDE = "positive_side"


@dataclass(frozen=True)
class Cortege:
    """A validated ordered family of affine functionals.

    Construction checks, level by level, that the zero set of the preceding
    levels is nonempty and that the level is non-constant on it (for the
    first level: the linear part is nonzero).  The first failing level is
    reported via :class:`InvalidCortegeError` with a 1-based index.  A
    consequence of validity is that the linear parts are linearly
    independent, so the rank never exceeds the ambient dimension.
    """

    functionals: tuple[AffineFunctional, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "functionals", tuple(self.functionals))
        if not self.functionals:
            raise ValueError("a cortege needs at least one functional")
        dim = self.functionals[0].dim
        for f in self.functionals[1:]:
            _require_same_dim(dim, f.dim)
        for index, f in enumerate(self.functionals, start=1):
            manifold = solve_affine_zero_set(self.functionals[: index - 1], dim)
            if manifold is None:
                raise InvalidCortegeError("empty_manifold", index)
            if all(f.linear(d) == 0 for d in manifold.directions):
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

    @cached_property
    def _zero_manifold(self) -> AffineManifold | None:
        return solve_affine_zero_set(self.cortege.functionals, self.dim)

    def zero_set(self) -> AffineManifold | None:
        """Common zero manifold of all levels; None marks irregularity.

        Validated finite corteges have independent linear parts, so the
        system is always solvable and None never occurs here in practice;
        the branch is kept so irregularity is reported rather than assumed.
        """
        return self._zero_manifold

    def classify(self, x: Point) -> Region:
        """Exact trichotomy: negative side, zero manifold, or positive side."""
        if self._zero_manifold is None:
            raise IrregularFunctionError("step-affine function has an empty zero set")
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
        manifold = self._zero_manifold
        if manifold is None:
            raise IrregularFunctionError("cannot anchor an irregular step-affine function")
        linear = StepAffineFunction.step_linear(self.cortege.linear_parts())
        return linear, manifold.base
