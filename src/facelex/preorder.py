"""Compatible total preorders of finite rank (lexicographic comparison).

A preorder here is given by an ordered, linearly independent family of
linear levels; x precedes y when the first level distinguishing them is
larger at y.  Such preorders are translation- and positive-scaling
invariant, and their minimizer sets over polytopes are faces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from .core import LinearFunctional, Point
from .polytope import FaceDescriptor, Polytope
from .stepaffine import StepAffineFunction


class ComparisonResult(enum.Enum):
    LESS = "less"
    EQUIVALENT = "equivalent"
    GREATER = "greater"


@dataclass(frozen=True)
class LexPreorder:
    """A total preorder compared level by level through linear functionals."""

    levels: tuple[LinearFunctional, ...]
    _step: StepAffineFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        # The step-linear function rejects zero or dependent levels, and it is
        # the preorder: x precedes y when its value at y - x is >= 0.
        object.__setattr__(self, "_step", StepAffineFunction.step_linear(self.levels))

    @property
    def rank(self) -> int:
        return len(self.levels)

    @property
    def dim(self) -> int:
        return self.levels[0].dim

    def step_function(self) -> StepAffineFunction:
        return self._step

    def compare(self, x: Point, y: Point) -> ComparisonResult:
        """LESS means x strictly precedes y; EQUIVALENT when all levels tie."""
        value = self._step(y - x)
        if value > 0:
            return ComparisonResult.LESS
        if value < 0:
            return ComparisonResult.GREATER
        return ComparisonResult.EQUIVALENT

    def in_positive_cone(self, x: Point) -> bool:
        """Whether the origin precedes (or ties) x."""
        return self._step(x) >= 0

    def min_set(self, polytope: Polytope) -> FaceDescriptor:
        """Minimizers of the preorder over the polytope, by sequential filtering.

        Each level keeps exactly the surviving vertices attaining its
        minimum; restricting to vertices is enough because every level's
        argmin over a polytope is spanned by its argmin vertices, and each
        filtering step stays inside the previous argmin face.  Levels are
        compared through the polytope's int vertex numerators, which are the
        values times one positive constant.
        """
        survivors = list(range(len(polytope.vertices)))
        for level in self.levels:
            values = polytope._vertex_numerators(level, survivors)
            best = min(values)
            survivors = [i for i, v in zip(survivors, values) if v == best]
        return FaceDescriptor(tuple(survivors))


def lex_preorder(levels: Sequence[Sequence]) -> LexPreorder:
    """Convenience constructor from raw coefficient rows."""
    return LexPreorder(tuple(LinearFunctional(tuple(row)) for row in levels))
