"""Exception types shared across the library."""

from __future__ import annotations


class FaceLexError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(FaceLexError):
    """Operands live in different ambient dimensions."""


class NotAMemberError(FaceLexError):
    """A point required to lie in a body lies outside it."""


class EmptyFaceError(FaceLexError):
    """An empty vertex set where a nonempty face is required."""


class ImproperFaceError(FaceLexError):
    """The whole body was passed where a proper face is required."""


class NotAFaceError(FaceLexError):
    """A vertex set that is not a face was passed where a face is required."""


class InvalidCortegeError(FaceLexError):
    """An ordered functional family violating the cortege conditions.

    ``reason`` is ``"constant_on_manifold"``: the level is constant on the
    zero set of the preceding levels, because its linear part is zero or
    lies in the span of theirs.  That zero set is never empty before the
    first bad level (see :class:`facelex.Cortege`).  ``index`` is the
    1-based position of the first bad level.
    """

    def __init__(self, reason: str, index: int) -> None:
        super().__init__(f"invalid cortege at level {index}: {reason}")
        self.reason = reason
        self.index = index


class ZeroFunctionalError(FaceLexError):
    """The zero functional where a nonzero one is required."""


class WholeBodyNotProperError(FaceLexError):
    """The whole disk body was passed where a proper face is required."""


class UnsupportedConfigurationError(FaceLexError):
    """A disk configuration whose bitangent data is not rational."""


class SizeGuardExceededError(FaceLexError):
    """Input too large for a brute-force oracle, or for Python's int/str conversion."""


class FormatError(FaceLexError):
    """Malformed input document."""
