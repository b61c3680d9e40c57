"""The unit of work every workload hands to the harness.

An operation is one call (or a short fixed sequence of calls) into the
public API.  The harness times ``run`` and afterwards, outside the timed
region, asks ``check`` whether the output is right.  ``check`` raises
:class:`OpFailed` when the program did not do what its contract says (an
exception escaped, or the CLI exit code is wrong) and :class:`CheckError`
when an output disagrees with the independent computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


class CheckError(AssertionError):
    """An output differs from what an independent computation requires."""


class OpFailed(Exception):
    """The operation did not complete as the program's contract promises."""


@dataclass(frozen=True)
class Raised:
    """Stands in for the result of an operation whose call raised."""

    kind: str
    message: str


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckError` unless ``condition`` holds."""
    if not condition:
        raise CheckError(message)


def _identity(result: Any) -> Any:
    return result


@dataclass
class Op:
    """One timed operation.

    ``summary`` turns a raw result into plain data that two passes can
    compare for equality; ``known_fault`` marks an operation that fails on
    every pass because of a documented fault in the program.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    summary: Callable[[Any], Any] = field(default=_identity)
    known_fault: bool = False

    def verdict(self, result: Any) -> tuple[bool, str | None]:
        """(failed, problem): problem is None when the output is right."""
        try:
            if isinstance(result, Raised):
                raise OpFailed(f"{result.kind}: {result.message}")
            self.check(result)
        except OpFailed as exc:
            if self.known_fault:
                return True, None
            return True, f"{self.label}: unexpected failure: {exc}"
        except CheckError as exc:
            return False, f"{self.label}: {exc}"
        return False, None
