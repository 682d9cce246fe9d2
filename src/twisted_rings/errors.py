"""Size caps, the error raised when a computation would exceed one, and the
check that a number read from a table or from JSON is an integer."""

from contextvars import ContextVar
from dataclasses import dataclass


class CapExceededError(ValueError):
    """A configured size cap would be exceeded by the requested computation."""


@dataclass(frozen=True)
class Caps:
    """Size caps of the dense tables and the exhaustive searches.

    The defaults are the largest values the tables support (group order and
    conductor) or that finish in reasonable time (the searches, and the
    level n of the D8 x C2^n case study).  ``CAPS``
    holds the caps in force in the current context, so a lowered cap lasts
    only as long as the context that set it and never leaks across threads.
    """

    group_order: int = 256
    conductor: int = 24
    coboundary: int = 10**7
    word_length: int = 12
    scan_candidates: int = 10**6
    case_level: int = 4


CAPS: ContextVar[Caps] = ContextVar("caps", default=Caps())


def exact_int(value, what: str) -> int:
    """value when it is an int (a bool or a float is not); else a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value
