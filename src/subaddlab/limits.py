"""Resource ceilings, overridable through environment variables.

Exact rational arithmetic is used whenever the largest index involved stays
at or below ``exact_limit``; beyond that the log-domain / float backends take
over.  ``max_j`` caps the length of any weight row the package will build.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import ResourceLimitError

_ENV_MAX_J = "SUBADDLAB_MAX_J"
_ENV_EXACT = "SUBADDLAB_EXACT_LIMIT"


@dataclass(frozen=True)
class Limits:
    max_j: int = 2_000_000
    exact_limit: int = 2_000

    def check_row_length(self, requested: int) -> None:
        if requested > self.max_j:
            raise ResourceLimitError(
                f"row length {requested} exceeds the ceiling {self.max_j} "
                f"(raise {_ENV_MAX_J} to allow it)"
            )


def _read_int(name: str, raw, default: int) -> int:
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@lru_cache(maxsize=8)
def _parse_limits(raw_max_j, raw_exact) -> Limits:
    return Limits(
        max_j=_read_int(_ENV_MAX_J, raw_max_j, Limits.max_j),
        exact_limit=_read_int(_ENV_EXACT, raw_exact, Limits.exact_limit),
    )


def current_limits() -> Limits:
    """Ceilings in effect for this process (environment wins over defaults).

    The parse is memoized on the raw variable values, so a changed
    environment takes effect at the next call.  Each public entry point
    reads the limits once and passes them down to its inner loops.
    """
    return _parse_limits(os.environ.get(_ENV_MAX_J), os.environ.get(_ENV_EXACT))
