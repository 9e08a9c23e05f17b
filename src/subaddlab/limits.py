"""Resource ceilings: two settings read from the environment, one work budget,
and the process memos.

Exact rational arithmetic is used whenever the largest index involved stays
at or below ``exact_limit``; beyond that the log-domain / float backends take
over.  ``max_j`` caps the length of any weight row the package will build.

Work that could grind is charged before any of it is done, in entry steps,
and check_work refuses it past WORK_MAX = 2^30 of them.  On the reference
box (2 cores, Python 3.11, numpy 2.4) a step of a float row of length J
took about 8 us plus 1.5 ns per entry when these charges were set, so an
entry step is 1.5 ns and the budget about 1.6 s.  The step
(weights._step, five vector passes) now takes about 4 us plus 1.7 ns per
entry, timed on an in-cache 16,384-entry slice, the slice _stepped steps;
the charge is kept, so every refusal stays at its input.  Each caller
charges its own work in entry steps, at the measured cost of its unit there:

- stepping a float row of length J to row n (weights._stepped,
  experiments.pointwise_divergence and growth_curve): (n - 1)(J + 5,000),
  as n - 1 steps of J entries and 8 us / 1.5 ns = 5,000 more each;
- a window entry that growth_curve reads off its rows: 28.  growth_curve(2,
  550) took 1.29 s, of which its sweep took 0.12 s (0.75 ns per entry step)
  and 5.5e7 window entries the other 1.17 s, 21 ns each; so growth --nmax
  250 spends 15% of the budget and 470 and up is refused;
- maximal_ratio_T(m): m^2, for its walk of the base numerators to 2m, the
  k-th about 2k bits wide (m = 32,000 took 1.6 s);
- a draw of mc_apply_A, max(n, 1) per walk: 4, from 2.1e8 draws/s at n = 8;
  at n = 1, with f evaluated once per draw, it is 5.9e7 draws/s, and the
  budget about 4.6 s;
- a row of sato_norm_growth, with its check in sato_verdicts: 2^13, 12 us
  (10^5 rows took 1.3 s);
- a row of lower_bound_probe's grid, or one of its n_max outer steps: 2^11,
  3.6 us for its exact ratio and CSV line (549,362 rows took 2.0 s).  Each
  n's ratios are now stepped in j by an integer recurrence, and the same
  grid takes 0.9 s, so the charge covers about twice the cost; it is kept,
  so the probe refuses at the same inputs as before.

What the lab runs itself stays far below: backend_agreement's row n = 100
at J = 2,000 is 7e5 entry steps, the divergence sweep to n = 32 at J = 2^20
3.3e7, the desk probe grid of 21,362 rows 4.4e7 and the desk maximal grid
4, 16, 64, 256 (verify's too) 69,904.

Every process memo of the package is made here, so one call empties them
all: a function memo is memo(maxsize), the functools.lru_cache it returns,
and a result table is a Memo, a dict that keeps its newest 8 keys.  Both
are recorded as they are made, and clear_memos() empties every one (the
tests call it, so no result of other code is served from a memo).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import ResourceLimitError

_ENV_MAX_J = "SUBADDLAB_MAX_J"
_ENV_EXACT = "SUBADDLAB_EXACT_LIMIT"
# the work budget, in entry steps (module docstring)
WORK_MAX = 1 << 30


_MEMOS: list = []


def memo(maxsize: int):
    """Decorator: functools.lru_cache(maxsize), recorded for clear_memos."""

    def record(f):
        _MEMOS.append(cached := lru_cache(maxsize=maxsize)(f))
        return cached

    return record


class Memo(dict):
    """A result table that keeps its newest 8 keys, recorded for clear_memos."""

    cache_clear = dict.clear

    def __init__(self):
        super().__init__()
        _MEMOS.append(self)

    def keep(self, items) -> None:
        """Store each (key, value) of items as the newest; drop all but the newest 8 keys."""
        for key, value in items:
            self.pop(key, None)
            self[key] = value
        for key in list(self)[:-8]:
            del self[key]


def clear_memos() -> None:
    """Empty every process memo."""
    for m in _MEMOS:
        m.cache_clear()


def check_work(steps, what: str) -> None:
    """Refuse work of `steps` entry steps past WORK_MAX, before any of it is done."""
    if steps > WORK_MAX:
        raise ResourceLimitError(f"{what}: more than {WORK_MAX} entry steps of work")


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


@memo(8)
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
