"""Resource limits, set only through environment variables.

All bounds live here so CLI and library runs share one predictable
resource envelope.  Each is one ``Limits`` field, set by the variable
``CRITFACT_<FIELD NAME IN CAPITALS>``:

    CRITFACT_MAX_WORDS        words a run may grow          (default 1_000_000)
    CRITFACT_MAX_PROFILE_LEN  longest word profiled         (default 5_000)
    CRITFACT_MAX_PREFIX_LEN   longest generated prefix      (default 2_000_000)

A variable is read when a call checks its ceiling, never at import, and
must hold a positive integer; any other value raises RangeError.

These fields are the only limits a caller sets.  One search keeps a
guard of its own: ``verify._ALPHA_SEARCH_CAP`` = 64 stops the
alpha-extremal search, whose tree has 34 words of at most 14 letters,
so that a faulty letter test fails instead of walking without end.
Every word a run will grow, each length from 0 up and any random
words, is held to the word ceiling by ``_hold_words``: before the walk
in the range suites, so a run past it never starts, and word by word in
``explore problem1``, whose search stops at each length's first witness.
"""

import os
from dataclasses import dataclass, fields
from typing import Callable

from .errors import RangeError, ResourceGuard


@dataclass(frozen=True)
class Limits:
    max_words: int = 1_000_000
    max_profile_len: int = 5_000
    max_prefix_len: int = 2_000_000

    @classmethod
    def from_env(cls) -> "Limits":
        """Every limit as the environment sets it now."""
        return cls(**{f.name: getattr(DEFAULT_LIMITS, f.name) for f in fields(cls)})


_DEFAULTS = {f.name: f.default for f in fields(Limits)}


class _EnvLimits:
    """The limits in force: each ``Limits`` field read afresh from its
    variable, or its default when the variable is unset."""

    def __getattr__(self, field: str) -> int:
        if field not in _DEFAULTS:
            raise AttributeError(field)
        name = f"CRITFACT_{field.upper()}"
        raw = os.environ.get(name)
        if raw is None:
            return _DEFAULTS[field]
        try:
            value = int(raw) if raw.isdecimal() else 0
        except ValueError:  # more digits than CPython converts to int
            raise RangeError(
                f"{name} must be a positive integer, got a {len(raw)}-digit value"
                " too long to convert"
            ) from None
        if value < 1:
            raise RangeError(f"{name} must be a positive integer, got {raw!r}")
        return value


DEFAULT_LIMITS = _EnvLimits()


def _check_profile_len(n: int, label: str) -> None:
    """Raise ResourceGuard when a length ``n`` passes the profile ceiling,
    ``CRITFACT_MAX_PROFILE_LEN``, naming it as ``label``."""
    cap = DEFAULT_LIMITS.max_profile_len
    if n > cap:
        raise ResourceGuard(f"{label} {n} exceeds the profile ceiling {cap}")


def _hold_words(extra: int = 0) -> Callable[[int], None]:
    """A check that adds each count it is given to a running total of the
    words a run will grow, from ``extra``, and raises ResourceGuard
    naming it once it passes the word ceiling, ``CRITFACT_MAX_WORDS``."""
    ceiling, total = DEFAULT_LIMITS.max_words, extra

    def hold(size: int) -> None:
        nonlocal total
        total += size
        if total > ceiling:
            raise ResourceGuard(f"at least {total} words to grow exceed the ceiling {ceiling}")

    return hold
