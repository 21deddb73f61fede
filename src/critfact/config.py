"""Resource limits, set only through environment variables.

All bounds live here so CLI and library runs share one predictable
resource envelope:

    CRITFACT_MAX_WORDS        enumeration ceiling per run   (default 1_000_000)
    CRITFACT_MAX_PROFILE_LEN  longest word profiled         (default 5_000)
    CRITFACT_MAX_PREFIX_LEN   longest generated prefix      (default 2_000_000)

A variable is read when a call checks its ceiling, never at import, and
must hold a positive integer; any other value raises RangeError.
"""

import os
from dataclasses import dataclass

from .errors import RangeError


@dataclass(frozen=True)
class Limits:
    max_words: int = 1_000_000
    max_profile_len: int = 5_000
    max_prefix_len: int = 2_000_000

    @classmethod
    def from_env(cls) -> "Limits":
        """Every limit as the environment sets it now."""
        return cls(
            DEFAULT_LIMITS.max_words,
            DEFAULT_LIMITS.max_profile_len,
            DEFAULT_LIMITS.max_prefix_len,
        )


def _read(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    if not (raw.isdecimal() and int(raw) > 0):
        raise RangeError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)


class _EnvLimits:
    """The limits in force: each attribute reads its variable afresh."""

    max_words = property(lambda self: _read("CRITFACT_MAX_WORDS", Limits.max_words))
    max_profile_len = property(
        lambda self: _read("CRITFACT_MAX_PROFILE_LEN", Limits.max_profile_len)
    )
    max_prefix_len = property(
        lambda self: _read("CRITFACT_MAX_PREFIX_LEN", Limits.max_prefix_len)
    )


DEFAULT_LIMITS = _EnvLimits()
