"""The square-free morphism tau and the word families built from its
fixed point.

tau maps 0 -> 012, 1 -> 02, 2 -> 1.  Since tau(0) starts with 0,
iterating from "0" converges to an infinite square-free word

    m = 012 02 1 012 1 02 012 ...

which avoids the factors 010, 212 and 01201.  Only finite prefixes of m
are ever materialised, up to the configured prefix ceiling.

Families (all ternary):

* ``m_n(n)``: the product of odd tau-powers of 0, length 4^n - 1;
  m_n(n) + "0" is the prefix of m of length 4^n.
* ``alpha_n`` / ``beta_n``: "102" + m_n + "021" / "102" + m_n + "101202",
  both factors of m.
* ``x_n(n)`` = "120102" + m_n(n), and ``construct_wx(x)`` = 0x02x10x02x0,
  the low-critical-density template of length 4|x| + 8.
* ``beta_family``: maximal-eta words 0 + 10201...12021 + 2 harvested
  from a prefix of m.
"""

from __future__ import annotations

from .config import DEFAULT_LIMITS
from .errors import AlphabetError, InsufficientBound, ResourceGuard
from .words import _check_count, parse_word

TAU = {"0": "012", "1": "02", "2": "1"}


def tau(w: str) -> str:
    """Image of ``w`` under the morphism 0 -> 012, 1 -> 02, 2 -> 1."""
    try:
        return "".join([TAU[c] for c in w])
    except KeyError as exc:
        raise AlphabetError(f"letter {exc.args[0]!r} outside the ternary alphabet") from None


def tau_iter(letter: str, n: int) -> str:
    """tau applied ``n`` times to a single letter.

    Lengths: |tau^n(0)| = 3 * 2^(n-1), |tau^n(1)| = 2^n,
    |tau^n(2)| = 2^(n-1) for n >= 1.  Guarded by the configured prefix
    ceiling, checked on that length before iterating.
    """
    _check_count(n, 0, "n")
    if letter not in TAU:
        raise AlphabetError(f"letter {letter!r} outside the ternary alphabet")
    cap = DEFAULT_LIMITS.max_prefix_len
    # |tau^n(a)| = |tau(a)| * 2^(n-1) >= 2^(n-1): a huge n fails on the
    # exponent alone, before any huge integer is built
    if n and (n > cap.bit_length() or len(TAU[letter]) << (n - 1) > cap):
        raise ResourceGuard(f"|tau^{n}({letter})| exceeds the prefix ceiling {cap}")
    w = letter
    for _ in range(n):
        w = tau(w)
    return w


_m_cache = "0"


def m_prefix(length: int) -> str:
    """The prefix of the fixed point m of the given length.

    Iterates tau on "0" until the cached prefix is long enough, then
    truncates.  Guarded by the configured prefix ceiling.
    """
    global _m_cache
    _check_count(length, 0, "length")
    cap = DEFAULT_LIMITS.max_prefix_len
    if length > cap:
        raise ResourceGuard(f"prefix length {length} exceeds the ceiling {cap}")
    while len(_m_cache) < length:
        _m_cache = tau(_m_cache)
    return _m_cache[:length]


def m_n(n: int) -> str:
    """The word tau^(2n-1)(0) tau^(2n-3)(0) ... tau^3(0) tau(0).

    Length 4^n - 1; followed by "0" it is a prefix of m.
    """
    _check_count(n, 1, "n")
    cap = DEFAULT_LIMITS.max_prefix_len
    # 4^n - 1 >= 2^n: a huge n fails on the exponent alone, as in tau_iter
    if n > cap.bit_length() or 4**n - 1 > cap:
        raise ResourceGuard(f"|m_n({n})| = 4^{n} - 1 exceeds the configured ceiling")
    return "".join(tau_iter("0", 2 * i - 1) for i in range(n, 0, -1))


def alpha_n(n: int) -> str:
    """The factor 102 m_n 021 of m."""
    return "102" + m_n(n) + "021"


def beta_n(n: int) -> str:
    """The factor 102 m_n 101202 of m."""
    return "102" + m_n(n) + "101202"


def x_n(n: int) -> str:
    """The seed word 120102 m_n, length 4^n + 5."""
    return "120102" + m_n(n)


def construct_wx(x: str) -> str:
    """The word 0 x 02 x 1 0 x 02 x 0 of length 4|x| + 8.

    ``x`` must be ternary; its square-freeness is not required here (the
    callers that need a square-free result check it themselves).
    """
    parse_word(x)
    return "".join(("0", x, "02", x, "10", x, "02", x, "0"))


def beta_family(count: int, search_bound: int) -> list[str]:
    """The first ``count`` maximal-eta family words found in
    m_prefix(search_bound).

    Scans for factors beta = 10201 + alpha + 12021 of m starting
    strictly after position 9, completing each occurrence of 10201 with
    the earliest following 12021, and wraps each hit as 0 + beta + 2.
    Raises InsufficientBound when the scanned prefix hosts fewer than
    ``count`` hits.
    """
    _check_count(count, 1, "count")
    m = m_prefix(search_bound)
    words = []
    i = m.find("10201", 9)
    while i != -1 and len(words) < count:
        j = m.find("12021", i + 5)
        if j == -1:
            break
        words.append("0" + m[i : j + 5] + "2")
        i = m.find("10201", i + 1)
    if len(words) < count:
        raise InsufficientBound(
            f"only {len(words)} family words within m_prefix({search_bound}), wanted {count}"
        )
    return words
