"""Square detection, self-overlap checks, square-free enumeration.

A square is a factor vv with v nonempty; a word is square-free when it
has none.  Two detection routes are kept deliberately independent:

* ``find_square`` is the quadratic reference scan.  It reports the
  canonical occurrence (smallest start, then smallest root) and is the
  route every other square check is tested against.
* ``has_square`` answers existence only, by divide and conquer over the
  word with Z-array matching of boundary-crossing squares, O(n log n).
  It makes square-freeness checks of 10^5-letter words affordable.

``is_square_free`` dispatches between them by length.

One depth-first walker enumerates words; ``square_free_range`` and
``square_free_words`` run it with ``extend_square_free`` as letter test.
On request it also carries each word's local periods down the trie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .config import DEFAULT_LIMITS
from .errors import EmptyFactor, RangeError, ResourceGuard
from .periods import _extend_local_periods
from .words import TERNARY

# find_square stays the canonical route below this length; has_square
# takes over where the quadratic scan gets slow.
_FAST_THRESHOLD = 64


@dataclass(frozen=True)
class SquareOccurrence:
    """A square vv inside a word: 1-based start index and the root v."""

    start: int
    root: str


def find_square(w: str) -> SquareOccurrence | None:
    """First square in ``w``: smallest start, then smallest root length.

    Quadratic scan over (start, root) pairs with a first-letter filter
    before each block comparison.  Returns None iff w is square-free.
    """
    n = len(w)
    for s in range(n - 1):
        top = (n - s) // 2
        for r in range(1, top + 1):
            if w[s] == w[s + r] and w[s : s + r] == w[s + r : s + 2 * r]:
                return SquareOccurrence(s + 1, w[s : s + r])
    return None


def _z_array(s: str) -> list[int]:
    """Z-array: z[i] = length of the longest common prefix of s and s[i:]."""
    n = len(s)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    l = r = 0
    for i in range(1, n):
        k = min(r - i, z[i - l]) if i < r else 0
        while i + k < n and s[k] == s[i + k]:
            k += 1
        z[i] = k
        if i + k > r:
            l, r = i, i + k
    return z


def _crossing_square(u: str, v: str) -> bool:
    """Whether u.v contains a square straddling the u|v boundary.

    A crossing square of root length q either has its second copy
    starting inside v at offset d (first copy ends in u), or its second
    copy crossing the boundary with the first copy inside u.  Both cases
    reduce to interval tests on longest-common-extension lengths.
    """
    h, m = len(u), len(v)
    ru = u[::-1]
    z_ru = _z_array(ru)
    z_v = _z_array(v)
    # common suffix of u and v[:q], read off a combined reversed Z-array
    z_suf = _z_array(ru + "\x00" + v[::-1])
    # longest prefix of v matching u[j:], read off v # u
    z_pre = _z_array(v + "\x00" + u)

    # Case 1: second copy v[d:d+q]; first copy is u-suffix (len q-d) + v[:d].
    # Needs: u-suffix of length q-d == v[d:q], and v[:d] == v[q:q+d].
    for q in range(1, m + 1):
        k1 = z_suf[h + 1 + m - q]  # capped at min(h, q) by the string ends
        d_lo = max(0, q - k1)
        d_hi = min(q - 1, z_v[q] if q < m else 0)
        if d_lo <= d_hi:
            return True

    # Case 2: first copy u[h-q-e : h-e]; second copy u[h-e:] + v[:q-e].
    # Needs: common suffix of u[:h-q] and u at least e, and u[h-q:]
    # matching a prefix of v for at least q-e letters.
    for q in range(1, h):
        k4 = z_pre[m + 1 + h - q]
        e_lo = max(1, q - k4)
        e_hi = min(q - 1, z_ru[q], h - q)
        if e_lo <= e_hi:
            return True
    return False


def has_square(w: str) -> bool:
    """Existence-only square test, O(n log n) divide and conquer."""
    n = len(w)
    if n < 2:
        return False
    h = n // 2
    u, v = w[:h], w[h:]
    return has_square(u) or has_square(v) or _crossing_square(u, v)


def is_square_free(w: str) -> bool:
    """True iff ``w`` contains no factor vv with v nonempty."""
    if len(w) <= _FAST_THRESHOLD:
        return find_square(w) is None
    return not has_square(w)


def extend_square_free(w: str, a: str) -> bool:
    """Whether w.a stays square-free, given that ``w`` is square-free.

    Any new square must end at the appended letter, so only square
    suffixes of w.a are tested: root lengths 1..(|w|+1)//2, last-letter
    filter first.
    """
    s = w + a
    n = len(s)
    for r in range(1, n // 2 + 1):
        if a == s[n - 1 - r] and s[n - 2 * r : n - r] == s[n - r :]:
            return False
    return True


def _walk(
    prefix: str,
    min_len: int,
    max_len: int,
    alphabet: str,
    accept: Callable[[str, str], bool] | None = None,
    lp: list[int] | None = None,
) -> Iterator:
    """Yield ``prefix`` and its extensions whose length lies in
    [min_len, max_len], depth first in pre-order, so each length comes
    out in lexicographic order of ``alphabet``.  A letter a extends w
    only when ``accept(w, a)`` holds; without ``accept`` every word is
    walked.  Iterative, so the depth is not bounded by recursion.

    Given ``lp``, the local periods of a nonempty ``prefix``, it yields
    ``(w, local periods of w)`` pairs instead: each stack entry carries
    its word's periods, stepped from its parent's by
    ``periods._extend_local_periods``.  Without ``lp`` no step runs.
    """
    step = _extend_local_periods
    stack = [(prefix, lp)]
    while stack:
        w, lp = stack.pop()
        if len(w) >= min_len:
            yield w if lp is None else (w, lp)
        if len(w) < max_len:
            for a in reversed(alphabet):
                if accept is None or accept(w, a):
                    s = w + a
                    stack.append((s, None if lp is None else step(s, lp)))


def square_free_range(
    min_len: int, max_len: int, alphabet: str = TERNARY, prefix: str = ""
) -> Iterator[str]:
    """Yield square-free words of every length in [min_len, max_len]
    extending ``prefix``, in one depth-first pass (pre-order) with
    incremental suffix checks.

    ``prefix`` restricts the walk to extensions of a (square-free)
    stem; useful for partitioning work across processes.  A non-square-
    free prefix yields nothing.  Raises RangeError for negative lengths.
    """
    if min(min_len, max_len) < 0:
        raise RangeError(f"need lengths >= 0, got {min_len}..{max_len}")
    if min_len > max_len or len(prefix) > max_len or not is_square_free(prefix):
        return iter(())
    return _walk(prefix, min_len, max_len, alphabet, extend_square_free)


def square_free_words(
    n: int, alphabet: str = TERNARY, prefix: str = ""
) -> Iterator[str]:
    """Yield every square-free word of length ``n`` over ``alphabet`` in
    lexicographic order; see ``square_free_range``."""
    return square_free_range(n, n, alphabet, prefix)


def count_square_free(n: int, alphabet: str = TERNARY) -> int:
    """Number of square-free words of length ``n`` over ``alphabet``.
    Raises ResourceGuard past the word ceiling, ``CRITFACT_MAX_WORDS``."""
    ceiling = DEFAULT_LIMITS.max_words
    count = 0
    for _ in square_free_words(n, alphabet):
        count += 1
        if count > ceiling:
            raise ResourceGuard(f"enumeration exceeded the ceiling of {ceiling} words")
    return count


def overlaps_self(x: str, w: str) -> bool:
    """True iff ``x`` occurs at two starts i < j in ``w`` with j - i < |x|.

    Raises EmptyFactor for empty ``x``.
    """
    if not x:
        raise EmptyFactor("the empty factor has no occurrences to overlap")
    span = len(x)
    i = w.find(x)
    while i != -1:
        j = w.find(x, i + 1)
        if j == -1:
            return False
        if j - i < span:
            return True
        i = j
    return False
