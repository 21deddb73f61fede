"""Square detection, self-overlap checks, square-free enumeration.

A square is a factor vv with v nonempty; a word is square-free when it
has none.  Two detection routes are kept deliberately independent:

* ``find_square`` is the quadratic reference scan.  It reports the
  canonical occurrence (smallest start, then smallest root) and is the
  route every other square check is tested against.
* ``has_square`` answers existence only, by Main-Lorentz divide and
  conquer: both halves, then the squares across the cut, found by
  letter matches from the cut per root on the word and on its mirror
  image.  It makes square-freeness checks of 10^5-letter words
  affordable.

``is_square_free`` dispatches between them by length.

One depth-first walker enumerates words; ``square_free_range`` and
``square_free_words`` run it with ``extend_square_free`` as letter test.
On request it also carries each word's local periods down the trie.

Counts go breadth first instead: ``_counts_by_length`` grows each
length's square-free words from the previous length's, so every
pre-count (``count_square_free``, the range suites' and ``explore
problem2``'s) stops at the first length past the word ceiling and
builds no longer word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .config import DEFAULT_LIMITS, _check_profile_len
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


def _square_right_of(w: str, h: int) -> bool:
    """Whether ``w`` has a square w[i:i+2q] with i < h <= i+q, one whose
    second half starts at or after the cut h.

    For each root q, k letters (at most h) match backwards from h-1 and
    h+q-1; the square exists iff k >= 1 and the other q-k letters match
    forwards, letter by letter, from h and h+q, inside w: 2q-k <= m =
    |w[h:]|.  When k >= q the square is w[h-q:h+q] and the forward range
    is empty.  A backward match of l < q letters is a copy inside w[h:]
    of the last l letters of w[:h], and a forward match of l letters a
    copy of the first l letters of w[h:]; when w[h:] is square-free such
    copies start more than l apart, so about m/l roots at most match l
    letters either way and the letter steps total O(m log m).  Nothing
    is copied.
    """
    m = len(w) - h
    for q in range(1, m + 1):
        k = 0
        while k < h and w[h - 1 - k] == w[h + q - 1 - k]:
            k += 1
        if k and 2 * q - k <= m:
            j, end = h, h + q - k
            while j < end and w[j] == w[j + q]:
                j += 1
            if j >= end:
                return True
    return False


def has_square(w: str) -> bool:
    """Existence-only square test by Main-Lorentz divide and conquer.

    A square lies in one half or crosses the cut h.  If its second half
    starts at or after the cut, ``_square_right_of(w, h)`` finds it;
    otherwise its mirror image is such a square of the reversed word at
    cut n-h.
    """
    n = len(w)
    if n < 2:
        return False
    h = n // 2
    # halves first: each crossing test then meets a square-free right
    # part (w[h:], or w[:h] reversed), which bounds its letter steps
    return (
        has_square(w[:h])
        or has_square(w[h:])
        or _square_right_of(w, h)
        or _square_right_of(w[::-1], n - h)
    )


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
    free prefix yields nothing.  Raises RangeError for negative lengths,
    and ResourceGuard before the walk when ``max_len`` exceeds the
    profile ceiling, ``CRITFACT_MAX_PROFILE_LEN``.
    """
    if min(min_len, max_len) < 0:
        raise RangeError(f"need lengths >= 0, got {min_len}..{max_len}")
    _check_profile_len(max_len, "max length")
    if min_len > max_len or len(prefix) > max_len or not is_square_free(prefix):
        return iter(())
    return _walk(prefix, min_len, max_len, alphabet, extend_square_free)


def square_free_words(
    n: int, alphabet: str = TERNARY, prefix: str = ""
) -> Iterator[str]:
    """Yield every square-free word of length ``n`` over ``alphabet`` in
    lexicographic order; see ``square_free_range``."""
    return square_free_range(n, n, alphabet, prefix)


def _counts_by_length(max_len: int, alphabet: str) -> Iterator[int]:
    """Yield the number of square-free words over ``alphabet`` of each
    length 0..``max_len``, in order.  Length 1 comes from
    ``square_free_words`` and each longer length from the words of the
    one before, grown by ``extend_square_free``, so no more than two
    lengths' words are held at once.  Raises RangeError for a negative
    length and ResourceGuard when ``max_len`` passes the profile
    ceiling, both before the first count; it also raises ResourceGuard
    rather than grow a length that holds more words than the word
    ceiling, ``CRITFACT_MAX_WORDS``.
    """
    if max_len < 0:
        raise RangeError(f"need length >= 0, got {max_len}")
    _check_profile_len(max_len, "max length")
    ceiling = DEFAULT_LIMITS.max_words
    yield 1  # the empty word
    if max_len:
        words = list(square_free_words(1, alphabet))
        yield len(words)
        for n in range(2, max_len + 1):
            if len(words) > ceiling:
                raise ResourceGuard(
                    f"{len(words)} square-free words of length {n - 1} exceed the ceiling {ceiling}"
                )
            words = [w + a for w in words for a in alphabet if extend_square_free(w, a)]
            yield len(words)


def count_square_free(n: int, alphabet: str = TERNARY) -> int:
    """Number of square-free words of length ``n`` over ``alphabet``,
    counted length by length.  Raises ResourceGuard when ``n`` passes
    the profile ceiling, ``CRITFACT_MAX_PROFILE_LEN``, and at the first
    length that holds more words than the word ceiling,
    ``CRITFACT_MAX_WORDS``."""
    ceiling = DEFAULT_LIMITS.max_words
    for count in _counts_by_length(n, alphabet):
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
