"""Square detection, self-overlap checks, square-free enumeration.

A square is a factor vv with v nonempty; a word is square-free when it
has none.  Two detection routes are kept deliberately independent:

* ``find_square`` is the quadratic reference scan.  It reports the
  canonical occurrence (smallest start, then smallest root) and is the
  route every other square check is tested against.
* ``has_square`` answers existence only.  One bounded-backreference
  regex finds the short roots; each longer root is anchored at a block
  of the square's first half whose start is a multiple of the block
  length, found again one root later by ``str.find``, and settled by
  slice comparisons.  The letter work stays in C, so a 10^6-letter
  word takes about a second.

``is_square_free`` dispatches between them by length.

``_walk`` enumerates words depth first; ``square_free_range`` and
``square_free_words`` run it with ``extend_square_free`` as letter test.
``_walk_periods`` walks the same words and carries each one's local
periods and its global period per(w) down the trie, by the trie step
``_extend_local_periods`` and a Knuth-Morris-Pratt border step, so the
range suites check a walked word from the walk's own state.

Counts go breadth first instead: ``_counts_by_length`` grows each
length's square-free words from the previous length's, one word per
letter-renaming orbit, and holds every word counted to the word
ceiling; ``enumerate`` lists the last length's orbits in full
(``_orbit_words``).  Every square-free pre-count runs it, so none grows
a length past the first at which the running total passes the ceiling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from math import perm
from typing import Callable, Iterator

from .config import _check_profile_len, _hold_words
from .errors import EmptyFactor
from .words import TERNARY, _check_alphabet, _check_count, _check_word, border_array

# is_square_free sends words up to this length to find_square, although
# has_square is faster at every such length.  The fork stays only because
# perfbench/selftest.py predicts find_square busy and has_square idle on
# the sf-universe and all-words workloads (ROADMAP item 2).
_FAST_THRESHOLD = 64

# has_square's shortest anchor block, set by measurement: on prefixes
# of m of 2*10^3 to 10^5 letters 8 was fastest, 16 within 4 %, and 4 and
# 32 about 1.45x slower.  The regex takes every root below 2*_BLOCK in
# one C-level search of at most n*(2*_BLOCK)^2 steps.
_BLOCK = 8
_SHORT_SQUARE = re.compile(r"(.{1,%d})\1" % (2 * _BLOCK - 1), re.S)


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


def has_square(w: str) -> bool:
    """Whether ``w`` has a square, by a short-root regex and aligned-block
    anchors.

    Roots below 2*_BLOCK are left to ``_SHORT_SQUARE``.  Longer roots go
    level by level: at level s (s = _BLOCK, 2*_BLOCK, ...) a square of
    root q in [2s, 4s) has a first half of at least 2s letters, which
    holds a block w[j:j+s] with j a multiple of s, and that block recurs
    at o = j+q.  Each such recurrence is found with ``str.find`` in the
    window [j+2s, j+5s-1), and there is a square of root q through both
    copies iff the letters matching backwards from j and o (L, capped at
    q-s) and those matching forwards from them (at least s) sum to q or
    more.  No square with root below 2s is left at level s, so copies of
    a block lie more than s apart and each window holds two at most.
    """
    if _SHORT_SQUARE.search(w):
        return True
    n = len(w)
    s = _BLOCK
    while 4 * s <= n:
        for j in range(0, n - 3 * s + 1, s):
            block, end = w[j : j + s], j + 5 * s - 1
            o = w.find(block, j + 2 * s, end)
            while o != -1:
                q = o - j
                # L by galloping, then binary search, on slice compares
                cap = min(q - s, j)
                k = 1
                while k <= cap and w[j - k : j] == w[o - k : o]:
                    k += k
                lo, hi = k >> 1, min(k - 1, cap)
                while lo < hi:
                    mid = (lo + hi + 1) >> 1
                    if w[j - mid : j] == w[o - mid : o]:
                        lo = mid
                    else:
                        hi = mid - 1
                # the q-s-L letters after the block must match forwards
                need = q - s - lo
                if w[j + s : j + s + need] == w[o + s : o + s + need]:
                    return True
                o = w.find(block, o + 1, end)
        s += s
    return False


def is_square_free(w: str) -> bool:
    """True iff ``w`` contains no factor vv with v nonempty."""
    if len(w) <= _FAST_THRESHOLD:
        return find_square(w) is None
    return not has_square(w)


def extend_square_free(w: str, a: str) -> bool:
    """Whether w.a stays square-free, given that ``w`` is square-free.

    Any new square must end at the appended letter, so it is a suffix of
    w.a of root r <= (|w|+1)//2 whose first half ends with a copy of a
    at i = |w|-r.  ``str.rfind`` jumps from copy to copy of a, nearest
    first, and each is tested by one slice comparison of the r-1 letters
    before it with those after it; w.a is never built.
    """
    m = len(w)
    lo = m - (m + 1) // 2
    i = w.rfind(a, lo, m)
    while i != -1:
        if w[2 * i - m + 1 : i] == w[i + 1 :]:
            return False
        i = w.rfind(a, lo, i)
    return True


def _extend_local_periods(s: str, lp: list[int], per: int) -> list[int]:
    """Minimal local periods of s = w.a, given ``lp``, those of the
    nonempty word w, and ``per``, the global period per(s): the trie
    step, run only by ``_walk_periods``, one letter per step.
    ``periods.local_periods`` serves a single word without it.

    Appending a letter only enlarges each matching window, so
    per(s, p) >= per(w, p).  At p < |w| the window of q = per(w, p)
    gains the one index |w|-q exactly when q > |w|-p, that is when
    q >= |s|-p.  A candidate q' >= max(p, |s|-p) has the whole of s as
    its window, so it is a local period iff it is a period of s, and
    the least of those is per(s), a local period everywhere.  So where
    q >= p too the answer is per(s), with no search.  Elsewhere the
    search resumes only if the new index's letter differs from a: each
    larger candidate q' < p has |w|-q' as the last index of its window,
    so only the q' that put an earlier a there (found by ``rfind``) get
    a slice comparison of the rest of the window, and with none left
    the answer is per(s).  At the new position p = |w| the window of q
    is that single index, so per(s, |w|) is the distance back to the
    last a in w.
    """
    m = len(s) - 1
    a = s[m]
    out = lp[:]
    for p in range(1, m):
        q = out[p - 1]
        if q > m - p:
            if q >= p:
                out[p - 1] = per
            elif s[m - q] != a:
                i = s.rfind(a, m - p + 1, m - q)  # candidates m - i < p
                while i >= 0 and s[p - m + i : i] != s[p:m]:
                    i = s.rfind(a, m - p + 1, i)
                out[p - 1] = per if i < 0 else m - i
    out.append(m - s.rfind(a, 0, m))
    return out


def _walk(
    prefix: str, min_len: int, max_len: int, alphabet: str,
    accept: Callable[[str, str], bool] | None = None,
) -> Iterator[str]:
    """Yield ``prefix`` and its extensions whose length lies in
    [min_len, max_len], depth first in pre-order, so each length comes
    out in lexicographic order of ``alphabet``.  A letter a extends w
    only when ``accept(w, a)`` holds; without ``accept`` every word is
    walked.  Iterative, so the depth is not bounded by recursion.
    """
    stack = [prefix]
    while stack:
        w = stack.pop()
        if len(w) >= min_len:
            yield w
        if len(w) < max_len:
            for a in reversed(alphabet):
                if accept is None or accept(w, a):
                    stack.append(w + a)


def _walk_periods(
    prefix: str, min_len: int, max_len: int, alphabet: str,
    accept: Callable[[str, str], bool] | None, lp: list[int],
) -> Iterator[tuple[str, list[int], int]]:
    """The words of ``_walk``, in its order, as ``(w, local periods of
    w, per(w))`` triples, given ``lp``, the local periods of a nonempty
    ``prefix``.

    Each stack entry carries the longest border of its word, found by
    one Knuth-Morris-Pratt failure step from the border array of the
    path down to its parent, and its word's periods, stepped from its
    parent's by ``_extend_local_periods`` with the per(w) that border
    gives.  That array is shared by the whole walk and seeded with
    ``border_array(prefix)``: every entry on the stack extends a word on
    the current path, so when it is popped the array holds its parent's
    borders, and it writes its own over those of the last subtree
    walked.
    """
    step = _extend_local_periods
    path = border_array(prefix) + [0] * (max_len - len(prefix))
    stack = [(prefix, lp, path[len(prefix) - 1])]
    while stack:
        w, lp, b = stack.pop()
        n = len(w)
        path[n - 1] = b
        if n >= min_len:
            yield w, lp, n - b
        if n < max_len:
            for a in reversed(alphabet):
                if accept is None or accept(w, a):
                    k = b
                    while k and w[k] != a:
                        k = path[k - 1]
                    k = k + 1 if w[k] == a else 0
                    s = w + a
                    stack.append((s, step(s, lp, n + 1 - k), k))


def square_free_range(
    min_len: int, max_len: int, alphabet: str = TERNARY, prefix: str = ""
) -> Iterator[str]:
    """Yield square-free words of every length in [min_len, max_len]
    extending ``prefix``, in one depth-first pass (pre-order) with
    incremental suffix checks.

    ``prefix`` restricts the walk to extensions of a (square-free)
    stem; only tests pass one.  A non-square-free prefix yields nothing.
    Raises AlphabetError for a prefix that is not a str, RangeError for
    a length that is not an int >= 0 or a bad alphabet, and ResourceGuard
    before the walk when ``max_len`` exceeds the profile ceiling,
    ``CRITFACT_MAX_PROFILE_LEN``.
    """
    _check_word(prefix)
    _check_count(min_len, 0, "min_len")
    _check_count(max_len, 0, "max_len")
    _check_alphabet(alphabet)
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


def _counts_by_length(max_len: int, alphabet: str, extra: int = 0) -> tuple[list[int], list[list[str]]]:
    """The number of square-free words over ``alphabet`` of each length
    0..``max_len``, and the orbit representatives of length ``max_len``
    grouped by their number d of distinct letters.

    Renaming letters keeps a word square-free, so only one word per
    orbit is grown: the one whose letters first occur in alphabet order
    (a restricted growth string, Knuth, TAOCP 7.2.1.5).  It uses the
    first d letters and stands for ``perm(k, d)`` words over k letters,
    so every count stays exact.  Length 1 comes from
    ``square_free_words`` over the first letter and each longer length
    from the representatives of the one before, each grown by
    ``extend_square_free`` with the letters it uses and the next one,
    so no more than two lengths' representatives are held at once.
    Raises RangeError for a length not an int >= 0 or a bad alphabet
    and ResourceGuard when ``max_len`` passes the profile ceiling, all
    before the first word, and ``_hold_words`` at the first length at
    which ``extra`` plus the words counted pass the word ceiling.
    """
    _check_count(max_len, 0, "length")
    _check_alphabet(alphabet)
    _check_profile_len(max_len, "max length")
    k = len(alphabet)
    groups, counts, hold = [[""]], [], _hold_words(extra)
    for n in range(max_len + 1):
        if n == 1:
            groups = [[], list(square_free_words(1, alphabet[:1]))]
        elif n:
            grown = [[] for _ in range(min(len(groups), k) + 1)]
            for d, reps in enumerate(groups):
                for w in reps:
                    for i, a in enumerate(alphabet[: d + 1]):
                        if extend_square_free(w, a):
                            grown[d + (i == d)].append(w + a)
            groups = grown
        counts.append(sum(perm(k, d) * len(reps) for d, reps in enumerate(groups)))
        hold(counts[-1])
    return counts, groups


def _orbit_words(groups: list[list[str]], alphabet: str) -> list[str]:
    """Every word in the orbits of ``groups``, as ``_counts_by_length``
    returns them: each representative with d letters under each
    injective renaming of the first d letters of ``alphabet``, in
    lexicographic order of ``alphabet``."""
    words = []
    for d, reps in enumerate(groups):
        for image in permutations(alphabet, d):
            rename = str.maketrans(alphabet[:d], "".join(image))
            words.extend(w.translate(rename) for w in reps)
    rank = {ord(a): i for i, a in enumerate(alphabet)}
    return sorted(words, key=lambda w: w.translate(rank))


def count_square_free(n: int, alphabet: str = TERNARY) -> int:
    """Number of square-free words of length ``n`` over ``alphabet``,
    counted length by length by ``_counts_by_length`` and so held to
    both ceilings."""
    return _counts_by_length(n, alphabet)[0][-1]


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
        if j != -1 and j - i < span:
            return True
        i = j
    return False
