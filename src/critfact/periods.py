"""Local periods, repetition words, critical points, period profiles.

Vocabulary (see README for worked examples):

* A nonempty word u is a repetition word at position p of w = x.y when
  u matches around the cut: u ends at p or has x as a suffix, and u
  starts at p+1 or has y as a prefix.  Its length is a local period.
* per(w, p) is the minimal local period at p; it never exceeds the
  global period per(w), and p is *critical* when per(w, p) = per(w).
* eta(w) counts the critical points; density is eta / (|w| - 1).

The minimal local period is computed by three routes:

* ``local_period`` / ``local_periods_scan`` / ``is_local_period``: the
  definitional scan, trying q = 1, 2, ... against the matching window:
  the window predicate, for every position per q by bitmasks
  (``local_periods_scan``, which also scans a block of same-length
  words laid end to end in one call); one position by the letter loop
  (``local_period``, ``is_local_period``).  This is the reference route.
* the trie step ``squarefree._extend_local_periods``, which derives
  the local periods of w.a from those of w.  It lives beside the one
  walker that runs it, ``squarefree._walk_periods``, down the
  range-suite universes and the ``explore problem2`` search, where each
  word's parent has its periods already.
* ``local_periods``: the direct route for one word, for ``profile`` and
  every other single-word caller.  At each position it splits the
  candidates q into the four ranges of the scan's window (a square
  centred at the cut, y inside x, x inside y, a period of w).  The
  first range is searched only in a word that has a square, since a
  square-free word has none centred anywhere.  The middle two come from
  two pointers that only move forward, one over w and one over its
  mirror image: the least later occurrence of each prefix, for x inside
  y, and of each suffix, for y inside x.  An occurrence close enough to
  fall in the first range would make a square centred at the cut, so
  the pointers answer wherever the first range does not.  The last
  range is per(w).

The scan shares no code with the two fast routes, and all three must
agree everywhere; the verification suites and ``explore problem2``
recompute the scan beside the fast route and treat any disagreement as
a failure of the run itself.  Only ``profile`` builds a
``PeriodProfile``; the checked runs read the local periods and per(w)
directly, and share the critical points, the unimodality test and the
critical interval with the profile through ``_critical_points``,
``_is_unimodal`` and ``_critical_interval``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

from .config import _check_profile_len
from .errors import InvalidPeriod, InvalidPosition, RangeError, TooShort
from .squarefree import is_square_free
from .words import _check_word, global_period


def _least_local_period(w: str, p: int, q: int = 1) -> int:
    """Least local period of ``w`` at ``p`` that is >= ``q``, by the
    definitional scan: try q, q+1, ... and check each matching window
    w[i] = w[i+q] (1-based, max(1, p-q+1) <= i <= min(p, |w|-q)) letter
    by letter.  The window is empty at q = |w|, so the scan stops there.
    """
    n = len(w)
    while True:
        lo = p - q
        if lo < 0:
            lo = 0
        hi = n - q
        if p < hi:
            hi = p
        j = lo
        while j < hi:
            if w[j] != w[j + q]:
                break
            j += 1
        else:
            return q
        q += 1


def is_local_period(w: str, p: int, q: int) -> bool:
    """Whether q is a local period of w at p: its matching window holds.

    Every q passes at q = |w|.  Raises InvalidPosition / InvalidPeriod
    outside 1 <= p < |w|, 1 <= q <= |w|.
    """
    n = len(w)
    if not 1 <= p < n:
        raise InvalidPosition(f"position {p} not in 1..{n - 1}")
    if not 1 <= q <= n:
        raise InvalidPeriod(f"candidate period {q} not in 1..{n}")
    return _least_local_period(w, p, q) == q


def local_period(w: str, p: int) -> int:
    """Minimal local period of ``w`` at position ``p``, by the
    definitional scan.  Always terminates by q = |w|.
    """
    n = len(w)
    if n < 2 or not 1 <= p < n:
        raise InvalidPosition(f"position {p} not in 1..{max(n - 1, 0)}")
    return _least_local_period(w, p)


def local_periods_scan(w: str, block: int | None = None) -> list[int]:
    """Minimal local periods at every position, reference route: the
    window predicate, for every position per q by bitmasks.

    Without ``block``, ``w`` is one word of n = |w| letters.  With
    ``block`` = n, ``w`` is read as |w|/n words of length n laid end to
    end, and the result is their local periods, n-1 per word, word after
    word, so one call checks a whole batch of same-length words.  Raises
    TooShort for a word or block shorter than 2, and RangeError when |w|
    is not a positive multiple of the block.

    Bit j of a letter's mask marks w[j] = that letter (0-based), so the
    OR over all letters but one of mask ^ (mask >> q) holds every
    mismatch w[j] != w[j+q]; a mismatch shows in the masks of both its
    letters, so one mask can go.  The cut keeps the offsets j < n-q of
    each word, so it drops the pairs that cross into the next word.  A
    mismatch j lies in the window of q at p exactly when p-q <= j < p,
    so the positions where q fails are the kept set shifted by 1..q, by
    doubling shifts (in the manner of Shift-Or, Baeza-Yates and Gonnet,
    CACM 1992); none reaches the next word.  Every position still open
    outside them gets q.  The window is empty at q = n, so every
    position is settled there at the latest.  Like ``local_period``, it
    tries every q from 1 at every unsettled position and is kept free of
    shortcuts, so it can serve as the oracle for the trie step and the
    direct route.
    """
    _check_word(w)
    size = len(w)
    n = size if block is None else block
    if n < 2:
        what = "|w|" if block is None else "a block"
        raise TooShort(f"need {what} >= 2, got {n}")
    if not size or size % n:
        raise RangeError(f"{size} letters are not a positive multiple of the block {n}")
    # Bit k of a settled set becomes a field of 1, 2 or 4 bytes (q <= n
    # must fit) holding 1: its binary digits, encoded one field each.
    # Each position settles once, so q times each set sums without carry.
    if n < 1 << 8:
        encoding, code, field = "ascii", "B", 1
    elif n < 1 << 16:
        encoding, code, field = "utf-16-be", "H", 2
    else:
        encoding, code, field = "utf-32-be", "I", 4
    rev = w[::-1]  # int(..., 2) reads its first digit as the top bit
    letters = set(w)
    zero = dict.fromkeys(map(ord, letters), "0")
    letters.discard(w[0])
    masks = [int(rev.translate({**zero, ord(c): "1"}), 2) for c in letters]
    ones = ((1 << size) - 1) // ((1 << n) - 1)  # offset 0 of every word
    cut = ones * ((1 << (n - 1)) - 1)  # offsets j < n-q of every word
    todo = ones * ((1 << n) - 2)  # offset p: position p is open, 1 <= p < n
    digits = f"0{size}b"
    zeros = int.from_bytes(format(0, digits).encode(encoding), "big")
    fields = 0
    q = 0
    while todo:
        q += 1
        mismatch = 0
        for e in masks:
            mismatch |= e ^ (e >> q)
        fail = (mismatch & cut) << 1
        width = 1  # fail holds the mismatches shifted by 1..width
        while 2 * width <= q:
            fail |= fail << width
            width *= 2
        if width < q:
            fail |= fail << (q - width)
        done = todo & ~fail
        if done:
            todo ^= done
            fields += q * (int.from_bytes(format(done, digits).encode(encoding), "big") - zeros)
        cut &= cut >> 1
    flat = list(struct.unpack(f"<{size}{code}", fields.to_bytes(size * field, "little")))
    del flat[::n]  # offset 0 of each word is no position
    return flat


def _least_centred_root(w: str, p: int, lim: int) -> int:
    """Least r <= ``lim`` with w[p-r:p] == w[p:p+r], a square centred at
    ``p``, or 0 if there is none.

    For size = 1, 2, 4, ... a root r in [size, 2 size) ends, on both
    sides of the cut, with t = w[p-size:p], so t occurs at p+r-size;
    ``find`` jumps to those occurrences, and a slice compares the rest
    of the two roots.  Two occurrences of t at most size apart make a
    square, so around a square-free stretch each size meets at most one.
    """
    size = 1
    while size <= lim:
        end = p + min(2 * size - 1, lim)
        t = w[p - size : p]
        j = w.find(t, p, end)
        while j >= 0:
            r = j + size - p
            if w[p - r : p - size] == w[p:j]:
                return r
            j = w.find(t, j + 1, end)
        size *= 2
    return 0


def _first_recurrences(w: str, top: int) -> list[int]:
    """For l = 1..``top``, the least d >= 1 with w[d:d+l] == w[:l], or 0
    if the prefix of length l does not occur again.

    That least d never decreases as l grows, so one pointer serves every
    l: it stays while the letter after the last match still agrees,
    w[d+l-1] == w[l-1], and otherwise moves on with ``find`` of w[:l]
    from d+1.  Once a prefix has no second occurrence, no longer prefix
    has one, so the first miss ends the pass.
    """
    n = len(w)
    first = []
    d = 0
    for l in range(1, top + 1):
        if not d or d + l > n or w[d + l - 1] != w[l - 1]:
            d = w.find(w[:l], d + 1)
            if d < 0:
                break
        first.append(d)
    first += [0] * (top - len(first))
    return first


def local_periods(w: str) -> list[int]:
    """Minimal local periods at every position 1..|w|-1, by the direct
    route; ``_local_periods`` has the method.
    """
    _check_word(w)
    n = len(w)
    if n < 2:
        raise TooShort(f"need |w| >= 2, got {n}")
    return _local_periods(w, global_period(w))


def _local_periods(w: str, per: int) -> list[int]:
    """Minimal local periods of ``w`` (|w| >= 2) at every position, given
    its global period ``per``.

    At p, with x = w[:p] and y = w[p:], the scan's window splits the
    candidates q into four ranges, taken in increasing order of q:
    q <= min(p, |w|-p) is a square centred at p; |w|-p < q <= p puts y
    inside x at p-q; p < q <= |w|-p puts x inside y at q; and
    q > max(p, |w|-p) is a period of w.  Every period of w is a local
    period everywhere, so the first three ranges find per(w) when it is
    at most max(p, |w|-p), and the last range is reached only when it is
    not: its least period is then per(w) itself.

    A square-free word has no square centred anywhere, so the first
    range is searched, position by position, only when
    ``is_square_free`` says that w has a square.  The middle two come
    from ``_first_recurrences``: at 2p < |w| from the least d >= 1 at
    which x occurs again, and at 2p > |w| from the same pass over the
    mirror image, whose prefix of length |w|-p is y reversed.  That d
    is the answer of its range whenever the first range has none: an
    occurrence at d <= p would give w[:p+d] the period d, hence the
    square w[p-d:p+d] of root d <= min(p, |w|-p) centred at p.
    """
    n = len(w)
    half = (n - 1) // 2
    out = [d or per for d in _first_recurrences(w, half)]
    if not n % 2:
        out.append(per)
    out += [d or per for d in reversed(_first_recurrences(w[::-1], half))]
    if not is_square_free(w):
        for p in range(1, n):
            r = _least_centred_root(w, p, min(p, n - p))
            if r:
                out[p - 1] = r
    return out


@dataclass(frozen=True)
class RepetitionInfo:
    """Minimal repetition word at one position, with overflow flags.

    ``left_overflow`` holds when u reaches past the left end (|u| > p),
    ``right_overflow`` when it reaches past the right end (|u| > |w|-p).
    """

    u: str
    length: int
    left_overflow: bool
    right_overflow: bool


def _repetition_word(w: str, p: int, q: int) -> str:
    """Reconstruct the unique minimal repetition word from q = per(w, p).

    Whichever side of the cut fits inside w supplies u directly; with
    overflow on both sides u is y followed by the missing head of x,
    which degenerates to y.x exactly at q = |w|.
    """
    n = len(w)
    if q <= n - p:
        return w[p : p + q]
    if q <= p:
        return w[p - q : p]
    return w[p:] + w[n - q : p]


def repetition_info(w: str, p: int) -> RepetitionInfo:
    """Minimal repetition word of ``w`` at position ``p``."""
    q = local_period(w, p)
    return RepetitionInfo(_repetition_word(w, p, q), q, q > p, q > len(w) - p)


def midpoint(w: str) -> int:
    """The midpoint position floor((|w|+1)/2)."""
    if len(w) < 2:
        raise TooShort(f"need |w| >= 2, got {len(w)}")
    return (len(w) + 1) // 2


@dataclass(frozen=True)
class PeriodProfile:
    """All critical-factorisation data of one word.

    ``local_periods[p-1]`` is per(w, p); ``critical_points`` holds the
    positions with per(w, p) = per(w) in increasing order; ``eta`` is
    their count.  ``density`` is kept exact as a Fraction; JSON output
    carries the unreduced pair (eta, |w|-1).
    """

    word: str
    period: int
    local_periods: tuple[int, ...]
    critical_points: tuple[int, ...]
    eta: int
    midpoint: int

    @property
    def density(self) -> Fraction:
        """Critical points per position: eta / (|w| - 1)."""
        return Fraction(self.eta, len(self.word) - 1)

    @property
    def density_over_length(self) -> Fraction:
        """The eta / |w| ratio used for the low-density families."""
        return Fraction(self.eta, len(self.word))


def profile(w: str) -> PeriodProfile:
    """Compute the full period profile of ``w`` (needs |w| >= 2).

    Guarded by the profile length ceiling, ``CRITFACT_MAX_PROFILE_LEN``.
    """
    _check_word(w)
    n = len(w)
    if n < 2:
        raise TooShort(f"need |w| >= 2, got {n}")
    _check_profile_len(n, "|w| =")
    per = global_period(w)
    lp = _local_periods(w, per)
    crit = tuple(_critical_points(lp, per))
    return PeriodProfile(w, per, tuple(lp), crit, len(crit), (n + 1) // 2)


def _critical_points(lp, per: int) -> list[int]:
    """The positions p, in increasing order, whose local period
    ``lp[p-1]`` equals the global period ``per``."""
    return [p for p, q in enumerate(lp, 1) if q == per]


def _critical_interval(crit) -> tuple[int, int] | None:
    """Endpoints of the increasing positions ``crit`` when they form a
    nonempty interval, else None."""
    if crit and crit[-1] - crit[0] + 1 == len(crit):
        return crit[0], crit[-1]
    return None


def critical_interval(prof: PeriodProfile) -> tuple[int, int] | None:
    """Endpoints (q1, q2) of the critical set when it is a contiguous
    interval, else None.  Square-free ternary words always yield an
    interval; arbitrary words need not.
    """
    return _critical_interval(prof.critical_points)


def _is_unimodal(lp, m: int) -> bool:
    """Whether the local periods ``lp`` rise up to position ``m`` and
    fall after it: lp[:m] ascends and lp[m-1:] descends."""
    rise, fall = list(lp[:m]), list(lp[m - 1 :])
    return rise == sorted(rise) and fall == sorted(fall, reverse=True)


def is_unimodal(prof: PeriodProfile) -> bool:
    """Whether the local periods rise up to the midpoint and fall after:
    per(w, p-1) <= per(w, p) for 2 <= p <= M(w) and
    per(w, p) <= per(w, p-1) for M(w) < p <= |w|-1.
    """
    return _is_unimodal(prof.local_periods, prof.midpoint)


def profile_json_dict(prof: PeriodProfile) -> dict:
    """Profile as a JSON-ready dict, the documented wire format."""
    w = prof.word
    return {
        "word": w,
        "period": prof.period,
        "localPeriods": list(prof.local_periods),
        "criticalPoints": list(prof.critical_points),
        "eta": prof.eta,
        "densityNum": prof.eta,
        "densityDen": len(w) - 1,
        "midpoint": prof.midpoint,
        "repetitionWords": [
            {"p": p, "u": u, "leftOverflow": left, "rightOverflow": right}
            for p, _, u, left, right, _ in profile_csv_rows(prof)
        ],
    }


def profile_csv_rows(prof: PeriodProfile) -> list[tuple]:
    """One row per position: (p, localPeriod, u, leftOverflow,
    rightOverflow, critical)."""
    w = prof.word
    n = len(w)
    crit = set(prof.critical_points)
    return [
        (p, q, _repetition_word(w, p, q), q > p, q > n - p, p in crit)
        for p, q in enumerate(prof.local_periods, 1)
    ]
