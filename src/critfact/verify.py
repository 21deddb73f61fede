"""Theorem-by-theorem verification over exhaustive word universes.

Every local-period sequence behind a verdict or an exploration row
comes from a fast route and meets the definitional scan in one place,
``_checked``, which scans each slice of the words, length by length, in
block calls.  A suite reports a disagreement as a counterexample
whatever it would have concluded; ``explore_problem2`` raises
CritfactError.  Walked words come from ``squarefree._walk_periods``,
which steps their local periods down from their parent's with the trie
step and takes per(w) from its border array; chunk prefixes, family
words and random words take ``local_periods``, the direct route for one
word, and ``global_period``.  No checked run builds a
``PeriodProfile``: the predicates read the local periods, per(w), the
midpoint and the critical points directly.

Range suites (``verify`` / ``verify_many``) walk a word universe
determined by the theorem:

    cft, overflow, rep-unbordered    every word over the alphabet
    midpoint, unimodal, interval,
    no-overlap, upper-bound,
    lower-bound                      square-free words only

They and ``explore_problem2`` run one engine, ``_run_universe``: it
holds every word the run will grow to the word ceiling, walks the
universe in chunks, one per word prefix, serially or across worker
processes, and returns ``fold(walk)`` of each chunk in prefix order, so
the merged result does not depend on the worker count.  Each chunk runs
``_walk_periods``; the chunk prefixes and the 01-constrained search of
``verify_alpha_extremal`` run the plain walker ``_walk``, which yields
words only.  Both take the letter test that ``_letter_test`` reads when
the chunk runs; the all-words universe has none.  A range in which the
universe holds no word is refused, so no suite passes on zero words.

The range suites, ``verify_beta_eta`` and ``verify_wx_density``, whose
predicates depend on the word alone, check each word with one small
function per theorem, looked up in ``_PREDICATES``.
``_run_predicates`` looks the requested theorems up once per fold, that
is once per chunk, before the first word, and refuses one that is not
checked word by word.  The dispatch sits there because on CPython 3.10
and 3.11 each lookup of an enum member costs about 120 ns, and a chain
of ``tid is TheoremId.X`` tests ran 11 to 18 of them per word.
``_report`` builds every report.

The family suites and ``explore_problem1`` live here too.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice
from multiprocessing import Pool
from typing import Iterable, Iterator, Sequence

from .config import _check_profile_len, _hold_words
from .errors import CritfactError, RangeError, ResourceGuard
from .periods import (
    _critical_interval,
    _critical_points,
    _is_unimodal,
    _repetition_word,
    local_periods,
    local_periods_scan,
)
from .squarefree import (
    _counts_by_length,
    _walk,
    _walk_periods,
    extend_square_free,
    is_square_free,
    overlaps_self,
    square_free_words,
)
from .thue import beta_family, construct_wx, x_n
from .words import TERNARY, _check_alphabet, _check_count, _check_span, _has_border, global_period


class TheoremId(str, Enum):
    """Verifiable statements; values double as CLI tokens."""

    CFT = "cft"
    MIDPOINT = "midpoint"
    UNIMODAL = "unimodal"
    INTERVAL = "interval"
    OVERFLOW_IFF_SQUAREFREE = "overflow"
    MIN_REP_UNBORDERED = "rep-unbordered"
    NO_SELF_OVERLAP = "no-overlap"
    UPPER_BOUND = "upper-bound"
    LOWER_BOUND = "lower-bound"
    ALPHA_EXTREMAL = "alpha-extremal"
    BETA_ETA = "beta-eta"
    WX_DENSITY = "wx-density"


# Universe each range suite walks: every word, or square-free words only.
_UNIVERSE = {
    TheoremId.CFT: "all",
    TheoremId.OVERFLOW_IFF_SQUAREFREE: "all",
    TheoremId.MIN_REP_UNBORDERED: "all",
    TheoremId.MIDPOINT: "square-free",
    TheoremId.UNIMODAL: "square-free",
    TheoremId.INTERVAL: "square-free",
    TheoremId.NO_SELF_OVERLAP: "square-free",
    TheoremId.UPPER_BOUND: "square-free",
    TheoremId.LOWER_BOUND: "square-free",
}


def _letter_test(universe: str):
    """The letter test of ``universe``, read at call time, or None."""
    return None if universe == "all" else extend_square_free


@dataclass(frozen=True)
class VerifyOptions:
    """Knobs for range suites.

    ``random_count`` adds that many pseudo-random square-free words of
    length ``random_min``..``random_max`` (seeded, so reports stay
    deterministic) after the exhaustive part; used to spot-check length
    ranges too large to exhaust.  It needs an int ``random_count >= 0``
    and, when positive, ints ``2 <= random_min <= random_max`` within the
    profile ceiling and an int ``seed``; the random words count against
    the word ceiling with the exhaustive part.
    """

    alphabet: str = TERNARY
    jobs: int = 1
    random_count: int = 0
    random_min: int = 0
    random_max: int = 0
    seed: int = 0


@dataclass
class VerificationReport:
    theorem: str
    range: dict
    tested: int
    counterexamples: list[tuple[str, str]]
    elapsed_ms: int

    @property
    def verdict(self) -> str:
        return "PASS" if not self.counterexamples else "FAIL"

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "range": self.range,
            "tested": self.tested,
            "counterexamples": [
                {"word": w, "detail": d} for w, d in self.counterexamples
            ],
            "elapsedMs": self.elapsed_ms,
            "verdict": self.verdict,
        }


# Words per batch of ``_checked``: enough to spread each scan call over
# many words, few enough to keep a batch's periods small in memory.
_SCAN_SLICE = 1024


def _checked(
    words: Iterable[tuple[str, list[int] | None, int | None]]
) -> Iterator[tuple[str, list[int], int, str]]:
    """Each (word, local periods, per(word)) triple in order, as (word,
    local periods, per(word), detail), where detail is "" when the
    periods agree with the scan of the word and names the disagreement
    otherwise.  A word the walk did not step to comes with None for both
    and takes ``local_periods`` and ``global_period``.  A slice of at most
    ``_SCAN_SLICE`` words is grouped by length, each group scanned in one
    block call."""
    words = iter(words)
    while batch := list(islice(words, _SCAN_SLICE)):
        groups: dict[int, list[str]] = {}
        for w, _, _ in batch:
            groups.setdefault(len(w), []).append(w)
        scans = {}
        for n, group in groups.items():
            flat = local_periods_scan("".join(group), n)
            scans[n] = iter([flat[i : i + n - 1] for i in range(0, len(flat), n - 1)])
        for w, lp, per in batch:
            scan = next(scans[len(w)])
            if lp is None:
                lp, per = local_periods(w), global_period(w)
            if lp == scan:
                yield w, lp, per, ""
            else:
                yield w, lp, per, f"local-period routes disagree: trie={lp} scan={scan}"


# -- per-word predicates -------------------------------------------------------
#
# One function per theorem checked word by word.  Each takes a word w, its
# checked local periods lp and per(w), and returns the details of what it
# found wrong, empty when w satisfies the theorem.


def _cft(w: str, lp: list[int], per: int) -> Sequence[str]:
    try:
        first = lp.index(per) + 1
    except ValueError:
        return ("no critical point",)
    if first > per:
        return (f"least critical point {first} exceeds per(w)={per}",)
    return ()


def _midpoint(w: str, lp: list[int], per: int) -> Sequence[str]:
    mid = (len(w) + 1) // 2
    if lp[mid - 1] != per:
        return (f"midpoint {mid} not critical: per(w,{mid})={lp[mid - 1]}, per={per}",)
    return ()


def _unimodal(w: str, lp: list[int], per: int) -> Sequence[str]:
    if not _is_unimodal(lp, (len(w) + 1) // 2):
        return (f"local periods not unimodal: {lp}",)
    return ()


def _interval(w: str, lp: list[int], per: int) -> Sequence[str]:
    mid = (len(w) + 1) // 2
    crit = _critical_points(lp, per)
    interval = _critical_interval(crit)
    if interval is None:
        return (f"critical points not an interval: {crit}",)
    if not interval[0] <= mid <= interval[1]:
        return (f"interval [{interval[0]}, {interval[1]}] misses midpoint {mid}",)
    return ()


def _overflow(w: str, lp: list[int], per: int) -> Sequence[str]:
    # A point p that does not overflow, q <= min(p, |w|-p), claims the
    # square w[p-q:p+q] centred at p.  The first claim whose square the
    # letters confirm settles both sides: w is not square-free and not
    # every point overflows.  Otherwise ``is_square_free`` decides, so
    # the square side never rests on the local periods alone.
    n = len(w)
    claimed = False
    for p, q in enumerate(lp, 1):
        if q <= p and q <= n - p:
            if w[p - q : p] == w[p : p + q]:
                return ()
            claimed = True
    sf = is_square_free(w)
    if sf == claimed:  # every point overflows iff none claims a square
        return (f"square-free={sf} but every-point-overflow={not claimed}",)
    return ()


def _rep_unbordered(w: str, lp: list[int], per: int) -> Sequence[str]:
    issues = []
    for p, q in enumerate(lp, 1):
        u = _repetition_word(w, p, q)
        if _has_border(u):
            issues.append(f"repetition word {u!r} at p={p} is bordered")
    return issues


def _no_overlap(w: str, lp: list[int], per: int) -> Sequence[str]:
    n = len(w)
    factors = {w[i:j] for i in range(n) for j in range(i + 1, n + 1)}
    return [f"factor {x!r} overlaps itself" for x in sorted(factors) if overlaps_self(x, w)]


def _upper_bound(w: str, lp: list[int], per: int) -> Sequence[str]:
    eta, n = lp.count(per), len(w)
    if eta > n - 5:
        return (f"eta={eta} exceeds |w|-5={n - 5}",)
    return ()


def _lower_bound(w: str, lp: list[int], per: int) -> Sequence[str]:
    eta, n = lp.count(per), len(w)
    if 4 * eta < n:
        return (f"4*eta={4 * eta} below |w|={n}",)
    return ()


# Local periods and repetition words demanded of the four non-critical
# points 1, 2, |w|-2 and |w|-1 of every maximal-eta family word.
_BETA_EDGE = ((2, "10"), (4, "0201"), (4, "1202"), (2, "21"))


def _beta_eta(w: str, lp: list[int], per: int) -> Sequence[str]:
    eta, n = lp.count(per), len(w)
    issues = []
    if not is_square_free(w):
        issues.append("family word not square-free")
    if per != n:
        issues.append(f"family word bordered: per={per} < {n}")
    if eta != n - 5:
        issues.append(f"eta={eta}, wanted |w|-5={n - 5}")
    noncrit = [p for p, q in enumerate(lp, 1) if q != per]
    edges = [1, 2, n - 2, n - 1]
    if noncrit != edges:
        issues.append(f"non-critical points {noncrit}, wanted {edges}")
        return issues
    for p, want in zip(edges, _BETA_EDGE):
        q = lp[p - 1]
        u = _repetition_word(w, p, q)
        if (q, u) != want:
            issues.append(f"p={p}: per(w,p)={q}, u={u!r}, wanted {want[0]}, {want[1]!r}")
    return issues


def _wx_density(w: str, lp: list[int], per: int) -> Sequence[str]:
    eta, n = lp.count(per), len(w)
    lx = (n - 8) // 4  # w = 0x02x10x02x0
    k = (lx - 5).bit_length() // 2  # x = x_k has 4^k + 5 letters
    if not is_square_free(w):
        return [f"w_x for n={k} not square-free"]
    issues = []
    if eta != lx + 3:
        issues.append(f"n={k}: eta={eta}, wanted |x|+3={lx + 3}")
    if 4 * eta != n + 4:  # eta/|w| == 1/4 + 1/|w|
        issues.append(f"n={k}: eta/|w| is not exactly 1/4 + 1/|w|")
    interval = _critical_interval(_critical_points(lp, per))
    want = (2 * lx + 4, 3 * lx + 6)
    if interval != want:
        issues.append(f"n={k}: critical interval {interval}, wanted {want}")
    return issues


_PREDICATES = {
    TheoremId.CFT: _cft,
    TheoremId.MIDPOINT: _midpoint,
    TheoremId.UNIMODAL: _unimodal,
    TheoremId.INTERVAL: _interval,
    TheoremId.OVERFLOW_IFF_SQUAREFREE: _overflow,
    TheoremId.MIN_REP_UNBORDERED: _rep_unbordered,
    TheoremId.NO_SELF_OVERLAP: _no_overlap,
    TheoremId.UPPER_BOUND: _upper_bound,
    TheoremId.LOWER_BOUND: _lower_bound,
    TheoremId.BETA_ETA: _beta_eta,
    TheoremId.WX_DENSITY: _wx_density,
}


def _run_predicates(
    checked: Iterable[tuple[str, list[int], int, str]], ids: tuple[TheoremId, ...]
) -> tuple[int, list[tuple[TheoremId, str, str]]]:
    """Number of (word, local periods, per(word), detail) quadruples in
    ``checked``, and the (theorem, word, detail) issues that the
    predicates of ``ids`` find on them; a detail says the routes
    disagreed and fails every predicate.  Each id is looked up once,
    before the first word, and RangeError names one that is not checked
    word by word."""
    predicates = []
    for tid in ids:
        if tid not in _PREDICATES:
            raise RangeError(f"{tid.value} is not checked word by word")
        predicates.append((tid, _PREDICATES[tid]))
    tested = 0
    found: list[tuple[TheoremId, str, str]] = []
    for w, lp, per, detail in checked:
        tested += 1
        if detail:
            found.extend((tid, w, detail) for tid in ids)
            continue
        for tid, predicate in predicates:
            issues = predicate(w, lp, per)
            if issues:
                found.extend((tid, w, d) for d in issues)
    return tested, found


def _check_words(
    words: Iterable[tuple[str, list[int] | None, int | None]], ids: tuple[TheoremId, ...]
) -> tuple[int, list[tuple[TheoremId, str, str]]]:
    """Number of (word, local periods, period) triples checked by
    ``_checked``, and the issues the predicates of ``ids`` found."""
    return _run_predicates(_checked(words), ids)


def _run_chunk(fold, universe, alphabet, min_len, max_len, prefix):
    """``fold(walk)`` of the walk below ``prefix``, seeded with
    ``local_periods(prefix)`` and stepped down the trie from there."""
    lp = local_periods(prefix)
    return fold(_walk_periods(prefix, min_len, max_len, alphabet, _letter_test(universe), lp))


def _count_universe(universe: str, alphabet: str, min_len: int, max_len: int, extra: int) -> None:
    """Hold each length 0..``max_len`` of the universe, k^n words over k
    letters or the square-free ones as ``_counts_by_length`` counts them,
    plus ``extra`` random words, to the word ceiling, length by length
    so the total named stays near it (all lengths at once over one
    letter, one word each), and ``max_len`` to the profile
    ceiling.  Raises RangeError when the square-free universe, which is
    prefix-closed, holds no word of length ``min_len``, so that no suite
    passes on zero words tested."""
    if universe == "all":
        hold = _hold_words(extra)
        if len(alphabet) == 1:
            hold(max_len + 1)  # one word per length: one call at any ceiling
        else:
            for n in range(max_len + 1):
                hold(len(alphabet) ** n)
        _check_profile_len(max_len, "max length")  # every word is profiled
    elif not _counts_by_length(max_len, alphabet, extra)[0][min_len]:
        raise RangeError(
            f"the {universe} universe over {alphabet!r} holds no word of length {min_len}"
        )


def _run_universe(fold, universe, alphabet, min_len, max_len, jobs=1, extra=0) -> list:
    """``fold(walk)`` of each chunk, the walk below one prefix of length
    min(3, ``min_len``), in prefix order.  First the universe's words of
    lengths 0..``max_len``, plus ``extra``, are held to the word ceiling
    and ``max_len`` to the profile ceiling.  Chunks run on a pool of at
    most ``jobs`` processes."""
    _count_universe(universe, alphabet, min_len, max_len, extra)
    depth = min(3, min_len)
    prefixes = list(_walk("", depth, depth, alphabet, _letter_test(universe)))
    run = partial(_run_chunk, fold, universe, alphabet, min_len, max_len)
    jobs = min(jobs, len(prefixes), os.cpu_count() or 1)
    if jobs > 1:
        with Pool(jobs) as pool:
            return pool.map(run, prefixes)
    return list(map(run, prefixes))


def random_square_free(length: int, rng: random.Random, alphabet: str = TERNARY) -> str:
    """A pseudo-random square-free word of the given length, by iterative
    depth-first search that tries the letters at each depth in random
    order and backtracks from dead ends.  Raises RangeError for a
    negative length, a bad alphabet, or when no square-free word of that
    length exists over ``alphabet``, and ResourceGuard for a length past
    the profile ceiling, ``CRITFACT_MAX_PROFILE_LEN``.
    """
    _check_count(length, 0, "length")
    _check_alphabet(alphabet)
    _check_profile_len(length, "length")
    w = ""
    untried = [rng.sample(alphabet, len(alphabet))]  # per depth, random order
    while len(w) < length:
        letters = untried[-1]
        while letters and not extend_square_free(w, letters[-1]):
            letters.pop()
        if letters:
            w += letters.pop()
            untried.append(rng.sample(alphabet, len(alphabet)))
        elif w:
            untried.pop()
            w = w[:-1]
        else:
            raise RangeError(f"no square-free word of length {length} over {alphabet!r}")
    return w


def _report(
    theorem: TheoremId, range_desc: dict, tested: int, found: list, start: float
) -> VerificationReport:
    """A report whose counterexamples are the (word, detail) pairs of the
    (theorem, word, detail) issues in ``found`` that name ``theorem``,
    sorted, timed from ``start``."""
    ces = sorted((w, d) for t, w, d in found if t is theorem)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    return VerificationReport(theorem.value, range_desc, tested, ces, elapsed_ms)


def verify_many(
    theorems: Iterable[TheoremId | str],
    min_len: int,
    max_len: int,
    options: VerifyOptions | None = None,
) -> list[VerificationReport]:
    """Run several range suites over one shared enumeration pass.

    The theorems, given once each as ids or tokens, must walk the same
    universe.  Returns one report per theorem, in input order.
    """
    try:
        ids = tuple(TheoremId(t) for t in theorems)
    except ValueError as exc:
        raise RangeError(f"unknown theorem: {exc}") from None
    opts = options or VerifyOptions()
    if not ids:
        raise RangeError("no theorems requested")
    for tid in ids:
        if tid not in _UNIVERSE:
            raise RangeError(f"{tid.value} takes no length range; call its own function")
        if ids.count(tid) > 1:
            raise RangeError(f"{tid.value} is requested more than once")
    universes = {_UNIVERSE[tid] for tid in ids}
    if len(universes) > 1:
        raise RangeError("cannot share one enumeration across different universes")
    universe = universes.pop()
    _check_alphabet(opts.alphabet)
    _check_count(opts.jobs, 1, "jobs")
    _check_span(min_len, max_len, 2, "min <= max")
    if TheoremId.UPPER_BOUND in ids and min_len < 26:
        raise RangeError("the upper-bound suite needs min length >= 26")
    if TheoremId.UPPER_BOUND in ids and len(opts.alphabet) != 3:
        raise RangeError(
            f"the upper-bound suite is stated for three letters, got {opts.alphabet!r}"
        )
    _check_count(opts.random_count, 0, "random_count")
    if opts.random_count:
        _check_span(opts.random_min, opts.random_max, 2, "random_min <= random_max")
        _check_profile_len(opts.random_max, "random_max")  # random words are profiled too
        if not isinstance(opts.seed, int):
            raise RangeError(f"need an int seed, got {opts.seed!r}")

    start = time.perf_counter()
    fold = partial(_check_words, ids=ids)
    parts = _run_universe(
        fold, universe, opts.alphabet, min_len, max_len, opts.jobs, opts.random_count
    )
    range_desc: dict = {
        "minLen": min_len,
        "maxLen": max_len,
        "universe": universe,
        "alphabet": opts.alphabet,
    }
    if opts.random_count:
        rng = random.Random(opts.seed)
        words = (
            random_square_free(rng.randint(opts.random_min, opts.random_max), rng, opts.alphabet)
            for _ in range(opts.random_count)
        )
        parts.append(fold((w, None, None) for w in words))
        range_desc["randomCount"] = opts.random_count
        range_desc["randomMin"] = opts.random_min
        range_desc["randomMax"] = opts.random_max
        range_desc["seed"] = opts.seed

    tested = sum(t for t, _ in parts)
    found = [item for _, part in parts for item in part]
    return [_report(tid, dict(range_desc), tested, found, start) for tid in ids]


def verify(
    theorem: TheoremId | str,
    min_len: int,
    max_len: int,
    options: VerifyOptions | None = None,
) -> VerificationReport:
    """Run one range suite; see ``verify_many``."""
    return verify_many([theorem], min_len, max_len, options)[0]


# -- family suites -----------------------------------------------------------

# The longest unbordered square-free word with 01 occurring only as its
# prefix; the exhaustive search below re-establishes it from scratch.
ALPHA_WORD = "0121021202102"

_ALPHA_SEARCH_CAP = 64


def verify_alpha_extremal() -> VerificationReport:
    """Exhaustively search square-free words that start with 01 and
    contain 01 exactly once; PASS iff the unbordered ones top out at
    length 13 with the single witness ``ALPHA_WORD``.
    """
    start = time.perf_counter()
    tested = 0
    by_len: dict[int, list[str]] = {}

    def accept(w: str, a: str) -> bool:
        # 0 then 1 would make a second 01
        return not (w[-1] == "0" and a == "1") and extend_square_free(w, a)

    for w in _walk("01", 2, _ALPHA_SEARCH_CAP + 1, TERNARY, accept):
        tested += 1
        if len(w) > _ALPHA_SEARCH_CAP:
            raise ResourceGuard("01-constrained search ran past the expected depth")
        if not _has_border(w):
            by_len.setdefault(len(w), []).append(w)
    top = max(by_len)
    tid = TheoremId.ALPHA_EXTREMAL
    found = []
    if top > 13:
        for w in (wd for length, ws in by_len.items() if length > 13 for wd in ws):
            found.append((tid, w, f"unbordered, unique 01 prefix, length {len(w)} > 13"))
    elif top < 13:
        found.append((tid, "", f"search topped out at length {top} < 13"))
    elif by_len[13] != [ALPHA_WORD]:
        for w in by_len[13]:
            if w != ALPHA_WORD:
                found.append((tid, w, "unexpected maximal witness"))
        if ALPHA_WORD not in by_len[13]:
            found.append((tid, ALPHA_WORD, "expected witness not found"))
    range_desc = {"constraint": "square-free, prefix 01, no other 01 occurrence"}
    return _report(tid, range_desc, tested, found, start)


def _family_report(theorem, range_desc, words, start) -> VerificationReport:
    """The report of ``theorem``'s per-word predicates on ``words``."""
    tested, found = _check_words(((w, None, None) for w in words), (theorem,))
    return _report(theorem, range_desc, tested, found, start)


def verify_beta_eta(count: int, search_bound: int) -> VerificationReport:
    """Check the first ``count`` maximal-eta family words from
    m_prefix(search_bound): square-free, unbordered, eta = |w|-5, and
    the four edge points carrying exactly the expected local periods
    and repetition words.
    """
    start = time.perf_counter()
    words = beta_family(count, search_bound)
    range_desc = {"count": count, "searchBound": search_bound}
    return _family_report(TheoremId.BETA_ETA, range_desc, words, start)


def verify_wx_density(n_max: int) -> VerificationReport:
    """For n = 1..n_max check the template words w = 0x02x10x02x0 built
    on x = x_n: square-free, eta = |x|+3, eta/|w| = 1/4 + 1/|w| exactly,
    and critical interval [2|x|+4, 3|x|+6].  Each w is checked against
    the profile ceiling, ``CRITFACT_MAX_PROFILE_LEN``, as it is built;
    |w| = 4^(n+1) + 28 grows past the default 5000 at n = 6.
    """
    _check_count(n_max, 1, "n_max")
    start = time.perf_counter()
    words = []
    for n in range(1, n_max + 1):
        w = construct_wx(x_n(n))
        _check_profile_len(len(w), "|w| =")  # the ceiling ``profile`` applies
        words.append(w)
    return _family_report(TheoremId.WX_DENSITY, {"nMax": n_max}, words, start)


# -- exploration (no truth claims) -------------------------------------------

_PROBLEM1_NOTE = (
    "searching square-free x for which 0x02x10x02x0 is square-free; "
    "reported per length within the searched range only"
)


def explore_problem1(len_min: int, len_max: int) -> dict:
    """Witness-or-exhausted table: for each length, the first square-free
    x whose template word 0x02x10x02x0 is square-free, if any.

    ``len_max`` may not pass the profile ceiling, checked before the
    first length.  Each length's search stops at its first witness, so
    the words searched cannot be counted ahead: each x is held to the
    word ceiling, ``CRITFACT_MAX_WORDS``, as it is searched."""
    _check_span(len_min, len_max, 1, "min <= max")
    _check_profile_len(len_max, "max length")
    hold = _hold_words()
    rows = []
    for length in range(len_min, len_max + 1):
        witness = None
        searched = 0
        for x in square_free_words(length):
            searched += 1
            hold(1)
            if is_square_free(construct_wx(x)):
                witness = x
                break
        rows.append({"length": length, "witness": witness, "searched": searched})
    return {"problem": "problem1", "note": _PROBLEM1_NOTE, "lengths": rows}


def _problem2_fold(walk) -> dict:
    """For each length divisible by 4 in the walk: the words tested, the
    least eta(w) - |w|/4 and the words where it is 0, in walk order."""
    rows: dict[int, list] = {}
    for w, lp, per, detail in _checked(t for t in walk if len(t[0]) % 4 == 0):
        if detail:
            raise CritfactError(detail)
        excess = lp.count(per) - len(w) // 4
        row = rows.setdefault(len(w), [0, excess, []])
        row[0] += 1
        row[1] = min(row[1], excess)
        if excess == 0:
            row[2].append(w)
    return rows


def explore_problem2(len_max: int) -> dict:
    """Per-length minima of eta(w) - |w|/4 over square-free words with
    length divisible by 4, plus every word where it is 0, from one walk
    that steps local periods down the trie; the scan checks them on
    every word reported, and a disagreement raises CritfactError.

    Before the walk, the square-free words of lengths 0..``len_max`` are
    counted length by length against the word ceiling,
    ``CRITFACT_MAX_WORDS``, and ``len_max`` is held to the profile
    ceiling, ``CRITFACT_MAX_PROFILE_LEN``."""
    _check_count(len_max, 4, "len_max")
    rows = {
        length: {"length": length, "minExcess": None, "witnesses": [], "tested": 0}
        for length in range(4, len_max + 1, 4)
    }
    for part in _run_universe(_problem2_fold, "square-free", TERNARY, 4, len_max):
        for length, (tested, least, witnesses) in part.items():
            row = rows[length]
            row["tested"] += tested
            row["minExcess"] = least if row["minExcess"] is None else min(row["minExcess"], least)
            row["witnesses"] += witnesses
    return {"problem": "problem2", "lengths": list(rows.values())}
