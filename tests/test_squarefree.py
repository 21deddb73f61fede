import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critfact import (
    EmptyFactor,
    RangeError,
    ResourceGuard,
    SquareOccurrence,
    count_square_free,
    extend_square_free,
    find_square,
    has_square,
    is_square_free,
    overlaps_self,
    square_free_range,
    square_free_words,
)
from critfact import squarefree as squarefree_module
from critfact.cli import run
from critfact.periods import local_periods, local_periods_scan
from critfact.squarefree import _counts_by_length, _orbit_words, _walk, _walk_periods
from critfact.thue import m_prefix
from critfact.verify import _count_universe, verify_alpha_extremal
from critfact.words import global_period

from conftest import all_words, brute_border, brute_has_square


def test_find_square_trivial():
    assert find_square("010") is None
    assert find_square("0101") == SquareOccurrence(1, "01")
    assert find_square("") is None
    assert find_square("0") is None


def test_find_square_example1_canonical():
    # the whole length-10 prefix is the first square: root 01202 at start 1
    occ = find_square("0120201202021021021")
    assert occ == SquareOccurrence(1, "01202")


def test_find_square_tie_break_smallest_root():
    # at start 1 both roots 0 and 00 give squares; the shorter wins
    assert find_square("0000") == SquareOccurrence(1, "0")


def test_square_detectors_agree_exhaustively():
    for n in range(0, 12):
        for w in all_words(n):
            assert has_square(w) == (find_square(w) is not None)
    for n in range(0, 15):
        for w in all_words(n, "01"):
            assert has_square(w) == (find_square(w) is not None)


@settings(max_examples=300)
@given(st.text(alphabet="012", min_size=0, max_size=120))
def test_square_routes_match_brute(w):
    expected = brute_has_square(w)
    assert has_square(w) == expected
    assert (find_square(w) is not None) == expected
    assert is_square_free(w) == (not expected)


def test_is_square_free_long_prefix():
    assert is_square_free(m_prefix(20000))


# Leech's uniform square-free morphism (Leech 1957)
LEECH = {"0": "0121021201210", "1": "1202102012021", "2": "2010210120102"}


def leech_prefix(n):
    w = "0"
    while len(w) < n:
        w = "".join([LEECH[a] for a in w])
    return w[:n]


def test_leech_prefixes_are_square_free():
    for n in (13, 64, 65, 169, 700, 2000):
        w = leech_prefix(n)
        assert find_square(w) is None
        assert not has_square(w) and not has_square(w[::-1])
    assert not has_square(leech_prefix(13**4))


def _cuts(lo, hi, depth):
    """The midpoints of w[lo:hi] and of its halves, ``depth`` levels
    down: plant positions spread over the word at every scale."""
    if depth == 0 or hi - lo < 2:
        return []
    h = lo + (hi - lo) // 2
    return [h] + _cuts(lo, h, depth - 1) + _cuts(h, hi, depth - 1)


@pytest.mark.parametrize("base", [m_prefix(5000), leech_prefix(5000)], ids=["m", "leech"])
def test_planted_squares_are_found_in_long_words(base):
    assert not has_square(base)
    for r in (1, 2, 9, 64, 333):
        v = base[7 * r : 8 * r]
        n = len(base) + 2 * r
        # the square starts at p; a midpoint lies d letters into it, in
        # its first half, at its centre or in its second half
        starts = {0, len(base)}
        for c in _cuts(0, n, 3):
            starts.update(c - d for d in (max(1, r // 2), r, min(2 * r - 1, r + r // 2 + 1)))
        for p in starts:
            w = base[:p] + v + v + base[p:]
            assert has_square(w), (r, p)


def test_block_levels_match_find_square_exhaustively(monkeypatch):
    # the regex takes root 1 only and the block levels start at s = 1,
    # so every other root of these short words goes through the blocks
    monkeypatch.setattr(squarefree_module, "_BLOCK", 1)
    monkeypatch.setattr(squarefree_module, "_SHORT_SQUARE", re.compile(r"(.)\1", re.S))
    for n in range(0, 12):
        for w in all_words(n):
            assert has_square(w) == (find_square(w) is not None), w
    for n in range(0, 15):
        for w in all_words(n, "01"):
            assert has_square(w) == (find_square(w) is not None), w


def _level(r):
    """The block length s whose level takes root r (r in [2s, 4s)); the
    shortest level's block for the regex's roots."""
    s = squarefree_module._BLOCK
    while 4 * s <= r:
        s += s
    return s


@pytest.mark.parametrize("base", [m_prefix(2400)[2000:], leech_prefix(700)[300:]], ids=["m", "leech"])
@pytest.mark.parametrize("r", [15, 16, 31, 32, 63, 64, 127, 128])
def test_planted_squares_at_the_level_boundaries(base, r):
    # The root v = 3.y.4 holds a factor y of the base between two letters
    # the base lacks, so the planted vv is the word's only square and
    # starts exactly at i: 0, 1 and s-1 mod the block length s of root
    # r's level, inside the base and flush with the last letter.  With
    # the second v's first or last letter changed to 5 the word is
    # square-free, and so is its mirror image.
    assert find_square(base) is None
    s = _level(r)
    for i in (3 * s, 3 * s + 1, 4 * s - 1):
        y = base[i + 1 : i + r - 1]
        v = "3" + y + "4"
        for tail in (base[i + r :], ""):
            w = base[:i] + v + v + tail
            assert has_square(w) and find_square(w) == SquareOccurrence(i + 1, v), (r, i)
            for u in ("5" + y + "4", "3" + y + "5"):
                w = base[:i] + v + u + tail
                assert not has_square(w) and find_square(w) is None, (r, i, u)
                assert not has_square(w[::-1]), (r, i, u)


M3000 = m_prefix(3000)


def _plant(start, size, at, r, miss):
    """A factor of m with vv inserted, the second v changed at ``miss``
    when miss < |v|."""
    w, v = M3000[start : start + size], M3000[1000 : 1000 + r]
    u = v if miss >= r else v[:miss] + {"0": "1", "1": "2", "2": "0"}[v[miss]] + v[miss + 1 :]
    at = min(at, len(w))
    return w[:at] + v + u + w[at:]


near_squares = st.builds(
    _plant, st.integers(0, 2000), st.integers(0, 400), st.integers(0, 400),
    st.integers(0, 60), st.integers(0, 80),
)


@settings(max_examples=200)
@given(st.one_of(st.text(alphabet="012", max_size=200), near_squares))
def test_has_square_is_mirror_symmetric(w):
    assert has_square(w) == has_square(w[::-1]) == (find_square(w) is not None)


def test_find_square_occurrence_is_real():
    for n in range(2, 10):
        for w in all_words(n):
            occ = find_square(w)
            if occ is not None:
                s, r = occ.start - 1, len(occ.root)
                assert w[s : s + r] == w[s + r : s + 2 * r] == occ.root


def test_extend_square_free():
    assert extend_square_free("01", "0")
    assert not extend_square_free("01", "1")
    assert extend_square_free("0102", "0")  # "01020" has no square
    assert extend_square_free("012021", "0")


def test_extend_matches_full_recheck_exhaustively():
    for n in range(0, 11):
        for w in square_free_words(n):
            for a in "012":
                assert extend_square_free(w, a) == (find_square(w + a) is None)


def test_enumeration_counts_match_brute_filter():
    expected = {
        n: sum(1 for w in all_words(n) if not brute_has_square(w)) for n in range(0, 9)
    }
    for n, want in expected.items():
        assert count_square_free(n) == want
    assert count_square_free(0) == 1
    assert count_square_free(1) == 3
    assert count_square_free(2) == 6
    assert count_square_free(3) == 12
    assert count_square_free(5) == 30


@pytest.mark.parametrize(
    "alphabet, top",
    [("0", 16), ("01", 16), ("012", 16), ("210", 16), ("0123", 9), ("ab", 16)],
)
def test_orbit_counts_and_listing_equal_the_walk(alphabet, top):
    # one word per letter-renaming orbit is grown, yet every count and
    # the expanded listing, in alphabet order, are the walk's
    walked = [list(square_free_words(n, alphabet)) for n in range(top + 1)]
    for n in range(top + 1):
        counts, groups = _counts_by_length(n, alphabet)
        assert counts == [len(words) for words in walked[: n + 1]]
        assert _orbit_words(groups, alphabet) == walked[n]
        for d, reps in enumerate(groups):
            for w in reps:
                assert "".join(dict.fromkeys(w)) == alphabet[:d], w


def test_enumeration_is_lexicographic_and_square_free():
    words = list(square_free_words(13))
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    for w in words[:50] + words[-50:]:
        assert is_square_free(w)


def test_enumeration_prefix_partition():
    whole = list(square_free_words(7))
    parts = []
    for pre in square_free_words(3):
        parts.extend(square_free_words(7, prefix=pre))
    assert sorted(parts) == whole


def test_square_free_range_covers_all_lengths():
    got = sorted(square_free_range(2, 5), key=lambda w: (len(w), w))
    want = [w for n in range(2, 6) for w in square_free_words(n)]
    assert got == want


@pytest.mark.parametrize(
    "min_len, max_len, prefix",
    [(5, 4, ""), (2, 3, "0120"), (2, 6, "0101")],
    ids=["min-past-max", "prefix-past-max", "prefix-with-a-square"],
)
def test_square_free_range_can_be_empty(min_len, max_len, prefix):
    assert list(square_free_range(min_len, max_len, prefix=prefix)) == []


def test_square_free_range_rejects_negative_lengths():
    with pytest.raises(RangeError):
        square_free_range(-1, 3)
    with pytest.raises(RangeError):
        square_free_words(-1)


def test_square_free_range_keeps_the_profile_ceiling(monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_PROFILE_LEN", "12")
    assert sum(1 for _ in square_free_range(12, 12)) == 264
    with pytest.raises(ResourceGuard, match="^max length 13 exceeds the profile ceiling 12$"):
        square_free_range(0, 13)
    with pytest.raises(ResourceGuard, match="^max length 13 exceeds the profile ceiling 12$"):
        count_square_free(13)


def test_walk_without_letter_test_yields_every_word():
    for n in range(0, 8):
        assert list(_walk("", n, n, "012")) == list(all_words(n))
    for n in range(0, 11):
        assert list(_walk("", n, n, "01")) == list(all_words(n, "01"))


def test_walk_carries_local_periods_on_request():
    for prefix in ("01", "0120"):
        walk = _walk_periods(prefix, 2, 16, "012", extend_square_free, local_periods(prefix))
        triples = list(walk)
        assert [w for w, _, _ in triples] == list(square_free_range(2, 16, prefix=prefix))
        for w, lp, _ in triples:
            assert lp == local_periods_scan(w), w


def _assert_periods_carried(walk, words):
    got = list(walk)
    assert sorted(w for w, _, _ in got) == sorted(words)
    for w, _, per in got:
        assert per == len(w) - brute_border(w) == global_period(w), w


def _universe(alphabet, accept, top):
    if accept:
        return list(square_free_range(1, top, alphabet))
    return [w for n in range(1, top + 1) for w in all_words(n, alphabet)]


def test_walk_carries_the_global_period():
    # every walk shape the engine runs: from one letter, square-free or
    # not, over two to four letters, and from the chunk prefixes
    for alphabet, accept, top in (
        ("012", extend_square_free, 16),
        ("012", None, 9),
        ("01", None, 14),
        ("0123", extend_square_free, 8),
    ):
        walks = (_walk_periods(a, 1, top, alphabet, accept, []) for a in alphabet)
        _assert_periods_carried((t for walk in walks for t in walk), _universe(alphabet, accept, top))
    for depth in (2, 3):
        for accept, top in ((extend_square_free, 16), (None, 8)):
            words = _universe("012", accept, top)
            for prefix in _walk("", depth, depth, "012", accept):
                walk = _walk_periods(prefix, depth, top, "012", accept, local_periods(prefix))
                below = [w for w in words if w.startswith(prefix)]
                _assert_periods_carried(walk, below)


def test_bare_walks_run_no_trie_step(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the trie step ran on a bare walk")

    monkeypatch.setattr(squarefree_module, "_extend_local_periods", refuse)
    monkeypatch.setattr(squarefree_module, "border_array", refuse)
    assert count_square_free(12) == 264
    assert sum(1 for _ in _walk("", 0, 8, "012")) == sum(3**n for n in range(9))
    assert sum(squarefree_module._counts_by_length(14, "012")[0]) == 1768
    assert _count_universe("square-free", "012", 2, 14, 0) is None
    assert verify_alpha_extremal().verdict == "PASS"
    assert run(["enumerate", "--n", "10", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "144"


def test_overlaps_self():
    assert overlaps_self("aba", "ababa")
    assert not overlaps_self("01", "0120")
    assert not overlaps_self("0", "00")  # adjacent occurrences share nothing
    assert overlaps_self("00", "000")
    assert not overlaps_self("010", "0102010")  # starts 1 and 5, gap 4 > 3
    with pytest.raises(EmptyFactor):
        overlaps_self("", "012")


def test_no_self_overlap_in_square_free_words():
    # factors of square-free words never overlap themselves
    for n in range(2, 10):
        for w in square_free_words(n):
            factors = {w[i:j] for i in range(n) for j in range(i + 1, n + 1)}
            for x in factors:
                assert not overlaps_self(x, w)


def test_factors_of_square_free_words_are_square_free():
    for w in ("01020120210201021", m_prefix(60)):
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert is_square_free(w[i:j])


def test_count_square_free_keeps_the_word_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "10")
    # 1 + 3 + 6 words of lengths 0..2 fill the ceiling, 12 more pass it
    assert count_square_free(2) == 6
    message = "at least 22 words to grow exceed the ceiling 10"
    with pytest.raises(ResourceGuard, match=message):
        count_square_free(12)
    assert run(["enumerate", "--n", "12", "--count-only"]) == 2
    assert message in capsys.readouterr().err
