import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critfact import (
    InvalidPeriod,
    InvalidPosition,
    RangeError,
    TooShort,
    beta_n,
    construct_wx,
    critical_interval,
    global_period,
    is_local_period,
    is_unimodal,
    local_period,
    local_periods,
    local_periods_scan,
    m_prefix,
    midpoint,
    profile,
    profile_csv_rows,
    profile_json_dict,
    repetition_info,
    random_square_free,
    reverse,
    verify_beta_eta,
    verify_wx_density,
    x_n,
)
from critfact import periods as periods_module
from critfact import squarefree as squarefree_module
from critfact import words as words_module
from critfact.periods import _first_recurrences
from critfact.squarefree import _extend_local_periods, _walk_periods, square_free_words

from conftest import all_words, brute_local_period, repetition_candidates

EX1_LP = [3, 5, 5, 2, 5, 5, 19, 19, 2, 2, 19, 19, 3, 3, 3, 3, 3, 3]


def test_is_local_period_examples(example2):
    assert is_local_period(example2, 4, 12)
    assert not is_local_period(example2, 4, 11)
    assert is_local_period("010", 1, 2)  # window is just w[1] = w[3]
    for w in ("01", "0102", "00121"):
        for p in range(1, len(w)):
            assert is_local_period(w, p, len(w))


def test_is_local_period_errors():
    with pytest.raises(InvalidPosition):
        is_local_period("012", 0, 1)
    with pytest.raises(InvalidPosition):
        is_local_period("012", 3, 1)
    with pytest.raises(InvalidPeriod):
        is_local_period("012", 1, 0)
    with pytest.raises(InvalidPeriod):
        is_local_period("012", 1, 4)


def test_window_condition_matches_candidate_enumeration():
    # the window test agrees with the literal shape: some u of length q
    # ends at the cut (or absorbs x) and starts after it (or absorbs y)
    for n in range(2, 6):
        for w in all_words(n):
            for p in range(1, n):
                for q in range(1, n + 1):
                    exists = bool(repetition_candidates(w, p, q))
                    assert is_local_period(w, p, q) == exists, (w, p, q)


def test_local_period_matches_candidate_enumeration():
    for n in range(2, 6):
        for w in all_words(n):
            for p in range(1, n):
                assert local_period(w, p) == brute_local_period(w, p)


def test_local_period_examples(example1):
    assert [local_period(example1, p) for p in range(1, 19)] == EX1_LP
    assert local_period("01", 1) == 2
    assert local_period("010", 1) == 2


def test_local_period_errors():
    with pytest.raises(InvalidPosition):
        local_period("01", 2)
    with pytest.raises(InvalidPosition):
        local_period("0", 1)


def test_scan_and_local_periods_agree_exhaustively():
    for n in range(2, 11):
        for w in all_words(n):
            assert local_periods(w) == local_periods_scan(w)
    for n in range(2, 14):
        for w in all_words(n, "01"):
            assert local_periods(w) == local_periods_scan(w)


@settings(max_examples=200)
@given(st.text(alphabet="012", min_size=2, max_size=150))
def test_scan_and_local_periods_agree_random(w):
    assert local_periods(w) == local_periods_scan(w)


def _fibonacci_prefix(n):
    a, b = "0", "01"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _thue_morse_prefix(n):
    return "".join(str(bin(i).count("1") % 2) for i in range(n))


def _per_position_scan(w):
    return [local_period(w, p) for p in range(1, len(w))]


def test_bulk_scan_equals_per_position_scan_exhaustively():
    # the bulk scan keeps one mask per letter, so a non-digit alphabet
    # and alphabets of one to four letters are covered; the block form
    # scans every word of a length in one call
    for alphabet, max_len in (("012", 9), ("01", 13), ("0123", 7), ("xyz", 7), ("a", 6)):
        for n in range(2, max_len + 1):
            words = list(all_words(n, alphabet))
            wanted = []
            for w in words:
                lp = _per_position_scan(w)
                assert local_periods_scan(w) == lp, w
                wanted.extend(lp)
            assert local_periods_scan("".join(words), n) == wanted, (alphabet, n)


@pytest.mark.parametrize("n", [255, 256, 300, 700])
def test_block_scan_across_the_field_widths(n):
    # a block of n < 256 letters keeps each q in one byte, up to 65535
    # in two; per(w, p) = n at some positions of an unbordered word
    rng = random.Random(n)
    words = ["".join(rng.choice("012") for _ in range(n)) for _ in range(3)]
    words += ["0" * n, ("01" * n)[:n], "0" * (n - 1) + "1"]
    wanted = [q for w in words for q in _per_position_scan(w)]
    assert n in wanted
    assert local_periods_scan("".join(words), n) == wanted


def test_block_scan_of_words_past_two_byte_fields():
    n = 70000
    lp = local_periods_scan("0" * n + "01" * (n // 2), n)
    assert len(lp) == 2 * (n - 1)
    for p in (1, 2, 3, 1000, 34999, 35000, 65535, 65536, n - 1):
        assert lp[p - 1] == local_period("0" * n, p) == 1
        assert lp[n - 1 + p - 1] == local_period("01" * (n // 2), p) == 2


def test_block_scan_errors():
    for block in (1, 0, -2):
        with pytest.raises(TooShort):
            local_periods_scan("0101", block)
    with pytest.raises(TooShort):
        local_periods_scan("0")
    for w, block in (("01201", 2), ("", 2), ("012", 4)):
        with pytest.raises(RangeError):
            local_periods_scan(w, block)


def test_bulk_scan_equals_per_position_scan_on_long_words():
    for w in (
        m_prefix(1200),
        construct_wx(x_n(4)),
        beta_n(5),
        "0" * 1500,
        "01" * 750,
        _fibonacci_prefix(1500),
        _thue_morse_prefix(1500),
    ):
        assert len(w) >= 1000
        assert local_periods_scan(w) == _per_position_scan(w)


def test_direct_route_finds_planted_centred_squares():
    # uu with |u| = 1..64 crosses every length at which the search for
    # a centred square doubles; the square sits at the start, the end
    # and inside square-free words, and every cut of each word is checked
    m = m_prefix(200)
    for r in range(1, 65):
        u = m[100 : 100 + r]
        for left, right in ((0, 30), (1, 5), (30, 0), (5, 1), (40, 40)):
            w = m[:left] + u + u + m[130 : 130 + right]
            lp = local_periods(w)
            assert lp == local_periods_scan(w), (r, left, right)
            assert lp[left + r - 1] <= r


def test_direct_route_equals_scan_on_long_family_words():
    for w in (m_prefix(1200), construct_wx(x_n(4)), beta_n(5), construct_wx(x_n(6))):
        assert len(w) >= 1000
        assert local_periods(w) == local_periods_scan(w)


def test_square_free_words_search_no_centred_square(monkeypatch):
    def refuse(w, p, lim):
        raise AssertionError("a centred square was searched in a square-free word")

    monkeypatch.setattr(periods_module, "_least_centred_root", refuse)
    for w in (
        m_prefix(2000),
        construct_wx(x_n(4)),
        beta_n(5),
        random_square_free(1000, random.Random(4), "0123"),
    ):
        assert local_periods(w) == local_periods_scan(w)
    assert profile(m_prefix(1000)).period > 500
    assert verify_wx_density(3).verdict == "PASS"


def test_first_recurrences_equal_a_find_per_prefix_exhaustively():
    for alphabet, top in (("012", 9), ("01", 13)):
        for n in range(1, top + 1):
            for w in all_words(n, alphabet):
                wanted = [max(w.find(w[:l], 1), 0) for l in range(1, n + 1)]
                assert _first_recurrences(w, n) == wanted, w


def test_direct_route_equals_scan_on_repetitive_words():
    for w in (
        "0" * 1500,
        "01" * 750,
        _fibonacci_prefix(1500),
        _thue_morse_prefix(1500),
        (m_prefix(17) * 80)[:1300],
    ):
        assert local_periods(w) == local_periods_scan(w)


def test_direct_route_equals_scan_over_four_letters():
    rng = random.Random(4)
    for n in (2, 3, 17, 64, 300):
        for _ in range(5):
            w = "".join(rng.choice("0123") for _ in range(n))
            assert local_periods(w) == local_periods_scan(w), w
    w = random_square_free(1000, random.Random(4), "0123")
    assert local_periods(w) == local_periods_scan(w)


def test_direct_route_mirror_symmetry_on_long_words():
    rng = random.Random(5)
    for w in (
        m_prefix(3000),
        construct_wx(x_n(5)),
        _thue_morse_prefix(2000),
        "".join(rng.choice("012") for _ in range(2000)),
    ):
        assert local_periods(reverse(w)) == local_periods(w)[::-1]


def test_single_words_run_no_trie_step(monkeypatch):
    def refuse(s, lp, per):
        raise AssertionError("the trie step ran on a single word")

    monkeypatch.setattr(squarefree_module, "_extend_local_periods", refuse)
    assert local_periods("0120201202021021021") == EX1_LP
    assert profile(m_prefix(1000)).period > 500
    assert verify_wx_density(2).verdict == "PASS"
    assert verify_beta_eta(2, 1000).verdict == "PASS"


def _stepped_prefixes(w):
    """Each prefix of ``w`` from length 2 on, with the local periods the
    trie step gives it, starting from a one-letter word's empty list."""
    lp = []
    for k in range(2, len(w) + 1):
        lp = _extend_local_periods(w[:k], lp, global_period(w[:k]))
        yield w[:k], lp


@settings(max_examples=200)
@given(
    st.sampled_from(["01", "012", "0123"]).flatmap(
        lambda alphabet: st.text(alphabet=alphabet, min_size=2, max_size=60)
    )
)
def test_trie_step_equals_scan_letter_by_letter(w):
    for prefix, lp in _stepped_prefixes(w):
        assert lp == local_periods_scan(prefix), prefix


@settings(max_examples=60)
@given(st.sampled_from(["012", "0123"]), st.integers(2, 80), st.integers(0, 2**32))
def test_trie_step_equals_scan_along_random_square_free_words(alphabet, length, seed):
    w = random_square_free(length, random.Random(seed), alphabet)
    for prefix, lp in _stepped_prefixes(w):
        assert lp == local_periods_scan(prefix), prefix


def test_trie_step_equals_scan_exhaustively():
    # every ternary word of length 2..9, each stepped from its parent
    walked = 0
    for letter in "012":
        for w, lp, _ in _walk_periods(letter, 2, 9, "012", None, []):
            walked += 1
            assert lp == local_periods_scan(w), w
    assert walked == sum(3**n for n in range(2, 10))


def test_repetition_info_examples(example2):
    info = repetition_info(example2, 4)
    assert info.u == "012021020102"
    assert info.length == 12
    assert info.left_overflow and not info.right_overflow

    info = repetition_info("010", 1)
    assert (info.u, info.length) == ("10", 2)
    assert info.left_overflow and not info.right_overflow


def test_repetition_info_flags_follow_length():
    for n in range(2, 9):
        for w in all_words(n):
            for p in range(1, n):
                info = repetition_info(w, p)
                assert info.length == len(info.u)
                assert info.left_overflow == (info.length > p)
                assert info.right_overflow == (info.length > n - p)


def test_minimal_repetition_word_unique_and_unbordered():
    # at the minimal length exactly one candidate exists, it is the
    # reconstructed one, and it has no border
    for n in range(2, 6):
        for w in all_words(n):
            for p in range(1, n):
                info = repetition_info(w, p)
                cands = repetition_candidates(w, p, info.length)
                assert cands == [info.u]
                u = info.u
                assert not any(u[:k] == u[-k:] for k in range(1, len(u)))


def test_double_overflow_rebuild_is_y_then_missing_x():
    # "01" at p=1 overflows both ways: u = y.x
    info = repetition_info("01", 1)
    assert info.u == "10"
    assert info.left_overflow and info.right_overflow
    info = repetition_info("012", 2)
    assert info.u == "201"


def test_profile_example1(example1):
    prof = profile(example1)
    assert prof.period == 19
    assert list(prof.local_periods) == EX1_LP
    assert prof.critical_points == (7, 8, 11, 12)
    assert prof.eta == 4
    assert prof.density == Fraction(4, 18)
    assert (prof.eta, len(prof.word) - 1) == (4, 18)


def test_profile_example2(example2):
    prof = profile(example2)
    assert prof.period == 17
    assert prof.critical_points == tuple(range(5, 14))
    assert prof.eta == 9
    assert prof.density == Fraction(9, 16)
    assert critical_interval(prof) == (5, 13)


def test_profile_example3(example3):
    prof = profile(example3)
    assert list(prof.local_periods) == [3, 6, 6, 12, 12, 12, 12] + [24] * 12 + [14, 14, 6, 2]
    assert prof.eta == 12
    assert is_unimodal(prof)


def test_profile_reads_the_global_period_once(monkeypatch):
    calls = []
    border_array = words_module.border_array

    def counted(w):
        calls.append(len(w))
        return border_array(w)

    monkeypatch.setattr(words_module, "border_array", counted)
    prof = profile(m_prefix(1000))
    assert calls == [1000]
    assert list(prof.local_periods) == local_periods_scan(m_prefix(1000))


def test_profile_too_short():
    with pytest.raises(TooShort):
        profile("0")
    with pytest.raises(TooShort):
        profile("")
    with pytest.raises(TooShort, match=r"^need \|w\| >= 2, got 1$"):
        local_periods("0")


def test_midpoint():
    assert midpoint("0" * 17) == 9
    assert midpoint("0" * 24) == 12
    assert midpoint("01") == 1
    with pytest.raises(TooShort):
        midpoint("0")


def test_critical_interval(example1, example2):
    assert critical_interval(profile(example1)) is None  # {7,8,11,12} has gaps
    assert critical_interval(profile(example2)) == (5, 13)
    assert critical_interval(profile("01")) == (1, 1)


def test_is_unimodal(example1, example3):
    assert not is_unimodal(profile(example1))  # 5,5,2,5 breaks the rise
    assert is_unimodal(profile(example3))
    for w in square_free_words(12):
        assert is_unimodal(profile(w))


def test_local_periods_reverse_symmetry():
    for n in range(2, 9):
        for w in all_words(n):
            assert local_periods(reverse(w)) == local_periods(w)[::-1]


@settings(max_examples=150)
@given(st.text(alphabet="012", min_size=2, max_size=80))
def test_local_periods_reverse_symmetry_random(w):
    assert local_periods(reverse(w)) == local_periods(w)[::-1]


def test_global_period_is_local_period_everywhere():
    for n in range(2, 9):
        for w in all_words(n):
            prof = profile(w)
            assert all(v <= prof.period for v in prof.local_periods)
            assert prof.critical_points  # CFT at desk scale
            assert prof.critical_points[0] <= prof.period


def test_profile_json_shape(example2):
    doc = profile_json_dict(profile(example2))
    assert list(doc) == [
        "word", "period", "localPeriods", "criticalPoints", "eta",
        "densityNum", "densityDen", "midpoint", "repetitionWords",
    ]
    assert doc["criticalPoints"] == list(range(5, 14))
    assert doc["densityNum"] == 9 and doc["densityDen"] == 16
    rep4 = doc["repetitionWords"][3]
    assert rep4 == {"p": 4, "u": "012021020102", "leftOverflow": True, "rightOverflow": False}
    json.dumps(doc)  # must be serialisable as-is


def test_profile_csv_rows(example2):
    rows = profile_csv_rows(profile(example2))
    assert len(rows) == 16
    assert rows[3] == (4, 12, "012021020102", True, False, False)
    assert rows[4][5] is True  # p = 5 is critical


def test_density_over_length(example2):
    prof = profile(example2)
    assert prof.density_over_length == Fraction(9, 17)


def test_profile_length_ceiling(monkeypatch):
    from critfact import ResourceGuard

    long_word = "01" * 3000
    with pytest.raises(ResourceGuard):
        profile(long_word)
    monkeypatch.setenv("CRITFACT_MAX_PROFILE_LEN", "6000")
    assert profile(long_word).period == 2
