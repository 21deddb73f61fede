import pytest

from critfact import (
    RangeError,
    TheoremId,
    VerifyOptions,
    explore_problem1,
    explore_problem2,
    random_square_free,
    verify,
    verify_alpha_extremal,
    verify_beta_eta,
    verify_many,
    verify_wx_density,
)
from critfact import periods as periods_module
from critfact import squarefree as squarefree_module
from critfact.errors import CritfactError, ResourceGuard
from critfact.periods import local_periods, local_periods_scan
from critfact.squarefree import (
    count_square_free,
    find_square,
    is_square_free,
    square_free_range,
    square_free_words,
)
from critfact.thue import m_n, m_prefix, tau_iter, x_n
from critfact.verify import _check_words, _run_predicates
from critfact.words import _has_border, global_period

from conftest import all_words, brute_border

import importlib
import json
import random
import re
import time

# the module, which the package's ``verify`` function shadows
verify_module = importlib.import_module("critfact.verify")
cli_module = importlib.import_module("critfact.cli")

EX1 = "0120201202021021021"
EX1_LP = [3, 5, 5, 2, 5, 5, 19, 19, 2, 2, 19, 19, 3, 3, 3, 3, 3, 3]


RANGE_THEOREMS = [
    TheoremId.CFT,
    TheoremId.MIDPOINT,
    TheoremId.UNIMODAL,
    TheoremId.INTERVAL,
    TheoremId.OVERFLOW_IFF_SQUAREFREE,
    TheoremId.MIN_REP_UNBORDERED,
    TheoremId.NO_SELF_OVERLAP,
    TheoremId.LOWER_BOUND,
]


@pytest.mark.parametrize("theorem", RANGE_THEOREMS)
def test_small_range_suites_pass(theorem):
    report = verify(theorem, 2, 8)
    assert report.verdict == "PASS"
    assert report.counterexamples == []
    assert report.tested > 0
    assert report.theorem == theorem.value


def test_cft_binary_alphabet():
    report = verify(TheoremId.CFT, 2, 10, VerifyOptions(alphabet="01"))
    assert report.verdict == "PASS"
    assert report.tested == sum(2**n for n in range(2, 11))


def test_all_word_universe_counts():
    report = verify(TheoremId.OVERFLOW_IFF_SQUAREFREE, 2, 7)
    assert report.tested == sum(3**n for n in range(2, 8))


def test_square_free_universe_counts():
    report = verify(TheoremId.MIDPOINT, 2, 7)
    assert report.tested == 6 + 12 + 18 + 30 + 42 + 60


def test_verify_many_shares_one_pass():
    reports = verify_many(
        [TheoremId.MIDPOINT, TheoremId.UNIMODAL, TheoremId.INTERVAL], 2, 9
    )
    assert [r.theorem for r in reports] == ["midpoint", "unimodal", "interval"]
    assert len({r.tested for r in reports}) == 1
    assert all(r.verdict == "PASS" for r in reports)


def test_verify_many_rejects_mixed_universes():
    with pytest.raises(RangeError):
        verify_many([TheoremId.CFT, TheoremId.MIDPOINT], 2, 5)


def test_verify_many_needs_a_theorem():
    with pytest.raises(RangeError, match="^no theorems requested$"):
        verify_many([], 2, 5)


def test_theorems_may_be_named_by_their_tokens(monkeypatch):
    by_token = verify_many(["midpoint", "unimodal"], 2, 6)
    by_id = verify_many([TheoremId.MIDPOINT, TheoremId.UNIMODAL], 2, 6)
    assert _report_docs(by_token) == _report_docs(by_id)
    assert verify("cft", 2, 4).theorem == "cft"
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    with pytest.raises(RangeError, match="^unknown theorem: 'bogus' is not a valid TheoremId$"):
        verify("bogus", 2, 4)


def test_a_repeated_theorem_is_refused(monkeypatch):
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    with pytest.raises(RangeError, match="^unimodal is requested more than once$"):
        verify_many([TheoremId.UNIMODAL, TheoremId.UNIMODAL], 2, 3)
    with pytest.raises(RangeError, match="^cft is requested more than once$"):
        verify_many([TheoremId.CFT, "overflow", "cft"], 2, 3)


def test_the_walk_reads_its_letter_test_when_it_runs(monkeypatch):
    # every letter test of a square-free walk goes through the module
    # attribute, so a tracer that rebinds it sees them all
    extend = verify_module.extend_square_free
    calls = []

    def counting(w, a):
        calls.append(w + a)
        return extend(w, a)

    monkeypatch.setattr(verify_module, "extend_square_free", counting)
    verify(TheoremId.CFT, 2, 6)
    assert calls == []
    # three letters tried after each square-free word of lengths 0..9
    assert verify(TheoremId.MIDPOINT, 2, 10).verdict == "PASS"
    assert len(calls) == 3 * sum(count_square_free(n) for n in range(10))
    del calls[:]
    explore_problem2(8)
    assert len(calls) == 3 * sum(count_square_free(n) for n in range(8))


def test_verify_rejects_bad_ranges():
    with pytest.raises(RangeError):
        verify(TheoremId.MIDPOINT, 5, 3)
    with pytest.raises(RangeError):
        verify(TheoremId.MIDPOINT, 1, 4)
    with pytest.raises(RangeError):
        verify(TheoremId.UPPER_BOUND, 20, 27)
    with pytest.raises(RangeError):
        verify(TheoremId.ALPHA_EXTREMAL, 2, 5)


def test_resource_guard(monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "1000")
    # 1 + 3 + 9 + 27 + 81 + 243 ternary words of lengths 0..5, then 729 more
    message = "at least 1093 words to grow exceed the ceiling 1000"
    with pytest.raises(ResourceGuard, match=message):
        verify(TheoremId.CFT, 2, 11)


@pytest.mark.parametrize("alphabet", ["", "00", "011"])
def test_verify_rejects_bad_alphabets(alphabet):
    with pytest.raises(RangeError):
        verify(TheoremId.CFT, 2, 4, VerifyOptions(alphabet=alphabet))


@pytest.mark.parametrize("jobs", [0, -3])
def test_verify_rejects_jobs_below_one(jobs):
    with pytest.raises(RangeError):
        verify(TheoremId.MIDPOINT, 2, 4, VerifyOptions(jobs=jobs))


def test_pool_is_capped_at_the_chunk_count(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(verify_module, "Pool", SerialPool)
    # binary words from length 2 split into the 4 prefixes of length 2,
    # and words of length 3 over 10 letters into 1000; the pool gets no
    # more processes than there are CPUs either
    cases = [
        ("01", 2, 5, 6, 8, [4]),
        ("01", 2, 5, 6, 3, [3]),
        ("01", 2, 5, 2, 3, [2]),
        ("01", 2, 5, 6, 1, []),
        ("01", 2, 5, 6, None, []),
        ("0123456789", 3, 3, 1000, 2, [2]),
        ("0123456789", 3, 3, 1000, 1, []),
    ]
    docs = {}
    for alphabet, lo, hi, jobs, cpus, want in cases:
        monkeypatch.setattr(verify_module.os, "cpu_count", lambda: cpus)
        started.clear()
        report = verify(TheoremId.CFT, lo, hi, VerifyOptions(alphabet=alphabet, jobs=jobs))
        assert started == want
        assert report.verdict == "PASS"
        doc = report.to_json_dict()
        doc.pop("elapsedMs")
        assert docs.setdefault(alphabet, doc) == doc


@pytest.mark.parametrize(
    "ids, max_len, alphabet",
    [
        ([TheoremId.MIN_REP_UNBORDERED, TheoremId.OVERFLOW_IFF_SQUAREFREE], 7, "012"),
        ([TheoremId.CFT], 10, "01"),
    ],
)
def test_jobs_do_not_change_all_word_reports(ids, max_len, alphabet):
    docs = []
    for jobs in (1, 2):
        reports = verify_many(ids, 2, max_len, VerifyOptions(alphabet=alphabet, jobs=jobs))
        docs.append([{k: v for k, v in r.to_json_dict().items() if k != "elapsedMs"} for r in reports])
    assert docs[0] == docs[1]


def test_jobs_do_not_change_reports():
    opts1 = VerifyOptions(jobs=1)
    opts4 = VerifyOptions(jobs=4)
    r1 = verify(TheoremId.INTERVAL, 2, 11, opts1)
    r4 = verify(TheoremId.INTERVAL, 2, 11, opts4)
    d1, d4 = r1.to_json_dict(), r4.to_json_dict()
    d1.pop("elapsedMs"), d4.pop("elapsedMs")
    assert d1 == d4


def test_border_jump_matches_brute_border():
    for alphabet, top in (("012", 10), ("01", 14)):
        for n in range(1, top + 1):
            for u in all_words(n, alphabet):
                assert _has_border(u) == (brute_border(u) > 0), u


def test_checked_runs_build_no_profile(monkeypatch):
    sf_ids = [TheoremId.MIDPOINT, TheoremId.UNIMODAL, TheoremId.INTERVAL,
              TheoremId.LOWER_BOUND, TheoremId.NO_SELF_OVERLAP]
    all_ids = [TheoremId.CFT, TheoremId.MIN_REP_UNBORDERED, TheoremId.OVERFLOW_IFF_SQUAREFREE]
    random_opts = VerifyOptions(random_count=20, random_min=5, random_max=30, seed=5)

    def run():
        return (
            _report_docs(verify_many(all_ids, 2, 7))
            + _report_docs(verify_many(all_ids, 2, 10, VerifyOptions(alphabet="01")))
            + _report_docs(verify_many(sf_ids, 2, 14, random_opts))
            + _report_docs([verify(TheoremId.UPPER_BOUND, 26, 26)])
            + _report_docs([verify_beta_eta(2, 1000), verify_wx_density(2)])
            + [json.dumps(explore_problem2(12))]
        )

    def refuse(*args):
        raise AssertionError("a checked run built a PeriodProfile")

    before = run()
    # verify binds no PeriodProfile of its own: every builder reads this one
    monkeypatch.setattr(periods_module, "PeriodProfile", refuse)
    assert run() == before


def test_empty_universes_are_refused(monkeypatch):
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    with pytest.raises(
        RangeError, match="^the square-free universe over '01' holds no word of length 5$"
    ):
        verify(TheoremId.MIDPOINT, 5, 6, VerifyOptions(alphabet="01"))
    with pytest.raises(
        RangeError, match="^the square-free universe over '0' holds no word of length 2$"
    ):
        verify(TheoremId.NO_SELF_OVERLAP, 2, 4, VerifyOptions(alphabet="0", random_count=1,
                                                              random_min=2, random_max=2))


def test_partly_empty_universes_test_their_words():
    # 010 and 101 are the only binary square-free words past length 2
    report = verify(TheoremId.MIDPOINT, 3, 6, VerifyOptions(alphabet="01"))
    assert (report.tested, report.verdict) == (2, "PASS")


BETA_WORD = "01020120210201210120212"  # beta_family(1, 10**4)[0]


@pytest.mark.parametrize(
    "w, tid, lp, per, details",
    [
        ("012", TheoremId.CFT, [1, 1], 3, ["no critical point"]),
        ("012", TheoremId.CFT, [2, 1], 1, ["least critical point 2 exceeds per(w)=1"]),
        ("011", TheoremId.MIDPOINT, None, None, ["midpoint 2 not critical: per(w,2)=1, per=3"]),
        ("01201", TheoremId.INTERVAL, [5, 5, 1, 1], 5, ["interval [1, 2] misses midpoint 3"]),
        ("012", TheoremId.OVERFLOW_IFF_SQUAREFREE, [1, 1], 3,
         ["square-free=True but every-point-overflow=False"]),
        ("000", TheoremId.NO_SELF_OVERLAP, None, None, ["factor '00' overlaps itself"]),
        ("0120", TheoremId.UPPER_BOUND, None, None, ["eta=3 exceeds |w|-5=-1"]),
        ("00001", TheoremId.LOWER_BOUND, None, None, ["4*eta=4 below |w|=5"]),
        ("0120", TheoremId.BETA_ETA, None, None, [
            "family word bordered: per=3 < 4",
            "eta=3, wanted |w|-5=-1",
            "non-critical points [], wanted [1, 2, 2, 3]",
        ]),
        ("00", TheoremId.BETA_ETA, None, None, [
            "family word not square-free",
            "family word bordered: per=1 < 2",
            "eta=1, wanted |w|-5=-3",
            "non-critical points [], wanted [1, 2, 0, 1]",
        ]),
        (BETA_WORD, TheoremId.BETA_ETA, [3] + local_periods(BETA_WORD)[1:], 23,
         ["p=1: per(w,p)=3, u='102', wanted 2, '10'"]),
        ("0120", TheoremId.WX_DENSITY, None, None, [
            "n=1: eta=3, wanted |x|+3=2",
            "n=1: eta/|w| is not exactly 1/4 + 1/|w|",
            "n=1: critical interval (1, 3), wanted (2, 3)",
        ]),
        ("0000", TheoremId.WX_DENSITY, None, None, ["w_x for n=1 not square-free"]),
        ("00", TheoremId.OVERFLOW_IFF_SQUAREFREE, [2], 1,
         ["square-free=False but every-point-overflow=True"]),
        # falls before the midpoint 2; rises after the midpoint 3
        ("012", TheoremId.UNIMODAL, [2, 1], 3, ["local periods not unimodal: [2, 1]"]),
        ("01201", TheoremId.UNIMODAL, [1, 2, 2, 3], 3,
         ["local periods not unimodal: [1, 2, 2, 3]"]),
    ],
)
def test_every_per_word_predicate_can_fail(w, tid, lp, per, details):
    # a word's own local periods and period, or crafted ones where no
    # word of the suite's universe breaks its theorem
    if lp is None:
        lp, per = local_periods(w), global_period(w)
    assert _run_predicates([(w, lp, per, "")], (tid,)) == (1, [(tid, w, d) for d in details])


ALPHA_LIKE_13 = "01" + "2" * 11  # unbordered, 01 only as its prefix


@pytest.mark.parametrize(
    "words, found",
    [
        ([verify_module.ALPHA_WORD, ALPHA_LIKE_13 + "2"],
         [(ALPHA_LIKE_13 + "2", "unbordered, unique 01 prefix, length 14 > 13")]),
        (["012"], [("", "search topped out at length 3 < 13")]),
        ([verify_module.ALPHA_WORD, ALPHA_LIKE_13],
         [(ALPHA_LIKE_13, "unexpected maximal witness")]),
        ([ALPHA_LIKE_13], [(verify_module.ALPHA_WORD, "expected witness not found"),
                           (ALPHA_LIKE_13, "unexpected maximal witness")]),
    ],
)
def test_alpha_extremal_fails_on_any_other_search(monkeypatch, words, found):
    monkeypatch.setattr(verify_module, "_walk", lambda *args: iter(words))
    report = verify_alpha_extremal()
    assert (report.verdict, report.tested, report.counterexamples) == ("FAIL", len(words), found)


def test_alpha_extremal_refuses_a_search_past_its_cap(monkeypatch):
    # the 01-constrained search reaches length 14
    monkeypatch.setattr(verify_module, "_ALPHA_SEARCH_CAP", 13)
    with pytest.raises(ResourceGuard, match="^01-constrained search ran past the expected depth$"):
        verify_alpha_extremal()


def test_only_per_word_predicates_are_checked_word_by_word():
    with pytest.raises(RangeError, match="^alpha-extremal is not checked word by word$"):
        _run_predicates([("012", [1, 1], 3, "")], (TheoremId.ALPHA_EXTREMAL,))


def test_theorems_not_checked_word_by_word_are_refused_before_the_first_word():
    def refuse(w):
        raise AssertionError("a word was checked")

    for words in ([], map(refuse, ["012"])):
        with pytest.raises(RangeError, match="^alpha-extremal is not checked word by word$"):
            _check_words(words, (TheoremId.CFT, TheoremId.ALPHA_EXTREMAL))


def test_overflow_asks_the_square_oracle_only_of_square_free_words(monkeypatch):
    # every other word shows a centred square that its letters confirm
    calls = []

    def counted(w):
        calls.append(w)
        return is_square_free(w)

    monkeypatch.setattr(verify_module, "is_square_free", counted)
    report = verify(TheoremId.OVERFLOW_IFF_SQUAREFREE, 2, 8)
    assert (report.verdict, report.tested) == ("PASS", sum(3**n for n in range(2, 9)))
    assert len(calls) == sum(count_square_free(n) for n in range(2, 9)) == 246
    assert all(is_square_free(w) for w in calls)


def test_check_word_flags_violations():
    # the interval predicate really fires on a word whose critical set
    # has gaps (a non-square-free word, so no theorem is contradicted)
    _, issues = _check_words([(EX1, None, None)], (TheoremId.INTERVAL,))
    assert issues == [
        (TheoremId.INTERVAL, EX1, "critical points not an interval: [7, 8, 11, 12]")
    ]
    # and stays quiet on a word where the set is an interval
    assert _check_words([("01020120210201021", None, None)], (TheoremId.INTERVAL,)) == (1, [])


def test_check_word_unimodal_flags_example1():
    _, issues = _check_words([(EX1, None, None)], (TheoremId.UNIMODAL,))
    assert issues == [(TheoremId.UNIMODAL, EX1, f"local periods not unimodal: {EX1_LP}")]


def test_check_word_route_disagreement_fails_every_predicate(monkeypatch):
    monkeypatch.setattr(verify_module, "local_periods", lambda w: [1] * (len(w) - 1))
    ids = (TheoremId.CFT, TheoremId.MIDPOINT)
    detail = f"local-period routes disagree: trie={[1] * 18} scan={EX1_LP}"
    assert _check_words([(EX1, None, None)], ids) == (1, [(tid, EX1, detail) for tid in ids])


def test_scan_guards_the_trie_step(monkeypatch):
    step = squarefree_module._extend_local_periods

    def one_wrong_value(s, lp, per):
        out = step(s, lp, per)
        if s == "01201":
            out[-1] += 1
        return out

    monkeypatch.setattr(squarefree_module, "_extend_local_periods", one_wrong_value)
    report = verify(TheoremId.MIDPOINT, 2, 8)
    assert report.verdict == "FAIL"
    scan = local_periods_scan("01201")
    wrong = scan[:-1] + [scan[-1] + 1]
    detail = f"local-period routes disagree: trie={wrong} scan={scan}"
    assert ("01201", detail) in report.counterexamples
    # only the word and the descendants that inherit its periods fail
    assert all(w.startswith("01201") for w, _ in report.counterexamples)


def test_scan_guards_the_trie_steps_period_range(monkeypatch):
    # where a position's window covers the whole word the step assigns
    # the per(s) it is handed, so a wrong one must reach the scan
    step = squarefree_module._extend_local_periods
    monkeypatch.setattr(
        squarefree_module, "_extend_local_periods", lambda s, lp, per: step(s, lp, per + 1)
    )
    report = verify(TheoremId.CFT, 2, 8)
    assert report.verdict == "FAIL"
    assert all(d.startswith("local-period routes disagree: ") for _, d in report.counterexamples)


def test_chunk_prefixes_are_fed_local_periods(monkeypatch):
    monkeypatch.setattr(verify_module, "local_periods", lambda w: [1] * (len(w) - 1))
    report = verify(TheoremId.MIDPOINT, 3, 3)
    assert report.tested == 12
    assert report.counterexamples == [
        (w, f"local-period routes disagree: trie={[1, 1]} scan={local_periods_scan(w)}")
        for w in sorted(square_free_words(3))
    ]


def test_report_json_shape():
    report = verify(TheoremId.LOWER_BOUND, 2, 6)
    doc = report.to_json_dict()
    assert list(doc) == ["theorem", "range", "tested", "counterexamples", "elapsedMs", "verdict"]
    assert doc["verdict"] == "PASS"
    assert doc["range"]["universe"] == "square-free"


def test_random_square_free_sampler():
    rng = random.Random(7)
    for _ in range(20):
        w = random_square_free(30, rng)
        assert len(w) == 30
        assert is_square_free(w)


def test_random_square_free_backtracks_to_long_words():
    w = random_square_free(1000, random.Random(3))
    assert len(w) == 1000 and set(w) <= set("012")
    assert find_square(w) is None


def test_random_square_free_is_seeded():
    assert random_square_free(200, random.Random(5)) == random_square_free(200, random.Random(5))


def test_random_square_free_rejects_impossible_lengths():
    # no binary square-free word is longer than 3
    assert len(random_square_free(3, random.Random(0), "01")) == 3
    with pytest.raises(RangeError):
        random_square_free(5, random.Random(0), "01")
    with pytest.raises(RangeError):
        random_square_free(-1, random.Random(0))


def test_random_square_free_keeps_the_profile_ceiling():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ResourceGuard, match="^length 5001 exceeds the profile ceiling 5000$"):
        random_square_free(5001, rng)
    assert rng.getstate() == state  # no letter was picked


def test_upper_bound_with_random_extension():
    opts = VerifyOptions(random_count=50, random_min=28, random_max=40, seed=11)
    report = verify(TheoremId.UPPER_BOUND, 26, 26, opts)
    assert report.verdict == "PASS"
    assert report.range["randomCount"] == 50
    assert report.tested > 50


@pytest.mark.parametrize("alphabet", ["0", "01", "0123"])
def test_upper_bound_is_ternary_only(monkeypatch, alphabet):
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    with pytest.raises(RangeError, match="three letters"):
        verify(TheoremId.UPPER_BOUND, 26, 26, VerifyOptions(alphabet=alphabet))


def test_rep_unbordered_flags_bordered_repetition_words(monkeypatch):
    # bordered by its half, unbordered, bordered by one letter
    reps = {1: "0101", 2: "0112", 3: "2102"}
    monkeypatch.setattr(verify_module, "_repetition_word", lambda w, p, q: reps[p])
    report = verify(TheoremId.MIN_REP_UNBORDERED, 4, 4)
    assert report.tested == 81
    assert report.counterexamples == sorted(
        (w, f"repetition word {reps[p]!r} at p={p} is bordered")
        for w in all_words(4)
        for p in (1, 3)
    )


@pytest.mark.parametrize("seed", [None, 1.5, "1"])
def test_random_words_need_an_int_seed(monkeypatch, seed):
    # seed=None would draw other words, and maybe other counterexamples, on each run
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    opts = VerifyOptions(random_count=1, random_min=4, random_max=5, seed=seed)
    with pytest.raises(RangeError, match=f"^need an int seed, got {re.escape(repr(seed))}$"):
        verify(TheoremId.MIDPOINT, 2, 3, opts)


def test_random_extension_rejects_negative_count():
    with pytest.raises(RangeError, match="random_count >= 0"):
        verify(TheoremId.MIDPOINT, 2, 3, VerifyOptions(random_count=-1))


@pytest.mark.parametrize(
    "opts",
    [
        VerifyOptions(random_count=1),  # lengths default to 0..0
        VerifyOptions(random_count=1, random_min=5, random_max=4),
    ],
)
def test_random_extension_needs_a_length_range(opts):
    with pytest.raises(RangeError, match="2 <= random_min <= random_max"):
        verify(TheoremId.MIDPOINT, 2, 3, opts)


def test_random_words_count_against_the_ceiling(monkeypatch):
    # 1 + 3 + 6 + 12 square-free words of lengths 0..3, plus 3 random ones
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "25")
    opts = VerifyOptions(random_count=3, random_min=4, random_max=5)
    assert verify(TheoremId.MIDPOINT, 2, 3, opts).tested == 21
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "24")
    with pytest.raises(ResourceGuard, match="^at least 25 words to grow exceed the ceiling 24$"):
        verify(TheoremId.MIDPOINT, 2, 3, opts)


def test_random_words_stay_within_the_profile_ceiling(monkeypatch):
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    opts = VerifyOptions(random_count=3, random_min=6000, random_max=6000)
    with pytest.raises(ResourceGuard, match="random_max 6000 exceeds the profile ceiling 5000"):
        verify(TheoremId.MIDPOINT, 2, 3, opts)
    monkeypatch.setenv("CRITFACT_MAX_PROFILE_LEN", "59")
    with pytest.raises(ResourceGuard, match="profile ceiling 59"):
        verify(TheoremId.MIDPOINT, 2, 3, VerifyOptions(random_count=1, random_min=2, random_max=60))


def test_range_suites_stay_within_the_profile_ceiling(monkeypatch):
    # one word per length over a one-letter alphabet: far below the word ceiling
    one_letter = VerifyOptions(alphabet="0")
    monkeypatch.setenv("CRITFACT_MAX_PROFILE_LEN", "59")
    assert verify(TheoremId.CFT, 2, 59, one_letter).tested == 58
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    with pytest.raises(ResourceGuard, match="^max length 60 exceeds the profile ceiling 59$"):
        verify(TheoremId.CFT, 2, 60, one_letter)
    monkeypatch.delenv("CRITFACT_MAX_PROFILE_LEN")
    with pytest.raises(ResourceGuard, match="^max length 5001 exceeds the profile ceiling 5000$"):
        verify(TheoremId.CFT, 2, 5001, one_letter)


def test_alpha_extremal():
    report = verify_alpha_extremal()
    assert report.verdict == "PASS"
    assert report.tested == 34  # the whole constrained search tree


def test_beta_eta_suite():
    report = verify_beta_eta(3, 10**4)
    assert report.verdict == "PASS"
    assert report.tested == 3


def test_wx_density_suite():
    report = verify_wx_density(2)
    assert report.verdict == "PASS"
    # n = 5 gives the largest w_x (4,124 letters) within the default
    # profile ceiling
    report = verify_wx_density(5)
    assert (report.verdict, report.tested) == ("PASS", 5)
    with pytest.raises(RangeError):
        verify_wx_density(0)
    # n = 6 gives 16,412 letters: the profile ceiling, not a cap of the
    # suite's own, refuses it
    with pytest.raises(ResourceGuard, match=r"^\|w\| = 16412 exceeds the profile ceiling 5000$"):
        verify_wx_density(7)


def test_wx_density_keeps_the_profile_ceiling(monkeypatch):
    # w_x has 44, 92 and 284 letters for n = 1, 2, 3
    monkeypatch.setenv("CRITFACT_MAX_PROFILE_LEN", "100")
    assert verify_wx_density(2).verdict == "PASS"
    with pytest.raises(ResourceGuard, match="284 exceeds the profile ceiling 100"):
        verify_wx_density(3)


def test_explore_problem1_table():
    doc = explore_problem1(1, 9)
    rows = {row["length"]: row["witness"] for row in doc["lengths"]}
    assert rows[1] is None  # the seam square kills every 1-letter seed
    assert all(rows[L] is None for L in range(1, 9))
    assert rows[9] == "120102012"
    assert doc["lengths"][0]["searched"] == 3


def test_explore_problem1_exhausts_lengths_10_to_12():
    doc = explore_problem1(10, 12)
    assert [row["witness"] for row in doc["lengths"]] == [None, None, None]
    assert [row["searched"] for row in doc["lengths"]] == [144, 204, 264]


def test_explore_problem2():
    doc = explore_problem2(12)
    rows = {row["length"]: row for row in doc["lengths"]}
    assert set(rows) == {4, 8, 12}
    # the quarter bound holds strictly on these lengths: no witnesses
    for row in rows.values():
        assert row["minExcess"] == 1
        assert row["witnesses"] == []
    with pytest.raises(ResourceGuard, match="^max length 5001 exceeds the profile ceiling 5000$"):
        explore_problem2(5001)
    with pytest.raises(RangeError):
        explore_problem2(3)


def test_scan_guards_the_problem2_walk(monkeypatch):
    step = squarefree_module._extend_local_periods

    def one_wrong_value(s, lp, per):
        out = step(s, lp, per)
        if s == "0120":
            out[0] += 1
        return out

    monkeypatch.setattr(squarefree_module, "_extend_local_periods", one_wrong_value)
    scan = local_periods_scan("0120")
    wrong = [scan[0] + 1] + scan[1:]
    detail = f"local-period routes disagree: trie={wrong} scan={scan}"
    with pytest.raises(CritfactError, match=re.escape(detail)):
        explore_problem2(8)


def _report_docs(reports):
    return [json.dumps({k: v for k, v in r.to_json_dict().items() if k != "elapsedMs"}) for r in reports]


def test_scan_slices_do_not_change_reports(monkeypatch):
    sf_ids = [TheoremId.MIDPOINT, TheoremId.UNIMODAL, TheoremId.INTERVAL, TheoremId.LOWER_BOUND]
    all_ids = [TheoremId.CFT, TheoremId.MIN_REP_UNBORDERED, TheoremId.OVERFLOW_IFF_SQUAREFREE]
    random_opts = VerifyOptions(random_count=40, random_min=5, random_max=30, seed=3)

    def run():
        return (
            _report_docs(verify_many(sf_ids, 2, 14))
            + _report_docs(verify_many(sf_ids, 2, 8, random_opts))
            + _report_docs(verify_many(all_ids, 2, 7))
            + [json.dumps(explore_problem2(16))]
        )

    default = run()
    for size in (1, 7):
        monkeypatch.setattr(verify_module, "_SCAN_SLICE", size)
        assert run() == default


@pytest.mark.parametrize("size", [1, 7, None])
def test_scan_slices_hand_each_word_its_own_scan(monkeypatch, size):
    if size is not None:
        monkeypatch.setattr(verify_module, "_SCAN_SLICE", size)
    step = squarefree_module._extend_local_periods
    bad = sorted(square_free_words(12))[150]  # one of 264 words of length 12

    def one_wrong_value(w, lp, per):
        out = step(w, lp, per)
        if w == bad:
            out[0] += 1
        return out

    monkeypatch.setattr(squarefree_module, "_extend_local_periods", one_wrong_value)
    report = verify(TheoremId.MIDPOINT, 2, 14)
    # the word and every descendant inherit the wrong value at position 1
    family = sorted(w for n in (12, 13, 14) for w in square_free_words(n) if w.startswith(bad))
    assert len(family) == 3
    assert [w for w, _ in report.counterexamples] == family
    for w, detail in report.counterexamples:
        scan = local_periods_scan(w)
        trie = [scan[0] + 1] + scan[1:]
        assert detail == f"local-period routes disagree: trie={trie} scan={scan}"
    scan = local_periods_scan(bad)
    detail = f"local-period routes disagree: trie={[scan[0] + 1] + scan[1:]} scan={scan}"
    with pytest.raises(CritfactError, match=re.escape(detail)):
        explore_problem2(16)


def test_checked_runs_scan_every_position_at_once(monkeypatch):
    def refuse(w, p, q=1):
        raise AssertionError("the per-position scan ran in a checked run")

    monkeypatch.setattr(periods_module, "_least_local_period", refuse)
    ids = [TheoremId.MIDPOINT, TheoremId.UNIMODAL, TheoremId.INTERVAL, TheoremId.LOWER_BOUND]
    assert [r.verdict for r in verify_many(ids, 2, 10)] == ["PASS"] * 4
    assert verify_wx_density(2).verdict == "PASS"
    assert verify_beta_eta(2, 1000).verdict == "PASS"
    assert [row["minExcess"] for row in explore_problem2(12)["lengths"]] == [1, 1, 1]


def test_problem2_keeps_its_cumulative_word_ceiling(monkeypatch):
    # the walk grows all 1 + 3 + 6 + 12 + 18 + 30 + 42 + 60 + 78 = 250
    # square-free words of lengths 0..8, and the pre-count counts every one
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "250")
    assert [row["tested"] for row in explore_problem2(8)["lengths"]] == [18, 78]
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "249")
    with pytest.raises(ResourceGuard, match="^at least 250 words to grow exceed the ceiling 249$"):
        explore_problem2(8)


def test_problem2_keeps_every_exact_witness_whatever_the_minimum(monkeypatch):
    # excess 0 on 01210120, 01210212 and 12102012, -1 on 01210201 and
    # 02101210: each witness stays, in walk order, whether it is walked
    # before or after a lower excess, in its own chunk or another
    real = verify_module._checked
    eta = {"01210120": 2, "01210201": 1, "01210212": 2, "02101210": 1, "12102012": 2}

    def patched(words):
        # the fold counts eta as the positions whose local period is per
        for w, lp, per, detail in real(words):
            if w in eta:
                lp = [per] * eta[w] + [per + 1] * (len(w) - 1 - eta[w])
            yield w, lp, per, detail

    monkeypatch.setattr(verify_module, "_checked", patched)
    row = explore_problem2(8)["lengths"][1]
    assert (row["length"], row["tested"], row["minExcess"]) == (8, 78, -1)
    assert row["witnesses"] == ["01210120", "01210212", "12102012"]


def test_problem2_refused_by_the_word_ceiling_runs_no_chunk(monkeypatch):
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "249")
    with pytest.raises(ResourceGuard, match="^at least 250 words to grow exceed the ceiling 249$"):
        explore_problem2(8)
    monkeypatch.delenv("CRITFACT_MAX_WORDS")
    with pytest.raises(ResourceGuard, match="^max length 5001 exceeds the profile ceiling 5000$"):
        explore_problem2(5001)


def test_problem2_walks_the_depth_3_prefixes_in_order(monkeypatch):
    run_chunk = verify_module._run_chunk
    prefixes = []

    def recording(fold, universe, alphabet, min_len, max_len, prefix):
        prefixes.append(prefix)
        return run_chunk(fold, universe, alphabet, min_len, max_len, prefix)

    monkeypatch.setattr(verify_module, "_run_chunk", recording)
    assert [row["tested"] for row in explore_problem2(8)["lengths"]] == [18, 78]
    assert prefixes == sorted(square_free_words(3)) and len(prefixes) == 12


def test_problem2_counts_to_the_first_length_past_the_ceiling(monkeypatch):
    # lengths 0..13 hold 1,312 square-free words, lengths 0..12 only 970
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "1000")
    with pytest.raises(ResourceGuard, match="^at least 1312 words to grow exceed the ceiling 1000$"):
        explore_problem2(5000)


def test_word_ceilings_are_counted_by_the_shared_iterator(monkeypatch, capsys):
    counts_by_length = squarefree_module._counts_by_length
    seen = []

    def spy(max_len, alphabet, extra=0):
        seen.append(max_len)
        return counts_by_length(max_len, alphabet, extra)

    for module in (squarefree_module, verify_module, cli_module):
        monkeypatch.setattr(module, "_counts_by_length", spy)
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "10")
    # lengths 0..3 hold 1 + 3 + 6 + 12 words, and every run counts from
    # length 0, so each stops at length 3 with one message
    message = "at least 22 words to grow exceed the ceiling 10"
    with pytest.raises(ResourceGuard, match=f"^{message}$"):
        count_square_free(12)
    # the listing counts first, so it stops at length 3 too
    assert cli_module.run(["enumerate", "--n", "12"]) == 2
    assert capsys.readouterr().err == f"critfact: error: {message}\n"
    with pytest.raises(ResourceGuard, match=f"^{message}$"):
        explore_problem2(8)
    with pytest.raises(ResourceGuard, match=f"^{message}$"):
        verify(TheoremId.MIDPOINT, 2, 12)
    assert seen == [12, 12, 8, 12]


def test_range_suites_count_to_the_first_length_past_the_ceiling(monkeypatch):
    # lengths 0..13 hold 1,312 square-free words, lengths 0..12 only 970
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "1000")
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    with pytest.raises(ResourceGuard, match="^at least 1312 words to grow exceed the ceiling 1000$"):
        verify(TheoremId.MIDPOINT, 2, 5000)


def test_counts_grow_no_length_past_the_word_ceiling(monkeypatch):
    extend = squarefree_module.extend_square_free

    def short_only(w, a):
        if len(w) > 100:
            raise AssertionError(f"a word of {len(w)} letters was extended")
        return extend(w, a)

    monkeypatch.setattr(squarefree_module, "extend_square_free", short_only)
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "10000")
    # lengths 0..20 hold 9,838 square-free words, lengths 0..21 13,018
    message = "^at least 13018 words to grow exceed the ceiling 10000$"
    with pytest.raises(ResourceGuard, match=message):
        verify(TheoremId.UPPER_BOUND, 4000, 4000)
    with pytest.raises(ResourceGuard, match=message):
        count_square_free(4000)


def test_runs_past_the_word_ceiling_grow_few_words(monkeypatch, capsys):
    # lengths 0..21 hold 13,018 square-free words, but the count grows
    # one word per letter-renaming orbit: 4,920 letter tests, where
    # growing every word takes 3 * 9,837 + 3 and a ceiling on one
    # length's words would grow to length 26 first
    extend = squarefree_module.extend_square_free
    calls = []

    def counted(w, a):
        calls.append(w)
        return extend(w, a)

    monkeypatch.setattr(squarefree_module, "extend_square_free", counted)
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "10000")
    assert cli_module.run(["verify", "upper-bound", "--min", "4000", "--max", "4000"]) == 2
    assert len(calls) <= 5000
    assert capsys.readouterr().err.startswith("critfact: error: at least 13018 words")
    calls.clear()
    with pytest.raises(ResourceGuard, match="^at least 13018 words"):
        count_square_free(4000)
    assert len(calls) <= 5000


def test_problem1_checks_the_profile_ceiling_before_it_searches(monkeypatch):
    def refuse(n, alphabet="012"):
        raise AssertionError("problem1 searched before its ceiling check")

    monkeypatch.setattr(verify_module, "square_free_words", refuse)
    with pytest.raises(ResourceGuard, match="^max length 5001 exceeds the profile ceiling 5000$"):
        explore_problem1(1, 5001)


def test_problem1_holds_each_searched_word_to_the_word_ceiling(monkeypatch, capsys):
    # lengths 1..12 search 916 x and length 13 has no witness, so the
    # 1001st x searched takes the run past a ceiling of 1000
    construct = verify_module.construct_wx
    calls = []

    def counted(x):
        calls.append(x)
        return construct(x)

    monkeypatch.setattr(verify_module, "construct_wx", counted)
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "1000")
    message = "at least 1001 words to grow exceed the ceiling 1000"
    with pytest.raises(ResourceGuard, match=f"^{message}$"):
        explore_problem1(1, 30)
    assert len(calls) <= 1001
    calls.clear()
    assert cli_module.run(["explore", "problem1", "--max", "30"]) == 2
    assert capsys.readouterr().err == f"critfact: error: {message}\n"
    assert len(calls) <= 1001


def test_every_entry_refuses_a_bad_alphabet():
    # over a repeated letter an entry would count or list words twice
    calls = (
        ("0012", lambda a: count_square_free(3, a)),
        ("010", lambda a: list(square_free_words(2, a))),
        ("001", lambda a: random_square_free(4, random.Random(0), a)),
        ("", lambda a: count_square_free(3, a)),
        ("00", lambda a: verify(TheoremId.CFT, 2, 3, VerifyOptions(alphabet=a))),
        (["ab", "c"], lambda a: verify(TheoremId.CFT, 2, 3, VerifyOptions(alphabet=a))),
        (["0", "1", "2"], lambda a: verify(TheoremId.CFT, 2, 3, VerifyOptions(alphabet=a))),
    )
    for alphabet, call in calls:
        message = f"need a nonempty alphabet of distinct letters, got {alphabet!r}"
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            call(alphabet)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: square_free_range(2.0, 3), "need min_len >= 0, got 2.0"),
        (lambda: square_free_range(2, 3.5), "need max_len >= 0, got 3.5"),
        (lambda: count_square_free(5.0), "need length >= 0, got 5.0"),
        (lambda: tau_iter("0", 2.0), "need n >= 0, got 2.0"),
        (lambda: m_prefix(3.0), "need length >= 0, got 3.0"),
        (lambda: m_n(1.0), "need n >= 1, got 1.0"),
        (lambda: verify_beta_eta(1.5, 1000), "need count >= 1, got 1.5"),
        (lambda: random_square_free(5.5, random.Random(1)), "need length >= 0, got 5.5"),
        (lambda: verify(TheoremId.MIDPOINT, 2, 4, VerifyOptions(jobs=2.5)),
         "need jobs >= 1, got 2.5"),
        (lambda: verify(TheoremId.MIDPOINT, 2.0, 5), "need 2 <= min <= max, got 2.0..5"),
        (lambda: verify(TheoremId.MIDPOINT, 2, 5.5), "need 2 <= min <= max, got 2..5.5"),
        (lambda: verify(TheoremId.MIDPOINT, 2, 3, VerifyOptions(random_count=1.5)),
         "need random_count >= 0, got 1.5"),
        (lambda: verify(TheoremId.MIDPOINT, 2, 3,
                        VerifyOptions(random_count=1, random_min=2.5, random_max=4)),
         "need 2 <= random_min <= random_max, got 2.5..4"),
        (lambda: verify_wx_density(1.5), "need n_max >= 1, got 1.5"),
        (lambda: explore_problem1(1, 3.0), "need 1 <= min <= max, got 1..3.0"),
        (lambda: explore_problem2(8.0), "need len_max >= 4, got 8.0"),
        (lambda: explore_problem2("8"), "need len_max >= 4, got '8'"),
    ],
)
def test_every_count_must_be_an_int(monkeypatch, call, message):
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: 4)  # jobs read at any CPU count
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        call()


def test_wx_density_checks_each_word_as_it_is_built(monkeypatch):
    calls = []

    def counted_x_n(n):
        calls.append(n)
        return x_n(n)

    monkeypatch.setattr(verify_module, "x_n", counted_x_n)
    with pytest.raises(ResourceGuard, match=r"^\|w\| = 16412 exceeds the profile ceiling 5000$"):
        verify_wx_density(10**9)
    assert calls == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("lo, hi", [(2, 10**4), (2, 10**6), (10**9, 10**9)])
def test_the_all_words_count_stops_at_the_ceiling(monkeypatch, lo, hi):
    monkeypatch.setattr(verify_module, "_run_chunk", None)  # no chunk may run
    start = time.perf_counter()
    with pytest.raises(ResourceGuard, match="exceed the ceiling 1000000$") as info:
        verify(TheoremId.CFT, lo, hi)
    assert time.perf_counter() - start < 1
    assert len(str(info.value)) < 100


def test_family_suites_fail_on_route_disagreement(monkeypatch):
    monkeypatch.setattr(verify_module, "local_periods", lambda w: [1] * (len(w) - 1))
    for report in (verify_beta_eta(3, 10**4), verify_wx_density(2)):
        assert report.verdict == "FAIL"
        assert len(report.counterexamples) == report.tested
        for w, detail in report.counterexamples:
            scan = local_periods_scan(w)
            assert detail == f"local-period routes disagree: trie={[1] * (len(w) - 1)} scan={scan}"


def test_wx_details_name_n_from_the_word_length(monkeypatch):
    monkeypatch.setattr(verify_module, "_critical_interval", lambda crit: None)
    report = verify_wx_density(2)
    assert sorted(d for _, d in report.counterexamples) == [
        "n=1: critical interval None, wanted (22, 33)",
        "n=2: critical interval None, wanted (46, 69)",
    ]
