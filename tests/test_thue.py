import re

import pytest

from critfact import thue as thue_module
from critfact import (
    AlphabetError,
    InsufficientBound,
    RangeError,
    ResourceGuard,
    alpha_n,
    beta_family,
    beta_n,
    construct_wx,
    is_square_free,
    m_n,
    m_prefix,
    profile,
    tau,
    tau_iter,
    x_n,
)

FORBIDDEN = ("010", "212", "01201")


def test_tau_images():
    assert tau("0") == "012"
    assert tau("1") == "02"
    assert tau("2") == "1"
    assert tau("") == ""
    assert tau("012") == "012021"


def test_tau_rejects_foreign_letters():
    with pytest.raises(AlphabetError):
        tau("013")
    with pytest.raises(AlphabetError):
        tau_iter("3", 2)


def test_tau_length_arithmetic():
    # |tau(w)| = 3#0 + 2#1 + #2
    for w in ("0", "12", "0120", "201210"):
        assert len(tau(w)) == 3 * w.count("0") + 2 * w.count("1") + w.count("2")


def test_tau_iter_values(example3):
    assert tau_iter("0", 0) == "0"
    assert tau_iter("2", 1) == "1"
    assert tau_iter("0", 4) == example3  # the printed 24-letter word
    assert len(tau_iter("1", 3)) == 8


def test_tau_iter_length_formulas():
    for n in range(1, 13):
        assert len(tau_iter("0", n)) == 3 * 2 ** (n - 1)
        assert len(tau_iter("1", n)) == 2**n
        assert len(tau_iter("2", n)) == 2 ** (n - 1)
    with pytest.raises(RangeError):
        tau_iter("0", -1)


def test_m_prefix_values():
    assert m_prefix(0) == ""
    assert m_prefix(6) == "012021"
    assert m_prefix(24) == tau_iter("0", 4)


def test_m_prefix_refuses_a_negative_length_and_one_past_the_ceiling(monkeypatch):
    with pytest.raises(RangeError, match="^need length >= 0, got -1$"):
        m_prefix(-1)
    monkeypatch.setenv("CRITFACT_MAX_PREFIX_LEN", "1000")
    assert len(m_prefix(1000)) == 1000
    with pytest.raises(ResourceGuard, match="^prefix length 1001 exceeds the ceiling 1000$"):
        m_prefix(1001)


def test_m_prefix_keeps_no_more_of_m_than_the_ceiling(monkeypatch):
    monkeypatch.setattr(thue_module, "_m_cache", "0")
    monkeypatch.setenv("CRITFACT_MAX_PREFIX_LEN", "1000")
    m_prefix(1000)
    assert len(thue_module._m_cache) == 1000
    # the cut cache is a prefix of m, so a later call under a higher
    # ceiling grows it to the same letters
    monkeypatch.delenv("CRITFACT_MAX_PREFIX_LEN")
    assert m_prefix(100_000) == tau_iter("0", 17)[:100_000]
    m_prefix(2_000_000)
    assert len(thue_module._m_cache) == 2_000_000


def test_m_prefix_properties():
    w = m_prefix(500)
    assert is_square_free(w)
    assert not any(f in w for f in FORBIDDEN)
    # fixed point: tau maps prefixes of m to prefixes of m
    assert m_prefix(2000).startswith(tau(m_prefix(800)))


def test_m_prefix_is_consistent_across_lengths():
    assert m_prefix(4000).startswith(m_prefix(1234))


def test_m_n_values():
    assert m_n(1) == "012"
    assert m_n(2) == tau_iter("0", 3) + tau_iter("0", 1)
    assert len(m_n(2)) == 15
    with pytest.raises(RangeError):
        m_n(0)


def test_m_n_prefix_alignment():
    for n in range(1, 6):
        mn = m_n(n)
        assert len(mn) == 4**n - 1
        assert mn + "0" == m_prefix(4**n)


def test_m_n_is_read_from_the_prefix_of_m(monkeypatch):
    def refuse(letter, n):
        raise AssertionError("m_n iterated tau itself")

    monkeypatch.setattr(thue_module, "tau_iter", refuse)
    assert m_n(3) == m_prefix(63)


def test_m_n_telescopes_under_tau_squared():
    for n in range(1, 6):
        assert tau(tau(m_n(n) + "0")) == m_n(n + 1) + "0" + "21"


def test_alpha_beta_words():
    assert alpha_n(1) == "102012021"
    assert beta_n(1) == "102012101202"
    assert m_prefix(5000).find(alpha_n(1)) == 9  # starts just after position 9
    assert m_prefix(5000).find(beta_n(1)) == 17  # starts just after position 17


def test_alpha_beta_are_factors_of_m():
    for n in range(1, 5):
        bound = 4 ** (n + 2)
        mp = m_prefix(bound)
        assert alpha_n(n) in mp
        assert beta_n(n) in mp
        assert is_square_free(alpha_n(n))
        assert is_square_free(beta_n(n))


def test_x_n():
    assert x_n(1) == "120102012"
    assert len(x_n(1)) == 9
    assert len(x_n(2)) == 21
    for n in range(1, 5):
        assert len(x_n(n)) == 4**n + 5


def test_construct_wx_template():
    # mechanical concatenation 0.x.02.x.1 0.x.02.x.0
    assert construct_wx("0") == "000201000200"
    assert not is_square_free(construct_wx("0"))
    for x in ("0", "12", x_n(1)):
        w = construct_wx(x)
        assert len(w) == 4 * len(x) + 8
        assert w == "0" + x + "02" + x + "10" + x + "02" + x + "0"
    with pytest.raises(AlphabetError):
        construct_wx("03")


def test_wx_of_family_seed_is_square_free():
    w = construct_wx(x_n(1))
    assert len(w) == 44
    assert is_square_free(w)
    prof = profile(w)
    assert prof.eta == len(x_n(1)) + 3
    assert prof.critical_points[0] == 2 * 9 + 4
    assert prof.critical_points[-1] == 3 * 9 + 6


def test_beta_family_shape():
    words = beta_family(3, 10**4)
    assert [len(w) for w in words] == [23, 15, 15]
    assert words[0] == "01020120210201210120212"
    for w in words:
        assert w.startswith("010201")
        assert w.endswith("120212")
        assert is_square_free(w)
        assert profile(w).period == len(w)  # unbordered
        assert profile(w).eta == len(w) - 5


def test_beta_family_insufficient_bound():
    with pytest.raises(InsufficientBound):
        beta_family(3, 40)
    with pytest.raises(RangeError):
        beta_family(0, 100)


def test_beta_family_words_are_wrapped_factors():
    mp = m_prefix(10**4)
    for w in beta_family(3, 10**4):
        assert w[0] == "0" and w[-1] == "2"
        assert w[1:-1] in mp


def test_tau_iter_checks_the_prefix_ceiling_before_iterating(monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_PREFIX_LEN", "1000")
    # 768, 512 and 512 letters fit; 1536, 1024 and 1024 do not
    assert [len(tau_iter(a, n)) for a, n in (("0", 9), ("1", 9), ("2", 10))] == [768, 512, 512]
    for a, n in (("0", 10), ("1", 10), ("2", 11), ("0", 10**9)):
        message = f"|tau^{n}({a})| exceeds the prefix ceiling 1000"
        with pytest.raises(ResourceGuard, match=re.escape(message)):
            tau_iter(a, n)
    assert tau_iter("0", 0) == "0"


def test_m_n_checks_the_prefix_ceiling_before_building_4_to_the_n(monkeypatch):
    # 4**(10**9) would be a 250 MB integer; the exponent alone rejects it
    message = "|m_n(1000000000)| = 4^1000000000 - 1 exceeds the configured ceiling"
    with pytest.raises(ResourceGuard, match=re.escape(message)):
        m_n(10**9)
    monkeypatch.setenv("CRITFACT_MAX_PREFIX_LEN", "1000")
    assert len(m_n(4)) == 255
    with pytest.raises(ResourceGuard, match=re.escape("|m_n(5)| = 4^5 - 1 exceeds")):
        m_n(5)
