import pytest

from critfact import RangeError, global_period, profile
from critfact.config import DEFAULT_LIMITS, Limits


def test_defaults():
    limits = Limits()
    assert limits.max_words == 1_000_000
    assert limits.max_profile_len == 5_000


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "123")
    monkeypatch.setenv("CRITFACT_MAX_PROFILE_LEN", "77")
    limits = Limits.from_env()
    assert limits.max_words == 123
    assert limits.max_profile_len == 77
    assert limits.max_prefix_len == 2_000_000


@pytest.mark.parametrize(
    "raw", ["abc", "0", "-5", "", "1.5", " 7", pytest.param("9" * 5000, id="5000-digits")]
)
def test_from_env_rejects_values_that_are_not_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("CRITFACT_MAX_PREFIX_LEN", raw)
    with pytest.raises(RangeError, match="CRITFACT_MAX_PREFIX_LEN must be a positive integer"):
        Limits.from_env()


def test_default_limits_read_the_environment_at_each_access(monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "abc")
    assert DEFAULT_LIMITS.max_profile_len == 5_000  # only the variable asked for is read
    with pytest.raises(RangeError):
        DEFAULT_LIMITS.max_words
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "123")
    assert DEFAULT_LIMITS.max_words == 123
    monkeypatch.delenv("CRITFACT_MAX_WORDS")
    assert DEFAULT_LIMITS.max_words == 1_000_000


def test_a_bad_limit_fails_the_call_that_checks_it(monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_PROFILE_LEN", "x")
    assert global_period("0101") == 2
    with pytest.raises(RangeError):
        profile("0101")


def test_each_limit_reads_the_variable_named_after_its_field(monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_PREFIX_LEN", "abc")
    assert DEFAULT_LIMITS.max_words == 1_000_000
    message = "CRITFACT_MAX_PREFIX_LEN must be a positive integer, got 'abc'"
    with pytest.raises(RangeError, match=message):
        DEFAULT_LIMITS.max_prefix_len
    with pytest.raises(AttributeError):
        DEFAULT_LIMITS.max_letters
