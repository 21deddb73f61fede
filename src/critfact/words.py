"""Word primitives: alphabets, borders, the global period, reversal.

Words are plain Python strings over a small ordered alphabet, ternary
"012" by default.  Letter indices and positions are 1-based in every
public interface: position p denotes the cut w = x.y with |x| = p, so a
word of length n has exactly n - 1 positions.  All functions here are
pure; words never mutate.
"""

from __future__ import annotations

from .errors import AlphabetError, EmptyWord, RangeError

TERNARY = "012"
BINARY = "01"


def parse_word(text: str, alphabet: str = TERNARY) -> str:
    """Validate that every character of ``text`` belongs to ``alphabet``.

    Returns the word unchanged.  Raises AlphabetError naming the first
    offending character and its 1-based index.
    """
    allowed = set(alphabet)
    for i, ch in enumerate(text):
        if ch not in allowed:
            raise AlphabetError(
                f"character {ch!r} at index {i + 1} is not in alphabet {alphabet!r}"
            )
    return text


def _check_alphabet(alphabet: str) -> None:
    """Raise RangeError unless ``alphabet`` is a nonempty string of
    distinct letters."""
    if not isinstance(alphabet, str) or not alphabet or len(set(alphabet)) != len(alphabet):
        raise RangeError(f"need a nonempty alphabet of distinct letters, got {alphabet!r}")


def _check_count(value: int, least: int, name: str) -> None:
    """Raise RangeError naming ``name`` unless ``value`` is an int of at
    least ``least``."""
    if not isinstance(value, int) or value < least:
        raise RangeError(f"need {name} >= {least}, got {value!r}")


def _check_span(lo: int, hi: int, least: int, names: str) -> None:
    """Raise RangeError naming ``names``, such as "min <= max", unless
    ``lo`` and ``hi`` are ints with least <= lo <= hi."""
    if not (isinstance(lo, int) and isinstance(hi, int) and least <= lo <= hi):
        raise RangeError(f"need {least} <= {names}, got {lo!r}..{hi!r}")


def border_array(w: str) -> list[int]:
    """Longest proper border length of every prefix of ``w``.

    Entry i (0-based) is the length of the longest word that is both a
    proper prefix and a proper suffix of w[1..i+1].  The empty word
    yields an empty list.  Standard failure-function recurrence, O(n).
    """
    n = len(w)
    b = [0] * n
    k = 0
    for i in range(1, n):
        while k > 0 and w[i] != w[k]:
            k = b[k - 1]
        if w[i] == w[k]:
            k += 1
        b[i] = k
    return b


def global_period(w: str) -> int:
    """Minimal period of ``w``: the smallest p >= 1 such that w is a
    prefix of u^n for its own length-p prefix u.

    Equals |w| minus the longest border length.  Raises EmptyWord on "".
    """
    if not w:
        raise EmptyWord("the empty word has no period")
    return len(w) - border_array(w)[-1]


def _has_border(u: str) -> bool:
    """Whether the nonempty word ``u`` has a nonempty proper border.  The
    shortest border of a bordered word is unbordered, so it is at most
    half as long: a border of length k <= |u|//2 is the suffix from
    j = |u|-k, which starts with u[0], so ``find`` jumps to those j and
    ``startswith`` tests each."""
    q = len(u)
    j = u.find(u[0], q - q // 2)
    while j != -1:
        if u.startswith(u[j:]):
            return True
        j = u.find(u[0], j + 1)
    return False


def is_unbordered(w: str) -> bool:
    """True iff ``w`` has no nonempty proper border, i.e. per(w) = |w|."""
    if not w:
        raise EmptyWord("the empty word is neither bordered nor unbordered")
    return not _has_border(w)


def reverse(w: str) -> str:
    """Letters of ``w`` in reverse order."""
    return w[::-1]
