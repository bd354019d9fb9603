from __future__ import annotations

import random
import sys

import pytest

from stringprime.digits import (
    DigitString,
    contains,
    decimal_digits,
    parse_digit_string,
    windows,
)
from stringprime.errors import InvalidInputError, ResourceLimitError


def test_parse_single_digit():
    s = parse_digit_string("9")
    assert s.digits == (9,)
    assert s.length == 1


def test_parse_keeps_leading_zero():
    s = parse_digit_string("05")
    assert s.digits == (0, 5)
    assert s.length == 2
    assert s.text == "05"
    assert s != parse_digit_string("5")


@pytest.mark.parametrize("bad", ["", "9a", "1.2", "-3", " 12", "১২"])
def test_parse_rejects_non_digits(bad):
    with pytest.raises(InvalidInputError):
        parse_digit_string(bad)


def test_text_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        text = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 12)))
        assert parse_digit_string(text).text == text


def test_digitstring_validates():
    with pytest.raises(InvalidInputError):
        DigitString(())
    with pytest.raises(InvalidInputError):
        DigitString((3, 10))


@pytest.mark.parametrize("digits", [(True, False), (1, False), (1.0,), ("1",)])
def test_digitstring_rejects_non_int_digits(digits):
    # bool is an int subclass: (True, False) would equal (1, 0) yet render "TrueFalse"
    with pytest.raises(InvalidInputError):
        DigitString(digits)


def test_digitstring_text_agrees_with_containment():
    s = DigitString((1, 0))
    assert s.text == str(s) == "10"
    assert s == parse_digit_string("10")
    assert contains(10, s) and contains(2103, s) and not contains(1, s)


@pytest.mark.parametrize("n,expected", [(512, [5, 1, 2]), (7, [7]), (1000, [1, 0, 0, 0]), (0, [0])])
def test_decimal_digits(n, expected):
    assert decimal_digits(n) == expected


def test_decimal_digits_reconstruct():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 10**15)
        ds = decimal_digits(n)
        assert ds[0] != 0
        value = 0
        for d in ds:
            value = 10 * value + d
        assert value == n


@pytest.mark.parametrize(
    "n,pattern,expected",
    [
        (19, "9", True),
        (103, "03", True),
        (512, "05", False),
        (123, "123", True),
        (12, "123", False),
        (7, "77", False),
    ],
)
def test_contains(n, pattern, expected):
    assert contains(n, pattern) is expected


def test_contains_false_when_pattern_longer():
    assert not contains(5, "555555")


def test_windows_examples():
    assert windows(1847, 2) == {parse_digit_string(t) for t in ("18", "84", "47")}
    assert windows(7, 2) == set()
    assert windows(103, 2) == {parse_digit_string(t) for t in ("10", "03")}


def test_contains_iff_window():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 10**9)
        length = rng.randint(1, 4)
        wins = windows(n, length)
        # a window of n is always contained
        for w in wins:
            assert contains(n, w)
        # random patterns agree with window membership
        text = "".join(rng.choice("0123456789") for _ in range(length))
        pat = parse_digit_string(text)
        assert contains(n, pat) == (pat in wins)


def test_integer_inputs_are_read_as_integers():
    np = pytest.importorskip("numpy")
    # True is the integer 1, not the text "True"
    assert contains(True, "1") and not contains(False, "1")
    assert decimal_digits(True) == [1] and windows(True, 1) == {parse_digit_string("1")}
    assert contains(np.int64(907), "07") and decimal_digits(np.int32(907)) == [9, 0, 7]
    assert windows(np.int64(1847), 2) == windows(1847, 2)


@pytest.mark.parametrize("n,text", [(7.0, "7"), (1e20, "2")])
def test_float_n_is_a_type_error(n, text):
    # str(7.0) is "7.0" and str(1e20) is "1e+20": each holds text, but neither is a decimal rendering
    for call in (lambda: contains(n, text), lambda: decimal_digits(n), lambda: windows(n, 1)):
        with pytest.raises(TypeError):
            call()


def test_negative_rejected():
    with pytest.raises(InvalidInputError):
        decimal_digits(-1)
    with pytest.raises(InvalidInputError):
        contains(-5, "5")
    with pytest.raises(InvalidInputError):
        windows(-1, 2)
    with pytest.raises(InvalidInputError):
        windows(5, 0)


# CPython has limited int-to-str conversion since 3.10.7 and 3.11.0; before
# that str() renders any int and there is no limit to test
needs_str_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")


@pytest.fixture
def str_digits_limit():
    """Sets the interpreter's int-to-str digit limit for one test, then restores it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


# str() refuses an int with more digits than the interpreter's limit (4300 by
# default); past it each function raises the library's resource error, and it
# follows the limit wherever a host sets it
@needs_str_limit
def test_decimal_digits_past_the_str_limit(str_digits_limit):
    str_digits_limit(5000)
    assert decimal_digits(10**4999) == [1] + [0] * 4999
    with pytest.raises(ResourceLimitError, match="more than 5000 digits"):
        decimal_digits(10**5000)


@needs_str_limit
def test_contains_past_the_str_limit(str_digits_limit):
    str_digits_limit(5000)
    assert contains(10**4999 + 7, "07")
    with pytest.raises(ResourceLimitError, match="more than 5000 digits"):
        contains(10**5000, "7")


@needs_str_limit
def test_windows_past_the_str_limit(str_digits_limit):
    str_digits_limit(5000)
    assert windows(10**4999, 2) == {parse_digit_string("10"), parse_digit_string("00")}
    with pytest.raises(ResourceLimitError, match="more than 5000 digits"):
        windows(10**5000, 2)
