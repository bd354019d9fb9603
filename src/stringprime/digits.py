"""Decimal digit strings and containment tests.

A pattern is a fixed sequence of decimal digits; leading zeros are
significant ("05" and "5" are different patterns).  Containment of a
pattern in an integer always refers to the integer's ordinary decimal
rendering, which carries no leading zeros.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

from .errors import InvalidInputError, ResourceLimitError


@dataclass(frozen=True)
class DigitString:
    """An immutable string of decimal digits, each in 0..9."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) == 0:
            raise InvalidInputError("digit string must be non-empty")
        for d in self.digits:
            if type(d) is not int or not 0 <= d <= 9:  # bool is an int subclass
                raise InvalidInputError(f"not a decimal digit: {d!r}")

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def text(self) -> str:
        return "".join(map(str, self.digits))

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.digits)


def parse_digit_string(text: str) -> DigitString:
    """Parse ASCII digit text into a DigitString; leading zeros survive."""
    if not text:
        raise InvalidInputError("empty pattern")
    if not text.isascii() or not text.isdigit():
        raise InvalidInputError(f"pattern must be decimal digits, got {text!r}")
    return DigitString(tuple(int(c) for c in text))


def as_digit_string(pattern: DigitString | str) -> DigitString:
    """Accept either a DigitString or plain digit text."""
    if isinstance(pattern, DigitString):
        return pattern
    return parse_digit_string(pattern)


def _rendering(n: int) -> str:
    """The decimal rendering of a non-negative integer n."""
    n = operator.index(n)  # str() of a float or a bool is no decimal rendering
    if n < 0:
        raise InvalidInputError("n must be non-negative")
    try:
        return str(n)
    except ValueError:  # past the interpreter's limit on int-to-str conversion
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"n has more than {limit} digits, the interpreter's limit for rendering it") from None


def decimal_digits(n: int) -> list[int]:
    """Most-significant-first digits of n.

    n = 0 yields [0] by convention; 0 is never prime, so nothing downstream
    depends on the choice.
    """
    return [int(c) for c in _rendering(n)]


def contains(n: int, pattern: DigitString | str) -> bool:
    """True iff the pattern appears as a contiguous block in the decimal
    rendering of n.  Blocks are matched against the rendering, so a pattern
    with a leading zero can only match in the interior: contains(512, "05")
    is False while contains(103, "03") is True.
    """
    s = _rendering(n)
    return as_digit_string(pattern).text in s


def windows(n: int, length: int) -> set[DigitString]:
    """All contiguous length-`length` digit windows of n (may start with 0).

    Empty set when n has fewer than `length` digits.
    """
    s = _rendering(n)
    if length < 1:
        raise InvalidInputError("window length must be >= 1")
    return {
        DigitString(tuple(int(c) for c in s[i : i + length]))
        for i in range(len(s) - length + 1)
    }
