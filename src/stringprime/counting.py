"""Exact and bounded counting of pattern-avoiding integers.

The exact count walks a KMP automaton forward over the digits
of the bound (digit DP); the closed forms treat a length-l decimal string
as a single digit in base r = 10^l and bound the avoiders from above.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .digits import DigitString, as_digit_string
from .errors import CountOverflowError, DomainError

# Exact counts are guaranteed up to 128 bits; x may have at most 38 digits.
MAX_COUNT_DIGITS = 38
_COUNT_LIMIT = 1 << 128


class PatternAutomaton:
    """Digit automaton recognizing occurrences of one pattern.

    States 0..l where l = pattern length; state s means "the last s digits
    read equal the first s pattern digits (and no full match yet)".  State l
    accepts and absorbs.  transition(s, d) is the length of the longest
    suffix of pattern[:s] + d that is a prefix of the pattern.  Both tables
    are built here and never written afterwards, so an automaton can be
    shared across threads.
    """

    def __init__(self, pattern: DigitString | str):
        pattern = as_digit_string(pattern)
        self.pattern = pattern
        l = pattern.length
        self.accept_state = l
        # KMP DFA: row s is the row of the state that a mismatch after s digits
        # falls back to, with pattern[s] sent on to s + 1
        table: list[tuple[int, ...]] = []
        restart = (0,) * 10  # that row for s = 0: every digit falls to state 0
        for s, d in enumerate(pattern.digits):
            table.append(restart[:d] + (s + 1,) + restart[d + 1 :])
            restart = table[restart[d]]
        table.append((l,) * 10)  # accept absorbs
        self.transition: tuple[tuple[int, ...], ...] = tuple(table)
        # moves[s]: (t, number of digits taking s to t) for each t != accept
        self.moves: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((t, row.count(t)) for t in dict.fromkeys(row) if t != l) for row in table[:l]
        )

    def survivor_counts(self, length: int) -> list[int]:
        """Counts, per start state, of length-`length` digit strings that
        avoid the pattern; computed afresh from `moves` on each call."""
        row = [1] * self.accept_state
        for _ in range(length):
            row = [sum(row[t] * ways for t, ways in moves) for moves in self.moves]
        return row + [0]


def count_avoiders(pattern: DigitString | str | PatternAutomaton, x: int) -> int:
    """Exact count of n in [1, x] whose decimal rendering avoids the pattern.

    One forward pass over the digits of x.  After each digit, below[s]
    counts the avoiders whose digits so far lie below x's prefix and leave
    the automaton in state s, and `tight` is the state of x's prefix itself.
    A number shorter than x joins at a later digit through its nonzero first
    digit, so leading zeros never feed the automaton and block padding
    cannot fake a match.
    """
    x = operator.index(x)  # a float's "." would feed the digit walk
    if x < 1:
        raise DomainError("count_avoiders needs x >= 1")
    digits = [ord(c) - 48 for c in str(x)]
    if len(digits) > MAX_COUNT_DIGITS:
        raise DomainError(f"x must have at most {MAX_COUNT_DIGITS} digits")
    auto = pattern if isinstance(pattern, PatternAutomaton) else PatternAutomaton(pattern)
    trans = auto.transition
    accept = auto.accept_state
    first = trans[0][1:]  # a number's first digit is 1..9
    starts = [(t, first.count(t)) for t in dict.fromkeys(first) if t != accept]

    below = [0] * accept
    for t in trans[0][1 : digits[0]]:
        if t != accept:
            below[t] += 1
    tight = trans[0][digits[0]]
    for xd in digits[1:]:
        step = [0] * accept
        for count, moves in zip(below, auto.moves):
            if count:
                for t, ways in moves:
                    step[t] += count * ways
        for t, ways in starts:
            step[t] += ways
        row = trans[tight]  # the accept row keeps tight at accept and adds nothing
        for t in row[:xd]:
            if t != accept:
                step[t] += 1
        tight = row[xd]
        below = step
    return sum(below) + (tight != accept)


@dataclass(frozen=True)
class BaseRContext:
    """Base-r view of length-l strings: r = 10^l makes the string one digit.

    b is the forbidden digit; k the number of base-r digits of the bound x,
    i.e. r^(k-1) <= x < r^k.
    """

    r: int
    b: int = 0
    k: int = 1

    def __post_init__(self) -> None:
        for name in ("r", "b", "k"):  # a numpy r would wrap at 64 bits in the formulas
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.r < 3:
            raise DomainError("base r must be >= 3 (formulas divide by r - 2)")
        if not 0 <= self.b < self.r:
            raise DomainError("forbidden digit b must lie in 0..r-1")
        if self.k < 1:
            raise DomainError("digit count k must be >= 1")

    @classmethod
    def for_value(cls, x: int, r: int, b: int = 0) -> "BaseRContext":
        """Context with k = the base-r digit count of x (exact arithmetic)."""
        x = operator.index(x)
        if x < 1:
            raise DomainError("x must be >= 1")
        r = cls(r=r, b=b).r  # checked before the loop below, which r = 1 would never end
        k = 0
        t = x
        while t > 0:
            t //= r
            k += 1
        return cls(r=r, b=b, k=k)


def _checked(value: int) -> int:
    if value >= _COUNT_LIMIT:
        raise CountOverflowError("count exceeds 128-bit range")
    return value


def base_r_digit_avoiders(ctx: BaseRContext, d: int) -> int:
    """Base-r integers with exactly d digits avoiding the digit ctx.b:
    (r-1)^d when b = 0, else (r-2)(r-1)^(d-1)."""
    d = operator.index(d)
    if d < 1:
        raise DomainError("digit count d must be >= 1")
    r = ctx.r
    if ctx.b == 0:
        return _checked((r - 1) ** d)
    return _checked((r - 2) * (r - 1) ** (d - 1))


def hw_upper_bound(ctx: BaseRContext) -> int:
    """Integer majorant ceil((r-1)^(k+1) / (r-2)) of the count of base-r
    integers up to x (where x has k digits) avoiding any one digit."""
    r, k = ctx.r, ctx.k
    value = -((r - 1) ** (k + 1) // -(r - 2))
    return _checked(value)


def avoider_density_bound(ctx: BaseRContext) -> float:
    """Upper bound r(r-1)/(r-2) * ((r-1)/r)^k on the avoider density R(x)/x.

    Evaluated in log space so large k underflows gracefully instead of
    overflowing the power.
    """
    r, k = ctx.r, ctx.k
    log_val = (
        math.log(r)
        + math.log(r - 1)
        - math.log(r - 2)
        + k * (math.log(r - 1) - math.log(r))
    )
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf
