"""Exact and bounded counting of pattern-avoiding integers.

The exact count walks a failure-function automaton forward over the digits
of the bound (digit DP); the closed forms treat a length-l decimal string
as a single digit in base r = 10^l and bound the avoiders from above.
"""

from __future__ import annotations

import math
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
        fail = [0] * l  # classic KMP failure links
        k = 0
        for i in range(1, l):
            while k > 0 and pattern.digits[i] != pattern.digits[k]:
                k = fail[k - 1]
            if pattern.digits[i] == pattern.digits[k]:
                k += 1
            fail[i] = k
        table: list[tuple[int, ...]] = []
        for s in range(l):
            row = []
            for d in range(10):
                if d == pattern.digits[s]:
                    row.append(s + 1)
                elif s == 0:
                    row.append(0)
                else:
                    row.append(table[fail[s - 1]][d])
            table.append(tuple(row))
        table.append(tuple([l] * 10))  # accept absorbs
        self.transition: tuple[tuple[int, ...], ...] = tuple(table)
        # moves[s]: (t, number of digits taking s to t) for each t != accept
        self.moves: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((t, row.count(t)) for t in dict.fromkeys(row) if t != l) for row in table[:l]
        )

    def matches(self, n: int) -> bool:
        """Feed the decimal digits of n; True iff accept is reached."""
        state = 0
        accept = self.accept_state
        for c in str(n):
            state = self.transition[state][ord(c) - 48]
            if state == accept:
                return True
        return False

    def survivor_counts(self, length: int) -> list[int]:
        """Counts, per start state, of length-`length` digit strings that
        avoid the pattern; computed afresh from `moves` on each call."""
        row = [1] * self.accept_state
        for _ in range(length):
            row = [sum(row[t] * ways for t, ways in moves) for moves in self.moves]
        return row + [0]


def build_automaton(pattern: DigitString | str) -> PatternAutomaton:
    """Failure-function automaton for one digit pattern."""
    return PatternAutomaton(pattern)


def count_avoiders(pattern: DigitString | str | PatternAutomaton, x: int) -> int:
    """Exact count of n in [1, x] whose decimal rendering avoids the pattern.

    One forward pass over the digits of x.  After each digit, below[s]
    counts the avoiders whose digits so far lie below x's prefix and leave
    the automaton in state s, and `tight` is the state of x's prefix itself.
    A number shorter than x joins at a later digit through its nonzero first
    digit, so leading zeros never feed the automaton and block padding
    cannot fake a match.
    """
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
        if self.r < 3:
            raise DomainError("base r must be >= 3 (formulas divide by r - 2)")
        if not 0 <= self.b < self.r:
            raise DomainError("forbidden digit b must lie in 0..r-1")
        if self.k < 1:
            raise DomainError("digit count k must be >= 1")

    @classmethod
    def for_value(cls, x: int, r: int, b: int = 0) -> "BaseRContext":
        """Context with k = the base-r digit count of x (exact arithmetic)."""
        if x < 1:
            raise DomainError("x must be >= 1")
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
