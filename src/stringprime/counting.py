"""Exact and bounded counting of pattern-avoiding integers.

The exact count is a digit DP over a KMP automaton: one lookup pass over
the digits of the bound reads survivor rows, which a shared automaton builds
once and a pattern string builds per call, one row per digit of the bound.
The closed forms treat a length-l decimal string as a single digit in base
r = 10^l and bound the avoiders from above.
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
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _kmp_tables(pattern: DigitString):
    """(transition, moves) of the pattern's KMP automaton; see PatternAutomaton."""
    l = pattern.length
    # KMP DFA: row s is the row of the state that a mismatch after s digits
    # falls back to, with pattern[s] sent on to s + 1
    table: list[tuple[int, ...]] = []
    restart = (0,) * 10  # that row for s = 0: every digit falls to state 0
    for s, d in enumerate(pattern.digits):
        table.append(restart[:d] + (s + 1,) + restart[d + 1 :])
        restart = table[restart[d]]
    table.append((l,) * 10)  # accept absorbs
    moves = tuple(tuple((t, row.count(t)) for t in dict.fromkeys(row) if t != l) for row in table[:l])
    return tuple(table), moves


class PatternAutomaton:
    """Digit automaton recognizing occurrences of one pattern, with the
    survivor rows that count its avoiders by lookup.

    States 0..l where l = pattern length; state s means "the last s digits
    read equal the first s pattern digits (and no full match yet)".  State l
    accepts and absorbs.  transition(s, d) is the length of the longest
    suffix of pattern[:s] + d that is a prefix of the pattern, and moves[s]
    holds (t, number of digits taking s to t) for each t != accept.

    survivors[L][s], for lengths L < MAX_COUNT_DIGITS, counts the length-L
    digit strings that avoid the pattern from state s; the accept column is
    0.  Its 38 rows make an automaton several times as dear to build as the
    transitions alone; one that is reused pays that once.  Every table is
    built here and never written afterwards, so an automaton can be shared
    across threads.
    """

    def __init__(self, pattern: DigitString | str):
        pattern = as_digit_string(pattern)
        self.pattern = pattern
        self.accept_state = pattern.length
        self.transition, self.moves = _kmp_tables(pattern)
        self.survivors = _survivor_rows(self.moves, MAX_COUNT_DIGITS)

    def survivor_counts(self, length: int) -> list[int]:
        """Counts, per start state, of length-`length` digit strings that
        avoid the pattern (0 for accept): `survivors[length]` below
        MAX_COUNT_DIGITS, stepped on from its last row past it."""
        length = operator.index(length)
        if length < 0:
            raise DomainError("length must be >= 0")
        row = self.survivors[min(length, MAX_COUNT_DIGITS - 1)]
        for _ in range(length - MAX_COUNT_DIGITS + 1):
            row = _survivor_step(row, self.moves)
        return list(row)


def _survivor_rows(moves, count: int) -> tuple[tuple[int, ...], ...]:
    """The survivor rows of lengths 0..count-1; see PatternAutomaton."""
    rows = [(1,) * len(moves) + (0,)]
    for _ in range(count - 1):
        rows.append(_survivor_step(rows[-1], moves))
    return tuple(rows)


def _survivor_step(row: tuple[int, ...], moves) -> tuple[int, ...]:
    """The survivor row one digit longer than `row`.  Plain loops: on
    CPython 3.11 they build it about 3x faster than nested comprehensions."""
    step = []
    for state_moves in moves:
        total = 0
        for t, ways in state_moves:
            total += row[t] * ways
        step.append(total)
    step.append(0)
    return tuple(step)


def count_avoiders(pattern: DigitString | str | PatternAutomaton, x: int) -> int:
    """Exact count of n in [1, x] whose decimal rendering avoids the pattern.

    One lookup pass over the n digits of x reads survivor rows: the
    avoiders with 1..n-1 digits, plus, for each digit of x, the survivors of
    every smaller digit after x's prefix, minus the zero first digit,
    stopping once x's prefix contains the pattern.  A PatternAutomaton
    brings its rows; a pattern string or DigitString builds only the n rows
    that x needs, and no automaton.  Each number is read from its nonzero
    first digit, so leading zeros never feed the automaton.
    """
    x = operator.index(x)  # a float's "." would feed the digit walk
    if x < 1:
        raise DomainError("count_avoiders needs x >= 1")
    if x >= 10**MAX_COUNT_DIGITS:  # before str(x), which refuses an int past 4300 digits
        raise DomainError(f"x must have at most {MAX_COUNT_DIGITS} digits")
    digits = str(x).encode().translate(_DIGIT_VALUES)  # bytes of the digit values 0..9
    n = len(digits)
    if isinstance(pattern, PatternAutomaton):
        trans, rows = pattern.transition, pattern.survivors
    else:
        trans, moves = _kmp_tables(as_digit_string(pattern))
        rows = _survivor_rows(moves, n)
    accept = len(trans) - 1
    total = 0
    tight = 0
    for xd, row in zip(digits, rows[n - 1 :: -1]):  # the row of the digits left after xd
        step = trans[tight]
        for t in step[:xd]:
            total += row[t]  # the accept column adds 0
        tight = step[xd]
        if tight == accept:
            break
    else:
        total += 1  # x itself
    # the L-digit avoiders, L < n, are the L-digit strings that avoid from
    # state 0 less those led by 0; a first digit 0 above made no n-digit number
    zero = trans[0][0]
    for prev, row in zip(rows, rows[1:n]):
        total += row[0] - prev[zero]
    return total - rows[n - 1][zero]


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
