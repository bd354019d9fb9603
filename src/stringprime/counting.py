"""Exact and bounded counting of pattern-avoiding integers.

The exact count walks a failure-function automaton over the digits of the
bound (digit DP); the closed forms treat a length-l decimal string as a
single digit in base r = 10^l and bound the avoiders from above.
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
    suffix of pattern[:s] + d that is a prefix of the pattern.
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
        # _survivors[j][s]: digit strings of length j from state s that never
        # reach accept; extended lazily as larger bounds are counted.
        self._survivors: tuple[list[int], ...] = ([1] * l + [0],)

    def step(self, state: int, digit: int) -> int:
        return self.transition[state][digit]

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
        avoid the pattern."""
        table = self._survivors
        if len(table) <= length:
            # Extend a private copy and publish it with one assignment, so a
            # concurrent reader or extender never sees a half-grown table.
            rows = list(table)
            accept = self.accept_state
            while len(rows) <= length:
                prev = rows[-1]
                rows.append(
                    [
                        sum(prev[t] for t in row if t != accept)
                        for row in self.transition[:accept]
                    ]
                    + [0]
                )
            table = self._survivors = tuple(rows)
        return table[length]


def build_automaton(pattern: DigitString | str) -> PatternAutomaton:
    """Failure-function automaton for one digit pattern."""
    return PatternAutomaton(pattern)


def count_avoiders(pattern: DigitString | str | PatternAutomaton, x: int) -> int:
    """Exact count of n in [1, x] whose decimal rendering avoids the pattern.

    Leading zeros never feed the automaton: each candidate starts at state 0
    on its first (nonzero) digit, so block padding cannot fake a match.
    """
    if x < 1:
        raise DomainError("count_avoiders needs x >= 1")
    digits = [int(c) for c in str(x)]
    if len(digits) > MAX_COUNT_DIGITS:
        raise DomainError(f"x must have at most {MAX_COUNT_DIGITS} digits")
    auto = pattern if isinstance(pattern, PatternAutomaton) else PatternAutomaton(pattern)
    trans = auto.transition
    accept = auto.accept_state
    span = len(digits)
    # survivors[j][s] for j = 0..span-1, materialized before the walk
    surv = [auto.survivor_counts(j) for j in range(span)]

    total = 0
    for length in range(1, span):  # numbers with fewer digits than x
        tail = surv[length - 1]
        row0 = trans[0]
        total += sum(tail[row0[d]] for d in range(1, 10) if row0[d] != accept)
    state = 0
    for i, xd in enumerate(digits):  # numbers with span digits, tight prefix
        tail = surv[span - 1 - i]
        row = trans[state]
        for d in range(1 if i == 0 else 0, xd):
            t = row[d]
            if t != accept:
                total += tail[t]
        state = row[xd]
        if state == accept:
            break
    else:
        total += 1  # x itself avoids the pattern
    return total


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
