"""Runnable experiments: least containing prime, coverage thresholds,
prime arithmetic progressions, and relative densities.

All scans stream primes ascending, one array per segment: those below 2^24
from a block kept for the process, the rest from the sieve cache or the
segmented sieve.  Results are deterministic for a given limit.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass

import numpy as np

from .digits import DigitString, as_digit_string, contains, parse_digit_string
from .errors import DomainError, ResourceLimitError
from .primes import SIEVE_CEILING, PrimeStream, is_prime


class CoverageMap(Mapping):
    """Read-only map from each length-l string with a nonzero leading digit
    to the least prime containing it, in ascending string order.

    It holds one read-only int array indexed by the string's value less
    10^(l-1).  A lookup builds nothing; iteration builds the key
    DigitStrings one at a time, and values are plain ints.
    """

    __slots__ = ("_length", "_first")

    def __init__(self, length: int, first: np.ndarray):
        self._length = length
        self._first = first.view()
        self._first.flags.writeable = False

    def __getitem__(self, key: DigitString) -> int:
        if isinstance(key, DigitString) and len(key) == self._length and key.digits[0]:
            return int(self._first[int(key.text) - 10 ** (self._length - 1)])
        raise KeyError(key)

    def __iter__(self) -> Iterator[DigitString]:
        return map(DigitString, itertools.product(range(1, 10), *[range(10)] * (self._length - 1)))

    def __len__(self) -> int:
        return len(self._first)

    def __repr__(self) -> str:
        return f"CoverageMap(length={self._length}, strings={len(self)})"

    def items(self) -> ItemsView[DigitString, int]:
        return _CoverageItems(self)

    def values(self) -> ValuesView[int]:
        return _CoverageValues(self)


class _CoverageItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._first.tolist())


class _CoverageValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._first.tolist())


@dataclass(frozen=True)
class CoverageResult:
    """Least prime bound m such that every length-l string with nonzero
    leading digit appears inside some prime <= m."""

    length: int
    universe_size: int
    m: int
    last_string: DigitString
    covered_at: CoverageMap

    def write_csv(self, path: str | os.PathLike) -> None:
        """Persist the coverage map as `string,first_containing_prime` rows."""
        lo = 10 ** (self.length - 1)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["string", "first_containing_prime"])
            writer.writerows(zip(range(lo, 10 * lo), self.covered_at.values()))


@dataclass(frozen=True)
class APResult:
    """An arithmetic progression of primes all containing one string."""

    first_term: int
    difference: int
    length: int
    terms: tuple[int, ...]


@dataclass(frozen=True)
class DensityReport:
    """Partition of the primes <= n by containment of one string."""

    pattern: DigitString
    n: int
    pi_n: int
    containing: int
    avoiding: int

    @property
    def density(self) -> float:
        return self.containing / self.pi_n if self.pi_n else 0.0


def least_prime_containing(
    pattern: DigitString | str,
    limit: int,
    cache_dir: str | os.PathLike | None = None,
) -> int | None:
    """Smallest prime <= limit containing the pattern, or None."""
    text = as_digit_string(pattern).text
    for primes in PrimeStream(limit, cache_dir=cache_dir).arrays():
        hits = primes[_containing(primes, text)]
        if hits.size:
            return int(hits[0])
    return None


def coverage_threshold(
    length: int,
    limit: int,
    cache_dir: str | os.PathLike | None = None,
) -> CoverageResult | None:
    """Scan primes ascending until every length-`length` string with a
    nonzero leading digit has appeared inside one; None if the limit is
    exhausted first.

    Windows inside a prime may start with 0, but only nonzero-led windows
    count toward the universe of 9 * 10^(length-1) strings.  first[v], the
    least prime holding v, takes a minimum per window column, which no write
    order changes; int32 max marks v unseen, and zero-led windows are marked
    but never read.  m and last_string mean what an ascending scan, left to
    right within each prime, gives: the prime at which the last string
    appeared, and the one of its new strings that first occurs latest in it.
    """
    if not 1 <= length <= 6:
        raise DomainError("coverage is desk-scale only: 1 <= length <= 6")
    lo = 10 ** (length - 1)
    unseen = np.iinfo(np.int32).max
    first = np.full(10 * lo, unseen, dtype=np.int32)
    for primes in PrimeStream(limit, cache_dir=cache_dir).arrays():
        for w in _windows(primes, length).T:  # per column: numpy 2.4's ufunc.at misreads broadcast values
            np.minimum.at(first, w, primes)
        m = int(first[lo:].max())
        if m < unseen:
            s = str(m)
            new = [w for w in dict.fromkeys(s[i : i + length] for i in range(len(s) - length + 1))
                   if w[0] != "0" and first[int(w)] == m]
            return CoverageResult(
                length=length,
                universe_size=9 * lo,
                m=m,
                last_string=parse_digit_string(new[-1]),
                covered_at=CoverageMap(length, first[lo:]),
            )
    return None


def find_prime_ap(
    pattern: DigitString | str,
    k: int,
    limit: int,
    cache_dir: str | os.PathLike | None = None,
) -> APResult | None:
    """A k-term arithmetic progression of primes <= limit all containing the
    pattern, or None.

    Searches ascending first term, then ascending difference; the first hit
    is returned, with no minimality claim beyond that ordering.  The
    containing primes are gathered, 4 bytes each, into one int32 array c
    each time the rows read double.  Then the least of them, c[0], is tried
    on the differences whose last term is at most the largest prime read:
    a progression found is the answer, as every smaller difference was
    checked against every containing prime its terms can be, and no first
    term comes before c[0].  So the stream is read only up to the try that
    decides c[0]; if none does, every first term is tried once every row
    is read.
    """
    if k < 3:
        raise DomainError("progression length k must be >= 3")
    if k > 6:
        raise DomainError("desk-scale search supports k <= 6")
    text = as_digit_string(pattern).text
    rows = PrimeStream(limit, cache_dir=cache_dir).arrays()
    parts, refuted = [], 0  # every difference from c[0] up to refuted has failed
    for r, primes in enumerate(rows, 1):
        parts.append(primes[_containing(primes, text)])
        if r & (r - 1) == 0:  # r is a power of two
            parts = [np.concatenate(parts)]
            c = parts[0]
            if c.size and primes.size:
                top = int(primes[-1])
                if d := _least_difference(c, 0, k, top, refuted):
                    return _progression(int(c[0]), d, k)
                refuted = (top - int(c[0])) // (k - 1)
    c = np.concatenate(parts)
    for i in range(c.size):
        if d := _least_difference(c, i, k, limit, refuted if i == 0 else 0):
            return _progression(int(c[i]), d, k)
    return None


def _least_difference(c: np.ndarray, i: int, k: int, top: int, above: int = 0) -> int | None:
    """The least d > above with c[i] + j*d in c for every j < k and last
    term c[i] + (k-1)*d <= top, or None; c ascends and holds every
    containing prime <= top.  Every term is at most top <= 10^9, so int32
    holds it."""
    a = int(c[i])
    # every difference in (above, (top - a) // (k - 1)], ascending (int32
    # bounds: a Python int would make searchsorted widen c); keep those whose
    # further terms are containing primes
    lo, hi = np.searchsorted(c, np.array([a + above, a + (top - a) // (k - 1)], dtype=np.int32), "right")
    d = c[lo:hi] - a
    for j in range(2, k):
        t = a + j * d
        d = d[c.take(np.searchsorted(c, t), mode="clip") == t]
        if not d.size:
            return None
    return int(d[0])


def _progression(a: int, d: int, k: int) -> APResult:
    return APResult(first_term=a, difference=d, length=k, terms=tuple(a + j * d for j in range(k)))


def relative_density(
    pattern: DigitString | str,
    n: int,
    cache_dir: str | os.PathLike | None = None,
) -> DensityReport:
    """Exact split of the primes <= n into containing and avoiding."""
    return _density_scan(as_digit_string(pattern), [n], cache_dir)[0]


def density_table(
    pattern: DigitString | str,
    exponents: list[int],
    cache_dir: str | os.PathLike | None = None,
) -> list[DensityReport]:
    """One DensityReport per bound 10^e, all from a single sieve pass."""
    if not exponents:
        return []
    if min(exponents) < 0:
        raise DomainError("exponents must be non-negative")
    top = max(exponents)
    if top > math.log10(SIEVE_CEILING):  # checked before 10**top is built
        raise ResourceLimitError(f"sieve limit 10^{top} exceeds configured ceiling {SIEVE_CEILING}")
    bounds = [10**e for e in sorted(set(exponents))]
    return _density_scan(as_digit_string(pattern), bounds, cache_dir)


def _density_scan(pat: DigitString, bounds: list[int], cache_dir) -> list[DensityReport]:
    """bounds ascend with no repeats."""
    if min(bounds) < 1:
        raise DomainError("bounds must be >= 1")
    pi_n, containing = np.zeros((2, len(bounds)), dtype=np.int64)
    rows = PrimeStream(max(bounds[-1], 2), cache_dir=cache_dir).arrays()
    # int32, as the stream has checked the ceiling: int64 bounds would make searchsorted widen each row
    at = np.array(bounds, dtype=np.int32)
    for primes in rows:
        pi_n += np.searchsorted(primes, at, side="right")
        containing += np.searchsorted(primes[_containing(primes, pat.text)], at, side="right")
    return [
        DensityReport(pattern=pat, n=n, pi_n=p, containing=c, avoiding=p - c)
        for n, p, c in zip(bounds, pi_n.tolist(), containing.tolist())
    ]


def _windows(primes: np.ndarray, length: int) -> np.ndarray:
    """Row i: the windows (p // 10**k) % 10**length of primes[i] for k
    descending (leftmost first).  Primes are below 10^9, so int32 holds
    them; with no windows (length > digits) the modulus goes unused.  Each
    window is one division by a scalar, about twice as fast as one division
    by a broadcast row of divisors, then x - x // m * m while it is in cache:
    np.remainder takes 2.2-2.7 ns an int32, those three passes about 1.1 ns
    (numpy 2.4, 2-core x86); the identity is exact for x >= 0."""
    digits = len(str(primes.max(initial=0)))
    wins = np.empty((max(digits - length + 1, 0), primes.size), dtype=np.int32)  # one row per window
    m = 10**length
    for row, k in zip(wins, range(digits - length, -1, -1)):
        np.floor_divide(primes, 10**k, out=row)
        row -= row // m * m
    return wins.T


def _containing(primes: np.ndarray, text: str) -> np.ndarray:
    """Mask of the primes whose decimal rendering contains `text`.

    With v = int(text) and l = len(text), the window of p ending k digits
    from the right equals v iff p mod 10**(k + l) - v * 10**k, read
    unsigned, is below 10**k: one floor division and one compare per shift,
    and no division at the top shift, where every p is its own remainder.
    A window equal to a nonzero-led text lies inside the prime; a zero-led
    one does iff p >= 10**(k + l), never at the top shift, and below it a
    quotient taken as at least 1 puts every smaller p out of range.  Primes
    are below 10^9, so int32 holds them and every power a shift uses.  The
    input is only read; the shifts write two scratch arrays with out=, as a
    fresh temporary per operation took 15-20% longer (numpy 2.4, 2-core x86)."""
    length, v = len(text), int(text)
    top = len(str(primes.max(initial=0))) - length  # the shift of the longest primes' leading window
    hit = np.zeros(primes.size, dtype=bool)
    r = np.empty(primes.size, dtype=np.int32)
    match = np.empty(primes.size, dtype=bool)
    for k in range(top + (text[0] != "0")):
        if k < top:
            m = 10 ** (k + length)
            np.floor_divide(primes, m, out=r)
            if text[0] == "0":
                np.maximum(r, 1, out=r)
            np.multiply(r, m, out=r)
            np.subtract(primes, r, out=r)
            r -= v * 10**k
        else:
            np.subtract(primes, v * 10**k, out=r)
        np.less(r.view(np.uint32), 10**k, out=match)
        hit |= match
    return hit


def verify_ap(result: APResult, pattern: DigitString | str) -> bool:
    """Re-check an APResult term by term: primality, containment, spacing."""
    pattern = as_digit_string(pattern)
    if result.difference <= 0 or len(result.terms) != result.length:
        return False
    for j, t in enumerate(result.terms):
        if t != result.first_term + j * result.difference:
            return False
        if not is_prime(t) or not contains(t, pattern):
            return False
    return True

