"""Runnable experiments: least containing prime, coverage thresholds,
prime arithmetic progressions, and relative densities.

All scans stream primes ascending from the segmented sieve, so results are
deterministic for a given limit.
"""

from __future__ import annotations

import csv
import itertools
import os
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass

import numpy as np

from .digits import DigitString, as_digit_string, parse_digit_string
from .errors import DomainError
from .primes import is_prime, primes_up_to


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
    for primes in primes_up_to(limit, cache_dir=cache_dir).arrays():
        hits = primes[_containing(primes, text)]
        if hits.size:
            return int(hits[0])
    return None


def coverage_threshold(
    length: int,
    limit: int,
    cache_dir: str | os.PathLike | None = None,
    threads: int = 1,
) -> CoverageResult | None:
    """Scan primes ascending until every length-`length` string with a
    nonzero leading digit has appeared inside one; None if the limit is
    exhausted first.

    Windows inside a prime may start with 0, but only nonzero-led windows
    count toward the universe of 9 * 10^(length-1) strings.  Strings are
    marked in ascending-prime order, left to right within each prime, so the
    result (including which string completed coverage) is deterministic.
    """
    if not 1 <= length <= 6:
        raise DomainError("coverage is desk-scale only: 1 <= length <= 6")
    _check_threads(threads)
    lo = 10 ** (length - 1)
    first = np.zeros(10 * lo, dtype=np.int32)  # first[v]: least prime containing v
    for primes in primes_up_to(limit, cache_dir=cache_dir).arrays():
        wins = _windows(primes, length)
        # uncovered nonzero-led windows (these lie inside their prime) in
        # scan order: ascending prime, then left to right
        rows, cols = np.nonzero((wins >= lo) & (first[wins] == 0))
        vals, at = np.unique(wins[rows, cols], return_index=True)
        first[vals] = primes[rows[at]]
        if first[lo:].all():
            return CoverageResult(
                length=length,
                universe_size=9 * lo,
                m=int(first.max()),
                last_string=parse_digit_string(str(vals[at.argmax()])),
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

    Searches ascending first term, then ascending difference, over the
    filtered list of containing primes; the first hit is returned, with no
    minimality claim beyond that ordering.
    """
    if k < 3:
        raise DomainError("progression length k must be >= 3")
    if k > 6:
        raise DomainError("desk-scale search supports k <= 6")
    text = as_digit_string(pattern).text
    stream = primes_up_to(limit, cache_dir=cache_dir).arrays()
    candidates = np.concatenate([a[_containing(a, text)] for a in stream]).tolist()
    member = set(candidates)
    for i, a in enumerate(candidates):
        max_d = (limit - a) // (k - 1)
        if max_d < 1:
            break
        for b in candidates[i + 1 :]:
            d = b - a
            if d > max_d:
                break
            if all(a + j * d in member for j in range(2, k)):
                terms = tuple(a + j * d for j in range(k))
                return APResult(first_term=a, difference=d, length=k, terms=terms)
    return None


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
    threads: int = 1,
) -> list[DensityReport]:
    """One DensityReport per bound 10^e, all from a single sieve pass."""
    _check_threads(threads)
    if not exponents:
        return []
    if min(exponents) < 0:
        raise DomainError("exponents must be non-negative")
    bounds = [10**e for e in sorted(set(exponents))]
    return _density_scan(as_digit_string(pattern), bounds, cache_dir)


def _density_scan(pat: DigitString, bounds: list[int], cache_dir) -> list[DensityReport]:
    if min(bounds) < 1:
        raise DomainError("bounds must be >= 1")
    bounds = sorted(set(bounds))
    pi_n, containing = np.zeros((2, len(bounds)), dtype=np.int64)
    for primes in primes_up_to(max(bounds[-1], 2), cache_dir=cache_dir).arrays():
        pi_n += np.searchsorted(primes, bounds, side="right")
        containing += np.searchsorted(primes[_containing(primes, pat.text)], bounds, side="right")
    return [
        DensityReport(pattern=pat, n=n, pi_n=p, containing=c, avoiding=p - c)
        for n, p, c in zip(bounds, pi_n.tolist(), containing.tolist())
    ]


def _windows(primes: np.ndarray, length: int) -> np.ndarray:
    """Row i: the windows (p // 10**k) % 10**length of primes[i] for k
    descending (leftmost first).  Primes are below 10^9, so int32 holds
    them; with no windows (length > digits) the modulus goes unused and is
    kept small."""
    digits = len(str(primes.max(initial=0)))
    shifted = primes.astype(np.int32)[:, None] // 10 ** np.arange(digits - length, -1, -1, dtype=np.int32)
    return shifted % 10 ** min(length, digits)


def _containing(primes: np.ndarray, text: str) -> np.ndarray:
    """Mask of the primes whose decimal rendering contains `text`: the low
    len(text) digits of each prime, shifted right one digit at a time, counted
    only while the window lies inside the prime.  Primes are below 10^9, so
    int32 holds them; a text longer than every prime makes no shift."""
    length = len(text)
    hit = np.zeros(primes.size, dtype=bool)
    p = primes.astype(np.int32)
    for _ in range(len(str(primes.max(initial=0))) - length + 1):
        hit |= (p >= 10 ** (length - 1)) & (p % 10**length == int(text))
        p //= 10
    return hit


def verify_ap(result: APResult, pattern: DigitString | str) -> bool:
    """Re-check an APResult term by term: primality, containment, spacing."""
    text = as_digit_string(pattern).text
    if result.difference <= 0 or len(result.terms) != result.length:
        return False
    for j, t in enumerate(result.terms):
        if t != result.first_term + j * result.difference:
            return False
        if not is_prime(t) or text not in str(t):
            return False
    return True


def _check_threads(threads: int) -> None:
    """`threads` caps worker parallelism; the scans run on one worker at
    desk scale, so any positive cap yields identical output."""
    if threads < 1:
        raise DomainError("threads must be >= 1")
