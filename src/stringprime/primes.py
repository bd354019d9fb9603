"""Prime generation and counting.

Bulk enumeration uses a segmented sieve of Eratosthenes over odd numbers
only; an uncached pi(x) uses the Legendre recurrence, which sieves nothing;
spot checks use Miller-Rabin with a fixed witness set.  Natural logarithms
throughout.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import struct
import sys
import tempfile
import threading
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, ResourceLimitError

# Integers per segment; power of two so odd marks fit caches comfortably.
SEGMENT_SPAN = 1 << 20
# Desk-scale ceiling for sieved ranges.
SIEVE_CEILING = 10**9

_CACHE_MAGIC = b"SPSV"
_CACHE_VERSION = 5
# magic, version, span, covered integers; then one record per segment: its
# packed row, then the row's little-endian CRC-32
_CACHE_HEADER = struct.Struct("<4sIQQ")
_CACHE_RECORD = SEGMENT_SPAN // 16 + 4
_CACHE_FILENAME = "sieve.spsv"

# The odd multiples of these primes repeat every T = 3*5*7*11*13 odd indices,
# so marks start as a copy of that tile and only primes >= 17 are sieved.
_TILE_PRIMES = (3, 5, 7, 11, 13)
_TILE_PERIOD = math.prod(_TILE_PRIMES)
# The tile, long enough for one pass from any phase of its second period; its
# first period holds the true marks of 1, 3, ..., 2T - 1 (1 marked, 3..13 not).
_TILE_RUN = np.zeros(2 * _TILE_PERIOD + SEGMENT_SPAN, dtype=bool)
_TILE_RUN[0] = True
for _p in _TILE_PRIMES:
    _TILE_RUN[_p // 2 + _p :: _p] = True  # odd index p // 2 + p holds 3p


@dataclass(frozen=True)
class SieveSegment:
    """One sieved block [base, base + span).

    `packed` is np.packbits of the block's odd-composite marks, the form the
    sieve yields and the cache stores.  `odd_composite` unpacks it:
    `odd_composite[j]` marks base + 2j + 1; an odd resident > 2 up to the
    sieved limit is prime iff unmarked.  base is always a multiple of the
    span (hence even).
    """

    base: int
    span: int
    packed: np.ndarray

    @property
    def odd_composite(self) -> np.ndarray:
        return np.unpackbits(self.packed, count=self.span // 2).view(bool)


def _check_limit(limit: int) -> None:
    if limit > SIEVE_CEILING:
        # str() refuses ints longer than sys.get_int_max_str_digits() (4300
        # by default, never below 640), so a limit past 2048 bits (617
        # digits) is named by its size
        shown = limit if limit.bit_length() <= 2048 else f"of {limit.bit_length()} bits"
        raise ResourceLimitError(f"sieve limit {shown} exceeds configured ceiling {SIEVE_CEILING}")


def _simple_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain array sieve (for base primes)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _sieve_segments(limit: int, span: int = SEGMENT_SPAN, start: int = 0) -> Iterator[SieveSegment]:
    """Yield aligned segments covering [start, limit] in ascending order; the
    marks are exact up to limit.  start must be a multiple of span.

    Each pass over the base primes marks two segments at once (a lone last
    segment is marked alone) in one buffer, copied from _TILE_RUN at the
    pass's phase, and yields each half packed; span must be <= SEGMENT_SPAN.
    """
    half = span // 2
    buf = np.empty(span, dtype=bool)
    ps = _simple_primes(math.isqrt(limit))[len(_TILE_PRIMES) + 1 :]  # the tile covers 2..13
    squares = ps * ps
    # odd index of each base prime's next multiple, from the current base
    offsets = (squares - 1) // 2 - start // 2
    offsets = np.where(offsets < 0, offsets % ps, offsets)
    for base in range(start, limit + 1, 2 * span):
        n = span if base + span <= limit else half  # odd indices marked in this pass
        lo = base // 2
        r = min(lo, _TILE_PERIOD + lo % _TILE_PERIOD)  # past the first period, read the second
        marks = buf[:n]
        marks[:] = _TILE_RUN[r : r + n]
        k = int(np.searchsorted(squares, base + 2 * n))  # primes with p*p in the pass or below
        for o, p in zip(offsets[:k].tolist(), ps[:k].tolist()):
            marks[o::p] = True
        offsets -= n
        offsets[:k] %= ps[:k]
        yield SieveSegment(base, span, np.packbits(marks[:half]))
        if n == span:
            yield SieveSegment(base + span, span, np.packbits(marks[half:]))


def _primes_of(seg: SieveSegment) -> np.ndarray:
    """The primes of seg, ascending int32, 2 leading segment 0; exact up to the limit seg was sieved to."""
    # flatnonzero is several times slower on uint8 than on bool
    odd = np.flatnonzero(np.unpackbits(~seg.packed, count=seg.span // 2).view(bool))
    primes = np.multiply(odd, 2, dtype=np.int32)
    primes += seg.base + 1  # below SIEVE_CEILING, so int32 holds every prime
    if seg.base == 0:
        primes = np.concatenate(([2], primes), dtype=np.int32)
    return primes


# Every stream, cached or not, takes the primes below 2^24 from a block kept
# for the process: Table 1 (M(5) < 10^7) and the scans to 10^7 stream them again and again.
# Row i, the primes of segment i sieved exact to its end, is _kept[_kept_ends[i] : _kept_ends[i + 1]].
_KEPT_BELOW = 1 << 24
_kept = np.empty(1_077_871, dtype=np.int32)  # pi(2^24 - 1); np.empty touches no page before its row fills
_kept_ends = [0]  # a row's end is appended only after its primes are written
_kept_lock = threading.Lock()


def _kept_primes(i: int) -> np.ndarray:
    """Row i of the kept block, sieved first if it is not yet kept."""
    if i + 1 >= len(_kept_ends):
        with _kept_lock:  # a row another stream kept meanwhile is not sieved again
            for seg in _sieve_segments((i + 1) * SEGMENT_SPAN - 1, start=(len(_kept_ends) - 1) * SEGMENT_SPAN):
                primes, end = _primes_of(seg), _kept_ends[-1]
                _kept[end : end + primes.size] = primes
                _kept_ends.append(end + primes.size)
    return _kept[_kept_ends[i] : _kept_ends[i + 1]]


class PrimeStream:
    """Single-consumer ascending iterator over all primes in [2, limit].

    The primes below 2^24 come from a block kept for the process and shared
    by every thread.  The scans read them in place, as read-only int32 views
    (`_rows()`); `arrays()` hands out int64 copies.  Past that block, and in
    all of `segments()`, the marks come from an on-disk cache in `cache_dir`
    if one is given and not empty, else from the sieve; the cache is an
    optimization only and a missing or corrupt file never changes the
    yielded primes.
    Cached rows are yielded as they are checked or sieved; a new file replaces
    the old one only once the stream has written its last needed row and runs
    to its end, so a stream closed early keeps no rows and a repeat sieves them.
    """

    def __init__(self, limit: int, cache_dir: str | os.PathLike | None = None):
        limit = operator.index(limit)
        if limit < 2:
            raise DomainError("prime stream needs limit >= 2")
        _check_limit(limit)
        self.limit = limit
        self._cache_dir = os.fspath(cache_dir) if cache_dir else None

    def segments(self) -> Iterator[SieveSegment]:
        return self._segments_from(0)

    def _segments_from(self, start: int) -> Iterator[SieveSegment]:
        rows = _cached_rows(self._cache_dir, self.limit // SEGMENT_SPAN + 1) if self._cache_dir else ()
        for row in itertools.islice(rows, start // SEGMENT_SPAN, None):  # rows before start: checked or sieved, not yielded
            yield SieveSegment(start, SEGMENT_SPAN, row)
            start += SEGMENT_SPAN  # the first segment the cache did not give
        if start <= self.limit:
            yield from _sieve_segments(self.limit, start=start)

    def arrays(self) -> Iterator[np.ndarray]:
        """The primes <= limit as one ascending int64 array per segment, 2
        leading the first; the last array may be empty.  Each is a copy of
        its own, which the caller may write to."""
        return (primes.astype(np.int64) for primes in self._rows())

    def _rows(self) -> Iterator[np.ndarray]:
        """The arrays of `arrays()` as read-only int32, with no copy below
        2^24: each row there is a view of the kept block, and the last row a
        slice of its segment's primes.  The scans only read rows, so they
        read these: the int64 copies of `arrays()` to 10^7 take about 1.7 ms
        a stream, these views under 0.02 ms (numpy 2.4, 2-core x86)."""
        last = self.limit // SEGMENT_SPAN  # the only segment that reaches past the limit
        kept = min(last + 1, _KEPT_BELOW // SEGMENT_SPAN)
        segs = self._segments_from(kept * SEGMENT_SPAN) if kept <= last else ()
        for i, primes in enumerate(itertools.chain(map(_kept_primes, range(kept)), map(_primes_of, segs))):
            if i == last:  # an int32 bound: a Python int would make searchsorted widen the row
                primes = primes[: np.searchsorted(primes, np.int32(self.limit), "right")]
            primes.flags.writeable = False  # a view of its own or a fresh array: the block stays writable
            yield primes

    def __iter__(self) -> Iterator[int]:
        for primes in self._rows():
            yield from primes.tolist()


def primes_up_to(limit: int, cache_dir: str | os.PathLike | None = None) -> PrimeStream:
    """Ascending stream of every prime in [2, limit]."""
    return PrimeStream(limit, cache_dir=cache_dir)


def prime_mask(limit: int) -> np.ndarray:
    """Boolean array m of length limit + 1 with m[n] iff n is prime.

    Convenient for bulk counting; memory is one byte per integer, so keep
    limit at desk scale (<= ~10^8).
    """
    if limit < 0:
        raise DomainError("limit must be non-negative")
    stream = PrimeStream(limit)._rows() if limit >= 2 else ()
    mask = np.zeros(limit + 1, dtype=bool)
    for primes in stream:
        mask[primes] = True
    return mask


def prime_count(x: int, cache_dir: str | os.PathLike | None = None) -> int:
    """Exact pi(x): the number of primes not exceeding x.

    Without a cache directory it is counted by the Legendre recurrence and
    sieves nothing; with one, the sieve cache is read, grown if need be, and
    its marks are counted."""
    x = operator.index(x)  # a numpy x would make the count a numpy integer
    if x < 1:
        raise DomainError("prime_count needs x >= 1")
    if x < 2:
        return 0
    if not cache_dir:
        _check_limit(x)
        return _legendre_count(x)
    count = 1  # the prime 2
    for seg in PrimeStream(x, cache_dir=cache_dir).segments():
        odds = min(seg.span, x + 1 - seg.base) // 2  # odd residents <= x
        whole, rest = divmod(odds, 8)  # bytes of marks, then bits of the next
        tail = np.unpackbits(seg.packed[whole : whole + 1], count=rest)
        count += odds - int(np.bitwise_count(seg.packed[:whole]).sum()) - int(tail.sum())
    return count


def _legendre_count(x: int) -> int:
    """pi(x) for x >= 2 by the Legendre-Meissel recurrence, in Lucy_Hedgehog's
    O(x^(3/4)) form of Lagarias, Miller and Odlyzko (Math. Comp. 44, 1985).

    S(v) counts the n in [2, v] that are prime or that no prime already
    processed divides; it is kept for the v = x // i in `large[i]`
    (i <= sqrt(x)) and for every v <= sqrt(x) in `small[v]`.  Each prime
    p <= sqrt(x) strikes its multiples: S(v) -= S(v // p) - S(p - 1) for
    every v >= p*p.  Each right-hand side is read whole before it is
    written, so it holds S from before p, and at the end S(x) = pi(x).
    """
    r = math.isqrt(x)
    quotients = x // np.arange(1, r + 1)  # x // i for i = 1..r
    large = np.concatenate(([0], quotients - 1))  # S(v) = v - 1 before any p; large[0] unused
    small = np.arange(-1, r, dtype=np.int64)
    for j, p in enumerate(_simple_primes(r).tolist()):  # j = S(p - 1) = pi(p - 1)
        n = min(r, x // (p * p))  # the i with x // i >= p*p
        k = min(n, r // p)  # x // (i*p) is in large for i <= k, in small past it
        large[1 : n + 1] -= np.concatenate((large[p : k * p + 1 : p], small[quotients[k:n] // p])) - j
        if p * p <= r:
            small[p * p :] -= small[np.arange(p * p, r + 1) // p] - j
    return int(large[1])


def rosser_lower(x: float) -> float:
    """x / log x, a strict lower bound for pi(x) valid for x >= 17."""
    if x < 17:
        raise DomainError("the pi(x) > x/log x estimate requires x >= 17")
    return x / math.log(x)


# Miller-Rabin with these twelve witnesses certifies every n below
# _MR_CERTIFIED_BELOW (Sorenson and Webster, 2015), well beyond 2^64.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_CERTIFIED_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Exact primality verdict, deterministic for all n below ~3.18e23
    (in particular the full 64-bit range)."""
    n = operator.index(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MR_CERTIFIED_BELOW:
        raise DomainError(f"deterministic witness set certified only below {_MR_CERTIFIED_BELOW}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --- sieve segment cache (optional, "SPSV" files) ---------------------------


def _record(fh) -> np.ndarray | None:
    """The packed row of the next record in fh, or None if the record is short
    or fails its CRC-32."""
    record = fh.read(_CACHE_RECORD)
    if len(record) < _CACHE_RECORD or zlib.crc32(memoryview(record)[:-4]) != int.from_bytes(record[-4:], "little"):
        return None
    return np.frombuffer(record, dtype=np.uint8, count=_CACHE_RECORD - 4)


def _cached_rows(cache_dir: str, need: int) -> Iterator[np.ndarray]:
    """The first `need` packed rows of the cache in cache_dir, in one pass:
    each is yielded as soon as its record is checked or sieved, and a failed
    check or write (a warning) ends them, so the caller sieves the rest.

    Records past the needed ones are never read.  From the first missing or
    damaged needed record on, a new file gets the checked records copied byte
    for byte, then each sieved record, and replaces the old one once the rows
    are read to their end; a stream closed early leaves the old file as it was.
    """
    path = os.path.join(cache_dir, _CACHE_FILENAME)
    good = 0  # leading needed records that passed their check, all yielded
    try:
        with open(path, "rb") as fh:
            header = fh.read(_CACHE_HEADER.size)
            if len(header) < _CACHE_HEADER.size:
                raise ValueError("truncated header")
            magic, version, span, covered = _CACHE_HEADER.unpack(header)
            if magic != _CACHE_MAGIC:
                raise ValueError("bad magic")
            if version != _CACHE_VERSION:
                raise ValueError(f"unsupported version {version}")
            if span != SEGMENT_SPAN or covered % span:
                raise ValueError("inconsistent header geometry")
            if os.fstat(fh.fileno()).st_size != _CACHE_HEADER.size + covered // span * _CACHE_RECORD:
                raise ValueError("wrong file size")
            while good < min(covered // span, need):
                if (row := _record(fh)) is None:
                    raise ValueError(f"segment {good} checksum mismatch")
                yield row
                good += 1
    except FileNotFoundError:
        pass
    except OSError as exc:
        print(f"stringprime: cannot read sieve cache {path}: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"stringprime: corrupt sieve cache {path}: {exc}", file=sys.stderr)
    if good == need:
        return
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".spsv-")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(_CACHE_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, SEGMENT_SPAN, need * SEGMENT_SPAN))
                if good:
                    with open(path, "rb") as fh:
                        fh.seek(_CACHE_HEADER.size)
                        for _ in range(good):
                            out.write(fh.read(_CACHE_RECORD))
                # sieved exact to each segment's end, which a larger limit may read
                for seg in _sieve_segments(need * SEGMENT_SPAN - 1, start=good * SEGMENT_SPAN):
                    out.write(seg.packed)
                    out.write(zlib.crc32(seg.packed).to_bytes(4, "little"))
                    yield seg.packed
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)  # no partial file is left behind
            raise
    except OSError as exc:
        print(f"stringprime: could not write sieve cache in {cache_dir}: {exc}", file=sys.stderr)
