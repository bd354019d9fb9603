"""Prime generation and counting.

Bulk enumeration uses a segmented sieve of Eratosthenes over odd numbers
only; spot checks use a deterministic Miller-Rabin ladder.  Natural
logarithms throughout.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import sys
import tempfile
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
_CACHE_VERSION = 4
# magic, version, span, covered integers, CRC-32 of the table that follows:
# one little-endian CRC-32 per packed segment row, then the rows themselves
_CACHE_HEADER = struct.Struct("<4sIQQI")
_CACHE_FILENAME = "sieve.spsv"

# The odd multiples of these primes repeat every 3*5*7*11*13 odd indices, so
# marks start as a copy of one tile and only primes >= 17 are sieved.
_TILE_PRIMES = (3, 5, 7, 11, 13)


def _small_prime_tile() -> np.ndarray:
    tile = np.zeros(math.prod(_TILE_PRIMES), dtype=bool)
    for p in _TILE_PRIMES:
        tile[p // 2 :: p] = True  # odd index p // 2 holds p
    return tile


_TILE = _small_prime_tile()


@dataclass(frozen=True)
class SieveSegment:
    """One sieved block [base, base + span).

    `odd_composite[j]` marks base + 2j + 1; an odd resident > 2 up to the
    sieved limit is prime iff unmarked.  base is always a multiple of the
    span (hence even).
    """

    base: int
    span: int
    odd_composite: np.ndarray


def _check_limit(limit: int) -> None:
    if limit > SIEVE_CEILING:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds configured ceiling {SIEVE_CEILING}"
        )


def _simple_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain array sieve (for base primes)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
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
    segment is marked alone) and yields them as two views.
    """
    half = span // 2
    ps = _simple_primes(math.isqrt(limit))[len(_TILE_PRIMES) + 1 :]  # the tile covers 2..13
    squares = ps * ps
    # odd index of each base prime's next multiple, from the current base
    offsets = (squares - 1) // 2 - start // 2
    offsets = np.where(offsets < 0, offsets % ps, offsets)
    for base in range(start, limit + 1, 2 * span):
        n = span if base + span <= limit else half  # odd indices marked in this pass
        lo = base // 2
        r = lo % _TILE.size
        marks = np.tile(_TILE, (r + n) // _TILE.size + 1)[r : r + n]
        for p in _TILE_PRIMES:  # the tile marks the primes themselves
            if 0 <= p // 2 - lo < n:
                marks[p // 2 - lo] = False
        if base == 0:
            marks[0] = True  # 1 is not prime
        k = int(np.searchsorted(squares, base + 2 * n))  # primes with p*p in the pass or below
        for o, p in zip(offsets[:k].tolist(), ps[:k].tolist()):
            marks[o::p] = True
        offsets -= n
        offsets[:k] %= ps[:k]
        yield SieveSegment(base, span, marks[:half])
        if n == span:
            yield SieveSegment(base + span, span, marks[half:])


class PrimeStream:
    """Single-consumer ascending iterator over all primes in [2, limit].

    When `cache_dir` is given, sieved odd-composite marks are read from /
    written to an on-disk cache; the cache is an optimization only and a
    missing or corrupt file never changes the yielded primes.
    """

    def __init__(self, limit: int, cache_dir: str | os.PathLike | None = None):
        if limit < 2:
            raise DomainError("prime stream needs limit >= 2")
        _check_limit(limit)
        self.limit = limit
        self._cache_dir = os.fspath(cache_dir) if cache_dir is not None else None

    def segments(self) -> Iterator[SieveSegment]:
        if self._cache_dir is None:
            yield from _sieve_segments(self.limit)
            return
        rows = _read_cache(self._cache_dir, self.limit)
        need = self.limit // SEGMENT_SPAN + 1
        if len(rows) < need:
            # sieve only the missing segments, each exact to its end, which a
            # larger limit may read
            more = _sieve_segments(need * SEGMENT_SPAN - 1, start=len(rows) * SEGMENT_SPAN)
            rows = _write_cache(self._cache_dir, rows, more)
        for i in range(need):
            yield SieveSegment(i * SEGMENT_SPAN, SEGMENT_SPAN, np.unpackbits(rows[i]).view(bool))

    def arrays(self) -> Iterator[np.ndarray]:
        """The primes <= limit as one ascending int64 array per segment, 2
        leading the first; the last array may be empty."""
        for seg in self.segments():
            primes = seg.base + 1 + 2 * np.flatnonzero(~seg.odd_composite)
            if seg.base == 0:
                primes = np.concatenate(([2], primes))
            yield primes[primes <= self.limit]

    def __iter__(self) -> Iterator[int]:
        for primes in self.arrays():
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
    _check_limit(limit)
    mask = np.zeros(limit + 1, dtype=bool)
    if limit >= 2:
        for primes in PrimeStream(limit).arrays():
            mask[primes] = True
    return mask


def prime_count(x: int, cache_dir: str | os.PathLike | None = None) -> int:
    """Exact pi(x): the number of primes not exceeding x."""
    if x < 1:
        raise DomainError("prime_count needs x >= 1")
    _check_limit(x)
    if x < 2:
        return 0
    count = 1  # the prime 2
    for seg in PrimeStream(x, cache_dir=cache_dir).segments():
        if seg.base + seg.span <= x:
            count += int(np.count_nonzero(~seg.odd_composite))
        else:
            j_max = (x - seg.base - 1) // 2  # last odd index <= x
            if j_max >= 0:
                count += int(np.count_nonzero(~seg.odd_composite[: j_max + 1]))
            break
    return count


def rosser_lower(x: float) -> float:
    """x / log x, a strict lower bound for pi(x) valid for x >= 17."""
    if x < 17:
        raise DomainError("the pi(x) > x/log x estimate requires x >= 17")
    return x / math.log(x)


# Deterministic Miller-Rabin witness ladder.  Each entry (bound, bases)
# certifies every n < bound; the final row covers well beyond 2^64.
_MR_LADDER: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)
_MR_CERTIFIED_BELOW = _MR_LADDER[-1][0]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality verdict, deterministic for all n below ~3.18e23
    (in particular the full 64-bit range)."""
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
    for bound, bases in _MR_LADDER:
        if n < bound:
            break
    for a in bases:
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


def _cache_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, _CACHE_FILENAME)


def _read_cache(cache_dir: str, limit: int) -> list[np.ndarray]:
    """The checked packed rows, one per segment, that the file holds towards
    [0, limit]: the ceil((limit + 1) / span) rows a request needs, or every
    row when the file is shorter.  Empty if the file is missing or unusable.

    A bad header, file size or table CRC-32 marks the whole file corrupt: it
    is ignored with a warning and the range is recomputed.  A row read with a
    bad CRC-32 is warned about too, and the checked rows before it are kept.
    Rows a request does not need are never read.
    """
    path = _cache_path(cache_dir)
    width = SEGMENT_SPAN // 16  # bytes per packed row
    try:
        with open(path, "rb") as fh:
            header = fh.read(_CACHE_HEADER.size)
            if len(header) < _CACHE_HEADER.size:
                raise ValueError("truncated header")
            magic, version, span, covered, crc = _CACHE_HEADER.unpack(header)
            if magic != _CACHE_MAGIC:
                raise ValueError("bad magic")
            if version != _CACHE_VERSION:
                raise ValueError(f"unsupported version {version}")
            if span != SEGMENT_SPAN or covered % span:
                raise ValueError("inconsistent header geometry")
            total = covered // span
            if os.fstat(fh.fileno()).st_size != _CACHE_HEADER.size + total * (4 + width):
                raise ValueError("wrong file size")
            table = fh.read(4 * total)
            if zlib.crc32(table) != crc:
                raise ValueError("segment table checksum mismatch")
            count = min(total, limit // span + 1)
            # a short read fails the reshape
            rows = list(np.frombuffer(fh.read(count * width), dtype=np.uint8).reshape(count, width))
    except FileNotFoundError:
        return []
    except (OSError, ValueError) as exc:
        print(f"stringprime: ignoring corrupt sieve cache {path}: {exc}", file=sys.stderr)
        return []
    for i, (row, (row_crc,)) in enumerate(zip(rows, struct.iter_unpack("<I", table))):
        if zlib.crc32(row) != row_crc:
            print(f"stringprime: corrupt sieve cache {path}: segment {i} checksum mismatch", file=sys.stderr)
            return rows[:i]
    return rows


def _write_cache(cache_dir: str, rows: list[np.ndarray], segments: Iterator[SieveSegment]) -> list[np.ndarray]:
    """Pack the segments after the given rows, persist them all atomically
    and return the packed rows; a failed write is a warning, never an error."""
    rows = rows + [np.packbits(seg.odd_composite) for seg in segments]
    table = struct.pack(f"<{len(rows)}I", *(zlib.crc32(row) for row in rows))
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".spsv-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_CACHE_HEADER.pack(
                    _CACHE_MAGIC, _CACHE_VERSION, SEGMENT_SPAN, len(rows) * SEGMENT_SPAN, zlib.crc32(table)
                ))
                fh.write(table)
                fh.writelines(rows)
            os.replace(tmp, _cache_path(cache_dir))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)  # no partial file is left behind
            raise
    except OSError as exc:
        print(f"stringprime: could not write sieve cache in {cache_dir}: {exc}", file=sys.stderr)
    return rows
