from __future__ import annotations

import errno
import math
import os
import random
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from stringprime import primes
from stringprime.errors import DomainError, ResourceLimitError
from stringprime.primes import (
    _CACHE_HEADER,
    _CACHE_MAGIC,
    _CACHE_VERSION,
    _KEPT_BELOW,
    SEGMENT_SPAN,
    SIEVE_CEILING,
    PrimeStream,
    _sieve_segments,
    _simple_primes,
    is_prime,
    prime_count,
    prime_mask,
    primes_up_to,
    rosser_lower,
)


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def plain_sieve(limit: int) -> np.ndarray:
    """Independent full-array sieve used as an oracle for large ranges."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def test_primes_up_to_examples():
    assert list(primes_up_to(10)) == [2, 3, 5, 7]
    assert list(primes_up_to(2)) == [2]
    ps = list(primes_up_to(30))
    assert len(ps) == 10 and ps[-1] == 29
    assert ps == trial_division_primes(30)


def test_stream_matches_trial_division():
    limit = 100_000
    assert list(primes_up_to(limit)) == trial_division_primes(limit)


def test_segment_span_does_not_change_primes():
    limit = 300_000
    per_span = []
    for span in (1 << 14, 1 << 17, 1 << 20):
        primes = [2]
        for seg in _sieve_segments(limit, span=span):
            odds = seg.base + 1 + 2 * np.flatnonzero(~seg.odd_composite)
            primes.extend(int(p) for p in odds[odds <= limit])
        per_span.append(primes)
    assert per_span[0] == per_span[1] == per_span[2]
    assert per_span[0] == list(primes_up_to(limit))


def test_stream_across_segments():
    # crosses segment boundaries; compare with an independent oracle
    limit = 3 * SEGMENT_SPAN + 1_021
    got = np.array(list(primes_up_to(limit)))
    expected = np.flatnonzero(plain_sieve(limit))
    assert np.array_equal(got, expected)


def test_stream_strictly_increasing_and_bounded():
    for limit in (2, 3, 97, SEGMENT_SPAN, SEGMENT_SPAN + 1, SEGMENT_SPAN + 2):
        ps = list(primes_up_to(limit))
        assert all(a < b for a, b in zip(ps, ps[1:]))
        assert ps[-1] <= limit


@pytest.mark.parametrize("limit", [2, 3, 97, SEGMENT_SPAN, SEGMENT_SPAN + 1, 2 * SEGMENT_SPAN + 7])
def test_arrays_match_oracle(limit):
    arrays = list(PrimeStream(limit).arrays())
    assert len(arrays) == limit // SEGMENT_SPAN + 1  # one array per segment
    assert all(a.dtype == np.int64 for a in arrays)
    assert arrays[0][0] == 2
    assert np.array_equal(np.concatenate(arrays), np.flatnonzero(plain_sieve(limit)))


def test_arrays_last_segment_may_be_empty():
    # 2^20 + 1 = 17 * 61681: the segment past the span holds no prime <= limit
    limit = SEGMENT_SPAN + 1
    assert list(PrimeStream(limit).arrays())[-1].size == 0
    assert list(primes_up_to(limit)) == list(primes_up_to(SEGMENT_SPAN))
    assert prime_mask(limit).sum() == prime_count(SEGMENT_SPAN)


# --- segments below 2^24, kept for the process --------------------------------


@pytest.fixture
def cold_block(monkeypatch):
    """An empty block of kept primes, with no row ends, in place of the process's own."""
    monkeypatch.setattr(primes, "_kept", np.empty_like(primes._kept))
    monkeypatch.setattr(primes, "_kept_ends", [0])


def stream_primes(limit: int, cache_dir=None) -> np.ndarray:
    arrays = list(primes_up_to(limit, cache_dir=cache_dir).arrays())
    assert len(arrays) == limit // SEGMENT_SPAN + 1  # one array per segment
    return np.concatenate(arrays)


# a stream whose last segment, the first past the kept block, holds primes <= it
PAST_THE_BOUND = _KEPT_BELOW + 5_000


def test_warm_stream_sieves_nothing_below_the_bound(monkeypatch):
    list(PrimeStream(_KEPT_BELOW - 1).arrays())

    def sieve(*args, **kwargs):
        raise AssertionError("a kept row was sieved again")

    monkeypatch.setattr(primes, "_sieve_segments", sieve)
    assert stream_primes(10**7).size == 664_579
    assert np.array_equal(stream_primes(_KEPT_BELOW - 1), np.flatnonzero(plain_sieve(_KEPT_BELOW - 1)))


def assert_arrays_match_oracle(limit: int, cache_dir=None) -> None:
    arrays = list(primes_up_to(limit, cache_dir=cache_dir).arrays())
    assert len(arrays) == limit // SEGMENT_SPAN + 1 and all(a.dtype == np.int64 for a in arrays)
    assert np.array_equal(np.concatenate(arrays), np.flatnonzero(plain_sieve(limit)))


ORACLE_LIMITS = [2, 2**20 - 1, 2**20, 2**20 + 1, 10**7, 2**24 - 1, 2**24, 2**24 + 1]


@pytest.mark.parametrize("limit", ORACLE_LIMITS)
def test_kept_rows_match_oracle(limit, cold_block):
    assert_arrays_match_oracle(limit)  # sieves the rows
    assert_arrays_match_oracle(limit)  # reads them back


@pytest.mark.parametrize("limit", ORACLE_LIMITS)
def test_cached_arrays_match_oracle(limit, tmp_path):
    assert_arrays_match_oracle(limit, tmp_path)  # writes the cache
    assert_arrays_match_oracle(limit, tmp_path)  # reads it back


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("limit", ORACLE_LIMITS)
def test_rows_are_read_only_int32_views_of_the_block(limit, cached, cold_block, tmp_path):
    cache_dir = tmp_path if cached else None
    for _ in range(2):  # the first stream sieves the kept rows, the second reads them back
        rows = list(primes_up_to(limit, cache_dir=cache_dir)._rows())
        assert len(rows) == limit // SEGMENT_SPAN + 1
        assert all(r.dtype == np.int32 and not r.flags.writeable for r in rows)
        # an empty row shares no memory with anything
        assert all(np.shares_memory(r, primes._kept) for r in rows[: _KEPT_BELOW // SEGMENT_SPAN] if r.size)
        arrays = list(primes_up_to(limit, cache_dir=cache_dir).arrays())
        assert np.array_equal(np.concatenate(rows), np.concatenate(arrays))


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("limit", ORACLE_LIMITS)
def test_writing_a_row_raises_and_changes_no_later_stream(limit, cached, cold_block, tmp_path):
    cache_dir = tmp_path if cached else None
    for r in primes_up_to(limit, cache_dir=cache_dir)._rows():
        with pytest.raises(ValueError, match="read-only"):
            r[:] = 0
    for stream in (PrimeStream(limit, cache_dir)._rows(), PrimeStream(limit, cache_dir).arrays()):
        assert np.array_equal(np.concatenate(list(stream)), np.flatnonzero(plain_sieve(limit)))


def test_warm_stream_extracts_nothing_below_the_bound(monkeypatch):
    list(PrimeStream(_KEPT_BELOW - 1).arrays())

    def extract(seg):
        raise AssertionError("a kept row was extracted again")

    monkeypatch.setattr(primes, "_primes_of", extract)
    assert stream_primes(10**7).size == 664_579


def test_writing_a_yielded_array_changes_no_later_stream():
    for limit in (SEGMENT_SPAN, 10**7):
        for a in PrimeStream(limit).arrays():
            a[:] = 0
        assert np.array_equal(stream_primes(limit), np.flatnonzero(plain_sieve(limit)))


def test_threads_share_a_cold_block(cold_block, monkeypatch):
    sieve, made = primes._sieve_segments, []

    def spy(*args, **kwargs):
        for seg in sieve(*args, **kwargs):
            made.append(seg.base)
            yield seg

    monkeypatch.setattr(primes, "_sieve_segments", spy)
    limit = 3 * 2**20
    start, got = threading.Barrier(4), [None] * 4

    def run(i):
        start.wait()
        got[i] = stream_primes(limit)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = np.flatnonzero(plain_sieve(limit))
    assert all(np.array_equal(g, expected) for g in got)
    assert sorted(made) == [k * SEGMENT_SPAN for k in range(4)]  # each row sieved once


def test_kept_primes_live_in_one_block():
    assert primes._kept.dtype == np.int32 and primes._kept.size == prime_count(_KEPT_BELOW - 1)
    first, second = primes._kept_primes(0), primes._kept_primes(1)
    assert first.base is second.base is primes._kept
    assert not np.shares_memory(first, second)


def test_stream_limit_validation():
    with pytest.raises(DomainError):
        primes_up_to(1)
    with pytest.raises(DomainError):
        prime_count(0)
    with pytest.raises(DomainError):
        prime_mask(-1)
    with pytest.raises(ResourceLimitError):
        primes_up_to(SIEVE_CEILING + 1)


@pytest.mark.parametrize(
    "limit", [SIEVE_CEILING + 1, 10**5000, np.int64(2 * 10**9)], ids=["ceiling+1", "10^5000", "numpy-2e9"]
)
def test_limit_past_the_ceiling_is_a_resource_limit(limit):
    # str(10**5000) exceeds Python's int-to-str digit limit, and a numpy
    # integer has no bit_length()
    for call in (prime_count, primes_up_to, prime_mask):
        with pytest.raises(ResourceLimitError, match="exceeds configured ceiling"):
            call(limit)


def test_segments_aligned():
    segs = list(_sieve_segments(2 * SEGMENT_SPAN))
    for i, seg in enumerate(segs):
        assert seg.base == i * SEGMENT_SPAN
        assert seg.span == SEGMENT_SPAN
        assert seg.span & (seg.span - 1) == 0  # power of two
        assert seg.odd_composite.shape == (SEGMENT_SPAN // 2,)


@pytest.mark.parametrize(
    "span,count",
    [
        (8, 131), (8, 132), (10, 105), (10, 106), (24, 45), (24, 46),
        (30_030, 5), (30_032, 5),
        (SEGMENT_SPAN, 5), (SEGMENT_SPAN, 6),
    ],
)
def test_sieve_from_a_later_segment_matches_the_tail(span, count):
    # odd and even segment counts, so passes pair segments differently; the
    # small spans reach base primes >= 29 whose squares lie before `start`.
    # Spans 30030 and 30032 start passes past the tile run's first period,
    # at tile phases 0 and 1, 2, ...; with SEGMENT_SPAN the largest phase
    # below SIEVE_CEILING is a pass from segment 789 (run offset 30,012, so
    # it reads 1,078,588 of the run's 1,078,606 entries): see the next test.
    limit = count * span - 3
    full = list(_sieve_segments(limit, span=span))
    assert len(full) == count
    for k in range(count):
        tail = list(_sieve_segments(limit, span=span, start=k * span))
        assert [s.base for s in tail] == [s.base for s in full[k:]]
        for got, want in zip(tail, full[k:]):
            assert np.array_equal(got.odd_composite, want.odd_composite)


def test_sieve_pass_at_the_largest_tile_phase():
    # a pass from segment 789, as a cache grown from 789 segments sieves it,
    # against the same segments sieved from the passes at 788 and 790
    limit = 791 * SEGMENT_SPAN - 1
    got = list(_sieve_segments(limit, start=789 * SEGMENT_SPAN))
    want = list(_sieve_segments(limit, start=788 * SEGMENT_SPAN))[1:]
    assert [s.base for s in got] == [s.base for s in want] == [789 * SEGMENT_SPAN, 790 * SEGMENT_SPAN]
    for g, w in zip(got, want):
        assert np.array_equal(g.packed, w.packed)
    marks = np.concatenate([s.odd_composite for s in got])
    for j in random.Random(789).sample(range(marks.size), 2_000):
        assert marks[j] != is_prime(789 * SEGMENT_SPAN + 2 * j + 1)


def test_segment_marks_match_primality():
    seg = next(iter(_sieve_segments(SEGMENT_SPAN)))
    flags = plain_sieve(4_096)
    for j in range(2_048):
        n = 2 * j + 1
        assert (not seg.odd_composite[j]) == flags[n] or n == 1
    assert seg.odd_composite[0]  # 1 is composite-marked


@pytest.mark.parametrize("span", [8, 10, 24])
@pytest.mark.parametrize("limit", [2, 9, 10, 48, 49, 50, 120, 121, 169, 1_000, 4_097])
def test_segment_marks_exact_at_square_boundaries(limit, span):
    # odd p^2 is 1 mod 8 and, for p >= 5, 1 mod 24: with these spans base
    # primes start exactly at a segment's first or last odd resident
    segs = list(_sieve_segments(limit, span=span))
    assert [s.base for s in segs] == list(range(0, limit + 1, span))
    odds = (limit + 1) // 2  # odd residents <= limit
    composite = np.ones(odds, dtype=bool)
    composite[(_simple_primes(limit)[1:] - 1) // 2] = False
    assert np.array_equal(np.concatenate([s.odd_composite for s in segs])[:odds], composite)


def test_prime_count_examples():
    assert prime_count(10) == 4
    assert prime_count(100) == 25
    assert prime_count(17) == 7
    assert prime_count(1) == 0


def test_prime_count_matches_oracle():
    limit = SEGMENT_SPAN + 10
    flags = plain_sieve(limit)
    counts = np.cumsum(flags)
    rng = random.Random(5)
    xs = [2, 3, 4, SEGMENT_SPAN - 1, SEGMENT_SPAN, SEGMENT_SPAN + 1]
    xs += [rng.randint(1, limit) for _ in range(25)]
    for x in xs:
        assert prime_count(x) == int(counts[x])


def test_prime_mask_matches_oracle():
    limit = 50_000
    assert np.array_equal(prime_mask(limit), plain_sieve(limit))


def test_is_prime_small():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(199)
    assert is_prime(9_810_001)  # agrees with trial division
    assert all(9_810_001 % d for d in range(2, math.isqrt(9_810_001) + 1))


def test_is_prime_exhaustive_against_sieve():
    limit = 10**6
    mask = prime_mask(limit)
    for n in range(limit + 1):
        assert is_prime(n) == bool(mask[n]), n


def test_is_prime_sampled_to_1e7():
    mask = prime_mask(10**7)
    rng = random.Random(99)
    samples = [rng.randint(10**6, 10**7) for _ in range(20_000)]
    samples += list(range(10**7 - 200, 10**7 + 1))
    for n in samples:
        assert is_prime(n) == bool(mask[n]), n


def test_is_prime_strong_pseudoprime_traps():
    # the least strong pseudoprimes to the first 1, 2, 3, 4, 6, 7 and 9 prime
    # bases; every n is tested against all twelve witnesses
    assert not is_prime(2_047)
    assert not is_prime(1_373_653)
    assert not is_prime(25_326_001)
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_474_749_660_383)
    assert not is_prime(341_550_071_728_321)
    assert not is_prime(3_825_123_056_546_413_051)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**64 - 1)


def test_prime_count_takes_numpy_integers():
    count = prime_count(np.int64(10**6))
    assert (type(count), count) == (int, 78_498)
    for x in (1.5, 1000.0):
        with pytest.raises(TypeError):
            prime_count(x)


def test_is_prime_takes_numpy_integers():
    primes = next(primes_up_to(1_000).arrays())
    assert [is_prime(n) for n in np.arange(38, 1_001)] == [n in primes for n in range(38, 1_001)]
    assert is_prime(np.int64(2**61 - 1))
    assert not is_prime(np.uint64(2**64 - 1))
    for n in (2.0, 41.0):
        with pytest.raises(TypeError):
            is_prime(n)


def test_is_prime_beyond_certified_range():
    # numbers with a small factor still get a correct verdict up there
    assert not is_prime(10**30)
    # but the Miller-Rabin path refuses to go beyond its certified bound
    n = 10**30 + 1
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    while any(n % p == 0 for p in small):
        n += 2
    with pytest.raises(DomainError):
        is_prime(n)


def test_rosser_lower_values():
    assert rosser_lower(17) == pytest.approx(17 / math.log(17), rel=1e-15)
    assert rosser_lower(17) == pytest.approx(6.0003, abs=5e-4)
    assert rosser_lower(100) == pytest.approx(100 / math.log(100), rel=1e-15)
    assert rosser_lower(100) == pytest.approx(21.715, abs=5e-4)


def test_rosser_lower_domain():
    with pytest.raises(DomainError):
        rosser_lower(16.999)
    with pytest.raises(DomainError):
        rosser_lower(math.e**2)  # e^2 < 17


def test_rosser_inequality_holds_on_range():
    mask = prime_mask(100_000)
    counts = np.cumsum(mask)
    xs = np.arange(17, 100_001)
    assert np.all(counts[xs] > xs / np.log(xs))


def segment_primes(limit: int, cache_dir) -> list[int]:
    """The primes <= limit from PrimeStream.segments(), which reads the
    cache file from segment 0, below 2^24 too."""
    found = np.concatenate([primes._primes_of(s) for s in PrimeStream(limit, cache_dir=cache_dir).segments()])
    return found[found <= limit].tolist()


def test_cache_roundtrip(tmp_path):
    # past 2^24, the one stream whose arrays() reads the file
    limit = PAST_THE_BOUND
    expected = stream_primes(limit)
    first = stream_primes(limit, tmp_path)
    assert np.array_equal(first, expected)
    assert (tmp_path / "sieve.spsv").exists()
    again = stream_primes(limit, tmp_path)
    assert np.array_equal(again, expected)
    # a shorter request slices the same cache
    small = segment_primes(1_000, tmp_path)
    assert small == expected[expected <= 1_000].tolist()


def test_cache_corruption_is_ignored(tmp_path, capsys):
    segment_primes(10_000, tmp_path)
    path = tmp_path / "sieve.spsv"
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    got = segment_primes(10_000, tmp_path)
    assert got == trial_division_primes(10_000)
    assert "corrupt" in capsys.readouterr().err
    # the bad file was replaced by a fresh one
    assert path.read_bytes()[:4] == b"SPSV"


def test_cache_truncation_is_ignored(tmp_path, capsys):
    segment_primes(10_000, tmp_path)
    path = tmp_path / "sieve.spsv"
    path.write_bytes(path.read_bytes()[:10])
    got = segment_primes(10_000, tmp_path)
    assert got == trial_division_primes(10_000)
    assert "corrupt" in capsys.readouterr().err


def test_cache_payload_damage_is_detected(tmp_path, capsys):
    assert prime_count(10**6, cache_dir=tmp_path) == 78_498
    path = tmp_path / "sieve.spsv"
    data = bytearray(path.read_bytes())
    data[_CACHE_HEADER.size + 1_000] ^= 0xFF
    path.write_bytes(bytes(data))
    assert prime_count(10**6, cache_dir=tmp_path) == 78_498
    assert "corrupt" in capsys.readouterr().err
    # the damaged file was rewritten and now reads back cleanly
    assert prime_count(10**6, cache_dir=tmp_path) == 78_498
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("resize", [lambda data: data + b"\0", lambda data: data[:-1]], ids=["longer", "shorter"])
def test_cache_of_the_wrong_size_is_rewritten(tmp_path, capsys, resize):
    limit = PAST_THE_BOUND
    stream_primes(limit, tmp_path)
    path = tmp_path / "sieve.spsv"
    path.write_bytes(resize(path.read_bytes()))
    got = stream_primes(limit, tmp_path)
    assert "wrong file size" in capsys.readouterr().err
    assert np.array_equal(got, np.flatnonzero(plain_sieve(limit)))
    assert path.read_bytes() == packed_oracle(limit)


def packed_oracle(limit: int) -> bytes:
    """A version 5 cache file covering [0, limit] in whole segments: the
    header, then each packed row followed by its little-endian CRC-32."""
    covered = (limit // SEGMENT_SPAN + 1) * SEGMENT_SPAN
    payload = np.packbits(~plain_sieve(covered - 1)[1::2]).tobytes()
    width = SEGMENT_SPAN // 16
    rows = [payload[i : i + width] for i in range(0, len(payload), width)]
    records = b"".join(row + zlib.crc32(row).to_bytes(4, "little") for row in rows)
    return _CACHE_HEADER.pack(_CACHE_MAGIC, 5, SEGMENT_SPAN, covered) + records


def damage(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def row_offset(i: int) -> int:
    """File offset of packed row i; its CRC-32 follows the row."""
    return _CACHE_HEADER.size + i * (SEGMENT_SPAN // 16 + 4)


@pytest.mark.parametrize("limit", [1_000, SEGMENT_SPAN + 1, 3 * SEGMENT_SPAN + 7])
def test_cache_file_matches_packed_oracle(tmp_path, limit):
    # a stream read to its end leaves the whole file
    list(PrimeStream(limit, cache_dir=tmp_path).segments())
    assert (tmp_path / "sieve.spsv").read_bytes() == packed_oracle(limit)


def test_cache_reads_each_needed_record_once(tmp_path, monkeypatch, capsys):
    limit, grown = 3 * SEGMENT_SPAN + 7, 6 * SEGMENT_SPAN + 11
    counts = np.cumsum(plain_sieve(grown))
    assert prime_count(limit, cache_dir=tmp_path) == counts[limit]
    record, offsets = primes._record, []

    def spy(fh):
        offsets.append(fh.tell())
        return record(fh)

    monkeypatch.setattr(primes, "_record", spy)
    assert prime_count(limit, cache_dir=tmp_path) == counts[limit]  # a hit
    assert offsets == [row_offset(i) for i in range(4)]
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(2) + 1_000)
    offsets.clear()
    assert prime_count(grown, cache_dir=tmp_path) == counts[grown]  # a grow past a damaged row
    assert offsets == [row_offset(i) for i in range(3)]  # row 2 fails its check; the rest are sieved
    assert "segment 2 checksum mismatch" in capsys.readouterr().err
    assert path.read_bytes() == packed_oracle(grown)


def test_cache_grow_sieves_only_the_missing_segments(tmp_path, monkeypatch):
    assert prime_count(1_000, cache_dir=tmp_path) == 168
    starts = []

    def spy(limit, span=SEGMENT_SPAN, start=0):
        starts.append(start)
        return _sieve_segments(limit, span, start)

    monkeypatch.setattr(primes, "_sieve_segments", spy)
    limit = 3 * SEGMENT_SPAN + 7
    assert prime_count(limit, cache_dir=tmp_path) == int(plain_sieve(limit).sum())
    assert starts == [SEGMENT_SPAN]
    assert (tmp_path / "sieve.spsv").read_bytes() == packed_oracle(limit)


def test_cache_damage_before_a_grow_is_detected(tmp_path, capsys):
    assert prime_count(2 * SEGMENT_SPAN + 1, cache_dir=tmp_path) == int(plain_sieve(2 * SEGMENT_SPAN + 1).sum())
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(0) + 1_000)
    limit = 3 * SEGMENT_SPAN + 7
    assert prime_count(limit, cache_dir=tmp_path) == int(plain_sieve(limit).sum())
    assert "corrupt" in capsys.readouterr().err
    assert path.read_bytes() == packed_oracle(limit)


def test_cache_row_damage_keeps_the_rows_before_it(tmp_path, monkeypatch, capsys):
    limit = 3 * SEGMENT_SPAN + 7
    assert prime_count(limit, cache_dir=tmp_path) == int(plain_sieve(limit).sum())
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(2) + 1_000)
    starts = []

    def spy(limit, span=SEGMENT_SPAN, start=0):
        starts.append(start)
        return _sieve_segments(limit, span, start)

    monkeypatch.setattr(primes, "_sieve_segments", spy)
    assert prime_count(limit, cache_dir=tmp_path) == int(plain_sieve(limit).sum())
    assert "corrupt" in capsys.readouterr().err
    assert starts == [2 * SEGMENT_SPAN]
    assert path.read_bytes() == packed_oracle(limit)


def test_cache_crc_damage_is_detected_by_a_hit_that_reads_the_row(tmp_path, capsys):
    limit = 3 * SEGMENT_SPAN + 7
    counts = np.cumsum(plain_sieve(limit))
    assert prime_count(limit, cache_dir=tmp_path) == counts[limit]
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(3) + SEGMENT_SPAN // 16)  # the last row's CRC-32
    assert prime_count(3 * SEGMENT_SPAN - 1, cache_dir=tmp_path) == counts[3 * SEGMENT_SPAN - 1]
    assert capsys.readouterr().err == ""
    assert prime_count(limit, cache_dir=tmp_path) == counts[limit]
    assert "corrupt" in capsys.readouterr().err
    assert path.read_bytes() == packed_oracle(limit)


def test_cache_damage_in_a_row_not_read_is_silent(tmp_path, capsys):
    limit = 3 * SEGMENT_SPAN + 7
    counts = np.cumsum(plain_sieve(limit))
    assert prime_count(limit, cache_dir=tmp_path) == counts[limit]
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(3) + 5)
    # a hit below the last row never reads it
    assert prime_count(3 * SEGMENT_SPAN - 1, cache_dir=tmp_path) == counts[3 * SEGMENT_SPAN - 1]
    assert capsys.readouterr().err == ""
    # a request that reads it notices
    assert prime_count(3 * SEGMENT_SPAN, cache_dir=tmp_path) == counts[3 * SEGMENT_SPAN]
    assert "corrupt" in capsys.readouterr().err
    assert path.read_bytes() == packed_oracle(limit)


def test_cache_marks_exact_past_the_writing_limit(tmp_path):
    # a cache written for 1000 covers [0, SEGMENT_SPAN); a later, larger
    # limit inside that segment reads it back
    assert prime_count(1_000, cache_dir=tmp_path) == 168
    assert prime_count(10**6, cache_dir=tmp_path) == 78_498


@pytest.mark.parametrize("limit", [2, SEGMENT_SPAN - 1, SEGMENT_SPAN, 2 * SEGMENT_SPAN + 1])
def test_cache_hit_reads_only_needed_segments(tmp_path, limit):
    list(PrimeStream(3 * SEGMENT_SPAN + 7, cache_dir=tmp_path).segments())
    before = (tmp_path / "sieve.spsv").read_bytes()
    segs = list(PrimeStream(limit, cache_dir=tmp_path).segments())
    assert len(segs) == -(-(limit + 1) // SEGMENT_SPAN)
    assert all(s.odd_composite.dtype == bool and s.odd_composite.shape == (SEGMENT_SPAN // 2,) for s in segs)
    assert (tmp_path / "sieve.spsv").read_bytes() == before  # a hit, not a rewrite
    flags = plain_sieve(len(segs) * SEGMENT_SPAN - 1)
    assert np.array_equal(np.concatenate([s.odd_composite for s in segs]), ~flags[1::2])


def test_cached_grow_holds_one_bit_per_odd(tmp_path):
    limit = 3 * 10**7
    tracemalloc.start()
    try:
        assert prime_count(limit, cache_dir=tmp_path) == 1_857_859
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit // 4


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cache_hit_holds_a_few_rows(tmp_path):
    # a hit checks and yields one record at a time, never the whole file
    assert prime_count(3 * 10**7, cache_dir=tmp_path) == 1_857_859
    assert traced_peak(lambda: prime_count(3 * 10**7, cache_dir=tmp_path)) < 500_000


def test_cache_grow_streams_its_rows(tmp_path):
    # the old rows are copied and the sieved ones appended one record at a time
    assert prime_count(10**7, cache_dir=tmp_path) == 664_579
    assert traced_peak(lambda: prime_count(3 * 10**7, cache_dir=tmp_path)) < 1_500_000
    assert (tmp_path / "sieve.spsv").read_bytes() == packed_oracle(3 * 10**7)


def test_cache_version_4_is_rewritten(tmp_path, capsys):
    # the version 4 layout: a CRC-32 per row in one table, with its own
    # CRC-32 in the header, before the rows
    row = np.packbits(~plain_sieve(SEGMENT_SPAN - 1)[1::2]).tobytes()
    table = zlib.crc32(row).to_bytes(4, "little")
    path = tmp_path / "sieve.spsv"
    header = struct.pack("<4sIQQI", _CACHE_MAGIC, 4, SEGMENT_SPAN, SEGMENT_SPAN, zlib.crc32(table))
    path.write_bytes(header + table + row)
    assert segment_primes(10_000, tmp_path) == trial_division_primes(10_000)
    assert capsys.readouterr().err.count("unsupported version 4") == 1
    assert path.read_bytes() == packed_oracle(10_000)
    assert prime_count(10_000, cache_dir=tmp_path) == 1_229
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("field,value", [("version", 2), ("version", 3), ("version", _CACHE_VERSION - 1), ("span", 8)])
def test_cache_bad_header_is_rejected(tmp_path, capsys, field, value):
    # older versions, or a span whose segments are not whole bytes
    header = {"version": _CACHE_VERSION, "span": 16, "covered": 2 * SEGMENT_SPAN}
    header[field] = value
    payload = bytes(header["covered"] // 16)
    (tmp_path / "sieve.spsv").write_bytes(
        _CACHE_HEADER.pack(_CACHE_MAGIC, header["version"], header["span"], header["covered"]) + payload
    )
    assert prime_count(10_000, cache_dir=tmp_path) == 1_229
    assert "corrupt" in capsys.readouterr().err


@pytest.mark.slow
def test_prime_count_1e9_uncached():
    assert prime_count(10**9) == 50_847_534


@pytest.mark.slow
def test_prime_count_1e9_cached_grow(tmp_path):
    # the cached count reads the sieve's marks, the uncached one sieves nothing
    assert prime_count(3 * 10**8, cache_dir=tmp_path) == prime_count(3 * 10**8) == 16_252_325
    assert prime_count(10**9, cache_dir=tmp_path) == prime_count(10**9) == 50_847_534


def test_cache_write_failure_still_yields_primes(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    assert segment_primes(10_000, blocker) == trial_division_primes(10_000)
    err = capsys.readouterr().err
    assert "could not write sieve cache" in err
    assert "corrupt" not in err  # the read fails too, but nothing in it is corrupt


def test_cache_write_failure_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def fail(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", fail)
    assert prime_count(100_000, cache_dir=tmp_path) == 9_592
    assert "could not write sieve cache" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class FillingFile:
    """A file open for writing that takes `room` bytes, then refuses every
    write as a full disk does."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def write(self, data) -> int:
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("old_limit", [None, SEGMENT_SPAN + 1], ids=["cold", "grow"])
def test_cache_write_failing_part_way_yields_each_segment_once(tmp_path, capsys, monkeypatch, old_limit):
    path = tmp_path / "sieve.spsv"
    if old_limit:
        prime_count(old_limit, cache_dir=tmp_path)
        before = path.read_bytes()
    fdopen = os.fdopen
    room = _CACHE_HEADER.size + 3 * (SEGMENT_SPAN // 16 + 4)  # three records, copied or sieved
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: FillingFile(fdopen(fd, mode), room))
    limit = 6 * SEGMENT_SPAN + 11
    segs = list(PrimeStream(limit, cache_dir=tmp_path).segments())
    assert [s.base for s in segs] == [i * SEGMENT_SPAN for i in range(7)]
    found = np.concatenate([primes._primes_of(s) for s in segs])
    assert np.array_equal(found[found <= limit], np.flatnonzero(plain_sieve(limit)))
    assert "could not write sieve cache" in capsys.readouterr().err
    if old_limit:
        assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == (["sieve.spsv"] if old_limit else [])


def test_cold_cached_stream_writes_no_file_before_its_end(tmp_path):
    segs = PrimeStream(3 * SEGMENT_SPAN + 7, cache_dir=tmp_path).segments()
    next(segs)
    assert not (tmp_path / "sieve.spsv").exists()
    segs.close()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("damaged", [False, True], ids=["whole", "late-row-damage"])
def test_stream_closed_early_leaves_the_file_as_it_was(tmp_path, capsys, damaged):
    path = tmp_path / "sieve.spsv"
    prime_count(3 * SEGMENT_SPAN + 7, cache_dir=tmp_path)
    if damaged:
        damage(path, row_offset(3) + 1_000)
    before = path.read_bytes()
    segs = PrimeStream(6 * SEGMENT_SPAN + 11, cache_dir=tmp_path).segments()
    for _ in range(5):  # the checked rows, then a sieved one that a new file holds
        next(segs)
    assert len(list(tmp_path.iterdir())) == 2
    segs.close()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sieve.spsv"]


def test_cold_cached_stream_yields_past_the_bound_early(tmp_path, monkeypatch):
    list(PrimeStream(_KEPT_BELOW - 1).arrays())  # the kept block is warm
    sieve, made = primes._sieve_segments, []

    def spy(*args, **kwargs):
        for seg in sieve(*args, **kwargs):
            made.append(seg.base)
            yield seg

    monkeypatch.setattr(primes, "_sieve_segments", spy)
    arrays = PrimeStream(SIEVE_CEILING, cache_dir=tmp_path).arrays()
    for _ in range(_KEPT_BELOW // SEGMENT_SPAN + 1):
        first = next(arrays)
    # the rows below 2^24 are sieved for the file, then the first past it
    assert len(made) <= 18
    flags = plain_sieve(_KEPT_BELOW + SEGMENT_SPAN - 1)[_KEPT_BELOW:]
    assert np.array_equal(first, _KEPT_BELOW + np.flatnonzero(flags))
    arrays.close()
    assert list(tmp_path.iterdir()) == []


def test_cache_absence_never_changes_results(tmp_path):
    # past 2^24, where a stream with a cache directory reads the file
    limit = _KEPT_BELOW + 75_000
    for _ in range(2):  # writes the file, then reads it back
        with_cache = list(primes_up_to(limit, cache_dir=tmp_path).arrays())
        without = list(primes_up_to(limit).arrays())
        assert len(with_cache) == len(without) == limit // SEGMENT_SPAN + 1
        assert all(np.array_equal(a, b) for a, b in zip(with_cache, without))
    assert (tmp_path / "sieve.spsv").exists()


# --- a cache directory serves only the segments from 2^24 on -------------------


@pytest.mark.parametrize("limit", [2, 10**7, _KEPT_BELOW - 1])
def test_stream_below_the_bound_touches_no_cache(tmp_path, capsys, limit):
    expected = np.flatnonzero(plain_sieve(limit))
    path = tmp_path / "sieve.spsv"
    corrupt = b"XXXX" + packed_oracle(1_000)[4:]
    path.write_bytes(corrupt)
    assert np.array_equal(stream_primes(limit, tmp_path), expected)
    assert np.array_equal(stream_primes(limit, tmp_path / "new"), expected)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    assert np.array_equal(stream_primes(limit, blocker), expected)
    assert capsys.readouterr().err == ""
    assert path.read_bytes() == corrupt  # neither read nor rewritten
    assert sorted(p.name for p in tmp_path.iterdir()) == ["not-a-dir", "sieve.spsv"]  # "new" never made


def test_stream_closed_below_the_bound_touches_no_cache(tmp_path):
    stream = PrimeStream(SIEVE_CEILING, cache_dir=tmp_path).arrays()
    for _ in range(_KEPT_BELOW // SEGMENT_SPAN):
        next(stream)
    stream.close()
    assert list(tmp_path.iterdir()) == []


def test_warm_cached_stream_extracts_only_past_the_bound(tmp_path, monkeypatch):
    limit = PAST_THE_BOUND
    stream_primes(limit, tmp_path)  # writes the file and fills the kept block
    extract, bases = primes._primes_of, []

    def spy(seg):
        bases.append(seg.base)
        return extract(seg)

    monkeypatch.setattr(primes, "_primes_of", spy)
    assert np.array_equal(stream_primes(limit, tmp_path), np.flatnonzero(plain_sieve(limit)))
    assert bases == [_KEPT_BELOW]
    assert (tmp_path / "sieve.spsv").read_bytes() == packed_oracle(limit)


def test_row_0_damage_is_resieved_by_a_stream_past_the_bound(tmp_path, capsys):
    limit = PAST_THE_BOUND
    stream_primes(limit, tmp_path)
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(0) + 1_000)
    assert np.array_equal(stream_primes(limit, tmp_path), np.flatnonzero(plain_sieve(limit)))
    assert "segment 0 checksum mismatch" in capsys.readouterr().err
    assert path.read_bytes() == packed_oracle(limit)


def test_prime_stream_exposes_limit():
    stream = PrimeStream(50)
    assert stream.limit == 50
    assert list(stream) == trial_division_primes(50)


# --- uncached prime_count by the Legendre recurrence --------------------------


@pytest.mark.slow
def test_uncached_count_matches_the_sieve():
    limit = 2 * 10**6
    counts = np.cumsum(plain_sieve(limit))
    rng = random.Random(2024)
    xs = [
        *range(1, 3_000),
        *(k * k + d for k in range(2, 1_414) for d in (-1, 0, 1)),  # where isqrt(x) steps
        *(rng.randrange(1, limit + 1) for _ in range(3_000)),
    ]
    assert [prime_count(x) for x in xs] == [int(counts[x]) for x in xs]


def test_uncached_count_builds_no_segment(monkeypatch):
    def sieve(*args, **kwargs):
        raise AssertionError("an uncached count built a segment")

    monkeypatch.setattr(primes, "_sieve_segments", sieve)
    assert prime_count(10**6) == 78_498
    assert prime_count(SIEVE_CEILING) == 50_847_534


def test_uncached_count_of_a_numpy_integer_is_an_int():
    count = prime_count(np.int64(10**6))
    assert type(count) is int and count == 78_498


def test_empty_cache_dir_counts_without_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a cache named "" would land here
    assert prime_count(10**6, cache_dir="") == 78_498
    assert list(tmp_path.iterdir()) == []


# --- prime_count at every bit of a packed byte ---------------------------------

# ends at each bit position of a packed byte (a byte holds 8 odd residents,
# 16 integers) and at a segment's edges
EDGE_XS = [2 * SEGMENT_SPAN + r for r in range(18)] + [SEGMENT_SPAN - 1, SEGMENT_SPAN, SEGMENT_SPAN + 1]
COUNT_PATHS = ["uncached", "cached-grow", "cached-hit"]


def edge_counts(path, tmp_path) -> list[int]:
    """prime_count at every x of EDGE_XS, by one path."""
    if path == "uncached":
        return [prime_count(x) for x in EDGE_XS]
    if path == "cached-grow":  # each x sieves into a cache of its own
        return [prime_count(x, cache_dir=tmp_path / str(x)) for x in EDGE_XS]
    prime_count(max(EDGE_XS), cache_dir=tmp_path)
    return [prime_count(x, cache_dir=tmp_path) for x in EDGE_XS]


@pytest.mark.parametrize("path", COUNT_PATHS)
def test_prime_count_ends_at_every_bit_of_a_byte(path, tmp_path):
    counts = np.cumsum(plain_sieve(max(EDGE_XS)))
    assert edge_counts(path, tmp_path) == [int(counts[x]) for x in EDGE_XS]


def test_prime_count_counts_packed_marks(tmp_path, monkeypatch):
    def unpacked(seg):
        raise AssertionError("prime_count unpacked a segment")

    monkeypatch.setattr(primes.SieveSegment, "odd_composite", property(unpacked))
    counts = np.cumsum(plain_sieve(max(EDGE_XS)))
    for path in COUNT_PATHS:
        assert edge_counts(path, tmp_path / path) == [int(counts[x]) for x in EDGE_XS], path
