from __future__ import annotations

import math
import os
import random
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


def test_stream_limit_validation():
    with pytest.raises(DomainError):
        primes_up_to(1)
    with pytest.raises(ResourceLimitError):
        primes_up_to(SIEVE_CEILING + 1)


def test_segments_aligned():
    segs = list(_sieve_segments(2 * SEGMENT_SPAN))
    for i, seg in enumerate(segs):
        assert seg.base == i * SEGMENT_SPAN
        assert seg.span == SEGMENT_SPAN
        assert seg.span & (seg.span - 1) == 0  # power of two
        assert seg.odd_composite.shape == (SEGMENT_SPAN // 2,)


@pytest.mark.parametrize(
    "span,count",
    [(8, 131), (8, 132), (10, 105), (10, 106), (24, 45), (24, 46), (SEGMENT_SPAN, 5), (SEGMENT_SPAN, 6)],
)
def test_sieve_from_a_later_segment_matches_the_tail(span, count):
    # odd and even segment counts, so passes pair segments differently; the
    # small spans reach base primes >= 29 whose squares lie before `start`
    limit = count * span - 3
    full = list(_sieve_segments(limit, span=span))
    assert len(full) == count
    for k in range(count):
        tail = list(_sieve_segments(limit, span=span, start=k * span))
        assert [s.base for s in tail] == [s.base for s in full[k:]]
        for got, want in zip(tail, full[k:]):
            assert np.array_equal(got.odd_composite, want.odd_composite)


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
    # smallest composite passing bases 2,3,5,7; ladder must switch tiers
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_474_749_660_383)
    assert not is_prime(341_550_071_728_321)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**64 - 1)


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


def test_cache_roundtrip(tmp_path):
    expected = list(primes_up_to(SEGMENT_SPAN + 5_000))
    first = list(primes_up_to(SEGMENT_SPAN + 5_000, cache_dir=tmp_path))
    assert first == expected
    assert (tmp_path / "sieve.spsv").exists()
    again = list(primes_up_to(SEGMENT_SPAN + 5_000, cache_dir=tmp_path))
    assert again == expected
    # a shorter request slices the same cache
    small = list(primes_up_to(1_000, cache_dir=tmp_path))
    assert small == [p for p in expected if p <= 1_000]


def test_cache_corruption_is_ignored(tmp_path, capsys):
    list(primes_up_to(10_000, cache_dir=tmp_path))
    path = tmp_path / "sieve.spsv"
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    got = list(primes_up_to(10_000, cache_dir=tmp_path))
    assert got == trial_division_primes(10_000)
    assert "corrupt" in capsys.readouterr().err
    # the bad file was replaced by a fresh one
    assert path.read_bytes()[:4] == b"SPSV"


def test_cache_truncation_is_ignored(tmp_path, capsys):
    list(primes_up_to(10_000, cache_dir=tmp_path))
    path = tmp_path / "sieve.spsv"
    path.write_bytes(path.read_bytes()[:10])
    got = list(primes_up_to(10_000, cache_dir=tmp_path))
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


def packed_oracle(limit: int) -> bytes:
    """A version 4 cache file covering [0, limit] in whole segments: the
    header, one CRC-32 per packed row, then the rows."""
    covered = (limit // SEGMENT_SPAN + 1) * SEGMENT_SPAN
    payload = np.packbits(~plain_sieve(covered - 1)[1::2]).tobytes()
    width = SEGMENT_SPAN // 16
    table = b"".join(
        zlib.crc32(payload[i : i + width]).to_bytes(4, "little") for i in range(0, len(payload), width)
    )
    return _CACHE_HEADER.pack(_CACHE_MAGIC, 4, SEGMENT_SPAN, covered, zlib.crc32(table)) + table + payload


def damage(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def row_offset(rows: int, i: int) -> int:
    """File offset of packed row i in a cache of `rows` rows."""
    return _CACHE_HEADER.size + 4 * rows + i * SEGMENT_SPAN // 16


@pytest.mark.parametrize("limit", [1_000, SEGMENT_SPAN + 1, 3 * SEGMENT_SPAN + 7])
def test_cache_file_matches_packed_oracle(tmp_path, limit):
    # the file is whole before the first segment is yielded
    next(PrimeStream(limit, cache_dir=tmp_path).segments())
    assert (tmp_path / "sieve.spsv").read_bytes() == packed_oracle(limit)


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
    damage(path, row_offset(3, 0) + 1_000)
    limit = 3 * SEGMENT_SPAN + 7
    assert prime_count(limit, cache_dir=tmp_path) == int(plain_sieve(limit).sum())
    assert "corrupt" in capsys.readouterr().err
    assert path.read_bytes() == packed_oracle(limit)


def test_cache_row_damage_keeps_the_rows_before_it(tmp_path, monkeypatch, capsys):
    limit = 3 * SEGMENT_SPAN + 7
    assert prime_count(limit, cache_dir=tmp_path) == int(plain_sieve(limit).sum())
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(4, 2) + 1_000)
    starts = []

    def spy(limit, span=SEGMENT_SPAN, start=0):
        starts.append(start)
        return _sieve_segments(limit, span, start)

    monkeypatch.setattr(primes, "_sieve_segments", spy)
    assert prime_count(limit, cache_dir=tmp_path) == int(plain_sieve(limit).sum())
    assert "corrupt" in capsys.readouterr().err
    assert starts == [2 * SEGMENT_SPAN]
    assert path.read_bytes() == packed_oracle(limit)


def test_cache_table_damage_is_detected_by_any_hit(tmp_path, capsys):
    prime_count(3 * SEGMENT_SPAN + 7, cache_dir=tmp_path)
    damage(tmp_path / "sieve.spsv", _CACHE_HEADER.size + 4 * 3)  # the last row's CRC-32
    assert prime_count(1_000, cache_dir=tmp_path) == 168
    assert "corrupt" in capsys.readouterr().err


def test_cache_damage_in_a_row_not_read_is_silent(tmp_path, capsys):
    limit = 3 * SEGMENT_SPAN + 7
    counts = np.cumsum(plain_sieve(limit))
    assert prime_count(limit, cache_dir=tmp_path) == counts[limit]
    path = tmp_path / "sieve.spsv"
    damage(path, row_offset(4, 3) + 5)
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


@pytest.mark.parametrize("field,value", [("version", 2), ("version", _CACHE_VERSION - 1), ("span", 8)])
def test_cache_bad_header_is_rejected(tmp_path, capsys, field, value):
    # older versions, or a span whose segments are not whole bytes
    header = {"version": _CACHE_VERSION, "span": 16, "covered": 2 * SEGMENT_SPAN}
    header[field] = value
    payload = bytes(header["covered"] // 16)
    (tmp_path / "sieve.spsv").write_bytes(
        _CACHE_HEADER.pack(_CACHE_MAGIC, header["version"], header["span"], header["covered"], zlib.crc32(payload))
        + payload
    )
    assert prime_count(10_000, cache_dir=tmp_path) == 1_229
    assert "corrupt" in capsys.readouterr().err


@pytest.mark.slow
def test_prime_count_1e9_uncached():
    assert prime_count(10**9) == 50_847_534


@pytest.mark.slow
def test_prime_count_1e9_cached_grow(tmp_path):
    assert prime_count(3 * 10**8, cache_dir=tmp_path) == 16_252_325
    assert prime_count(10**9, cache_dir=tmp_path) == 50_847_534


def test_cache_write_failure_still_yields_primes(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    assert list(primes_up_to(10_000, cache_dir=blocker)) == trial_division_primes(10_000)
    assert "could not write sieve cache" in capsys.readouterr().err


def test_cache_write_failure_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def fail(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", fail)
    assert prime_count(100_000, cache_dir=tmp_path) == 9_592
    assert "could not write sieve cache" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cache_absence_never_changes_results(tmp_path):
    with_cache = list(primes_up_to(75_000, cache_dir=tmp_path))
    without = list(primes_up_to(75_000))
    assert with_cache == without


def test_prime_stream_exposes_limit():
    stream = PrimeStream(50)
    assert stream.limit == 50
    assert list(stream) == trial_division_primes(50)
