from __future__ import annotations

import csv
import io
import math
import tracemalloc
import types

import numpy as np
import pytest

from stringprime import experiments
from stringprime.cli import main
from stringprime.counting import count_avoiders
from stringprime.digits import DigitString, contains, parse_digit_string
from stringprime.errors import DomainError, ResourceLimitError
from stringprime.experiments import (
    coverage_threshold,
    density_table,
    find_prime_ap,
    least_prime_containing,
    relative_density,
    verify_ap,
)
from stringprime.primes import _KEPT_BELOW, SEGMENT_SPAN, PrimeStream, is_prime, prime_count

# Scalar reference scans: one Python int at a time, containment by substring.
PATTERNS = ["7", "0", "00", "03", "05", "11", "121", "1212", "909", "1000003", "123456789012"]
LIMITS = [10, 1_000, SEGMENT_SPAN + 1]


def scalar_containing(text: str, limit: int) -> list[int]:
    return [p for p in PrimeStream(limit) if text in str(p)]


def scalar_ap(hits: list[int], k: int, limit: int):
    """The first (a, d), by ascending a and then ascending d, with every
    a + j*d for j < k in hits and a + (k-1)*d <= limit; or None."""
    member = set(hits)
    for i, a in enumerate(hits):
        for b in hits[i + 1 :]:
            d = b - a
            if a + (k - 1) * d > limit:
                break
            if all(a + j * d in member for j in range(2, k)):
                return a, d
    return None


def scalar_coverage(length: int, limit: int):
    """(m, last string, {string: first containing prime}) or None."""
    lo = 10 ** (length - 1)
    first = {}
    for p in PrimeStream(limit):
        s = str(p)
        for i in range(len(s) - length + 1):
            w = s[i : i + length]
            if w[0] != "0" and w not in first:
                first[w] = p
                if len(first) == 9 * lo:
                    return p, w, first
    return None


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("text", PATTERNS)
def test_scans_match_scalar_reference(text, limit):
    hits = scalar_containing(text, limit)
    assert least_prime_containing(text, limit) == (hits[0] if hits else None)
    rep = relative_density(text, limit)
    assert (rep.pi_n, rep.containing) == (len(list(PrimeStream(limit))), len(hits))
    for k in range(3, 7):
        ap = find_prime_ap(text, k, limit)
        assert (k, ap and (ap.first_term, ap.difference)) == (k, scalar_ap(hits, k, limit))


# each M(l) of Table 1 and the limit one below it, where coverage is not yet whole
THRESHOLD_CASES = [
    (1, 82), (1, 83), (2, 1_846), (2, 1_847), (3, 50_410), (3, 50_411), (4, 793_342), (4, 793_343),
    pytest.param(5, 9_810_000, marks=pytest.mark.slow),
    pytest.param(5, 9_810_001, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("length, limit", [*THRESHOLD_CASES, (2, 10_000), (3, 100_000), (4, 10**6)])
def test_coverage_matches_scalar_reference(length, limit):
    result = coverage_threshold(length, limit)
    expected = scalar_coverage(length, limit)
    if expected is None:
        assert result is None
        return
    m, last, first = expected
    assert (result.m, result.last_string.text) == (m, last)
    assert {s.text: p for s, p in result.covered_at.items()} == first
    cov, oracle = result.covered_at, {parse_digit_string(w): p for w, p in first.items()}
    assert len(cov) == len(oracle) == 9 * 10 ** (length - 1)
    assert cov == oracle and oracle == cov
    assert all(s in cov and cov[s] == p for s, p in oracle.items())
    assert list(cov) == sorted(oracle, key=lambda s: s.digits)


@pytest.mark.parametrize(
    "arrays, m, last",
    [
        # 689 completes coverage with three new digits at once; the scan
        # order (ascending number, then left to right) makes 9 the last string.
        pytest.param([[11, 23], [457, 689]], 689, "9", id="two-arrays"),
        # 31 holds 3 in an earlier column than 13 does; 13 still holds it first
        pytest.param([[13, 31, 457, 68921]], 68921, "2", id="least-in-later-column"),
        # 6 is also the fourth digit of 68961 and 1 its last, but 9 is the
        # new digit that first occurs latest
        pytest.param([[11, 23, 457, 68961]], 68961, "9", id="new-left-of-last-window"),
    ],
)
def test_coverage_last_string_is_rightmost_in_completing_number(monkeypatch, arrays, m, last):
    stream = types.SimpleNamespace(arrays=lambda: (np.array(a, dtype=np.int32) for a in arrays))
    monkeypatch.setattr(experiments, "PrimeStream", lambda limit, cache_dir=None: stream)
    result = coverage_threshold(1, 1_000)
    numbers = [n for a in arrays for n in a]
    assert (result.m, result.last_string.text) == (m, last)
    assert {s.text: p for s, p in result.covered_at.items()} == {
        d: next(n for n in numbers if d in str(n)) for d in "123456789"
    }


def test_scan_results_are_plain_ints():
    cov = coverage_threshold(2, 10_000)
    ap = find_prime_ap("3", 4, 10_000)
    rep = relative_density("9", 10_000)
    values = [cov.m, *cov.covered_at.values(), least_prime_containing("9", 100), *ap.terms, ap.first_term,
              ap.difference, rep.pi_n, rep.containing, rep.avoiding]
    assert all(type(v) is int for v in values)


@pytest.mark.slow
def test_coverage_l6():
    # one row past the paper's Table 1
    result = coverage_threshold(6, 10**9)
    assert (result.m, result.last_string.text) == (106_658_081, "665808")


# zero-led, too short, too long, then keys that are not DigitStrings
@pytest.mark.parametrize("key", [*map(parse_digit_string, ["07", "7", "123"]), "12", 12, (1, 2)])
def test_coverage_map_rejects_foreign_keys(key):
    cov = coverage_threshold(2, 10_000).covered_at
    assert cov[parse_digit_string("12")] == 127
    with pytest.raises(KeyError):
        cov[key]
    assert key not in cov and cov.get(key) is None


def test_coverage_map_is_read_only_with_a_short_repr():
    result = coverage_threshold(2, 10_000)
    key = parse_digit_string("10")
    with pytest.raises(TypeError):
        result.covered_at[key] = 1
    assert result.covered_at[key] == 101
    assert repr(result.covered_at) == "CoverageMap(length=2, strings=90)"
    assert "0x" not in repr(result)


def test_coverage_builds_no_digit_strings_but_the_last(monkeypatch):
    built = []
    post_init = DigitString.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DigitString, "__post_init__", counting)
    result = coverage_threshold(5, 10**7)
    assert built == [result.last_string]
    assert result.covered_at[parse_digit_string("10000")] == 100_003
    assert len(built) == 2  # the lookup key above; the lookup itself builds none


# the primes on each side of every power of ten below 10^9
EDGE_PRIMES = sorted(
    {next(n for n in range(10**d - 1, 1, -1) if is_prime(n)) for d in range(1, 10)}
    | {next(n for n in range(10**d + 1, 10 ** (d + 1)) if is_prime(n)) for d in range(1, 9)}
)


@pytest.mark.parametrize("length", range(1, 7))
def test_windows_match_digit_slices(length):
    # each prefix of EDGE_PRIMES ends at a digit count of its own; the
    # windows of a shorter prime read its digits zero-padded to the longest
    for top in range(len(EDGE_PRIMES) + 1):
        digits = len(str(max(EDGE_PRIMES[:top], default=0)))
        padded = [str(p).zfill(digits) for p in EDGE_PRIMES[:top]]
        expected = [[int(s[i : i + length]) for i in range(digits - length + 1)] for s in padded]
        for primes in (np.array(EDGE_PRIMES[:top], dtype=np.int64), read_only_int32(EDGE_PRIMES[:top])):
            wins = experiments._windows(primes, length)
            assert wins.dtype == np.int32 and wins.shape == (top, max(digits - length + 1, 0))
            assert wins.tolist() == expected


def read_only_int32(values: list[int]) -> np.ndarray:
    """The form of a scanned row; a kernel that writes its input raises on it."""
    a = np.array(values, dtype=np.int32)
    a.flags.writeable = False
    return a


def test_containing_matches_substrings():
    # texts of up to 9 digits, where 10**len(text) reaches 10^9 in int32, and
    # one longer than every prime, which makes no shift
    texts = {s[i:j] for s in map(str, EDGE_PRIMES) for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    for primes in (np.array(EDGE_PRIMES), read_only_int32(EDGE_PRIMES)):
        for text in sorted(texts | {"0", "00", "03", "1234567890"}):
            assert experiments._containing(primes, text).tolist() == [text in str(p) for p in EDGE_PRIMES], text


def test_cli_coverage_map_matches_scalar_reference(tmp_path, capsys):
    path = tmp_path / "map.csv"
    assert main(["coverage", "--l", "4", "--limit", str(10**6), "--save-map", str(path)]) == 0
    capsys.readouterr()
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["string", "first_containing_prime"])
    writer.writerows(sorted(scalar_coverage(4, 10**6)[2].items()))
    assert path.read_bytes() == expected.getvalue().encode()


def test_least_prime_examples():
    assert least_prime_containing("2", 100) == 2
    assert least_prime_containing("9", 100) == 19
    assert least_prime_containing("123", 100) is None


def test_least_prime_8_is_83():
    assert least_prime_containing("8", 100) == 83
    # oracle: no smaller prime has a digit 8
    for n in range(2, 83):
        if is_prime(n):
            assert "8" not in str(n)


def test_least_prime_with_leading_zero_pattern():
    p = least_prime_containing("03", 2000)
    assert p == 103
    assert contains(p, "03")


def test_coverage_l1():
    result = coverage_threshold(1, 1_000)
    assert result is not None
    assert result.m == 83
    assert result.universe_size == 9
    assert result.last_string == parse_digit_string("8")
    assert set(result.covered_at) == {parse_digit_string(str(d)) for d in range(1, 10)}
    for s, p in result.covered_at.items():
        assert p <= result.m
        assert is_prime(p)
        assert contains(p, s)
    assert result.covered_at[result.last_string] == result.m


def test_coverage_l2():
    result = coverage_threshold(2, 10_000)
    assert result is not None
    assert result.m == 1847
    assert result.universe_size == 90
    for s, p in result.covered_at.items():
        assert p <= 1847 and contains(p, s)


@pytest.mark.parametrize("length", [1, 2])
def test_coverage_agrees_with_least_prime(length):
    result = coverage_threshold(length, 10_000)
    lo = 10 ** (length - 1)
    worst = 0
    for v in range(lo, 10 * lo):
        p = least_prime_containing(str(v), 10_000)
        assert p == result.covered_at[parse_digit_string(str(v))]
        worst = max(worst, p)
    assert worst == result.m


def test_coverage_not_found_within_limit():
    assert coverage_threshold(3, 1_000) is None


def test_coverage_domain():
    with pytest.raises(DomainError):
        coverage_threshold(0, 100)
    with pytest.raises(DomainError):
        coverage_threshold(7, 100)


def test_coverage_map_csv(tmp_path):
    result = coverage_threshold(1, 1_000)
    path = tmp_path / "map.csv"
    result.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["string", "first_containing_prime"]
    assert len(rows) == 10
    assert rows[1] == ["1", "11"]  # least prime containing digit 1
    got = {r[0]: int(r[1]) for r in rows[1:]}
    assert got == {s.text: p for s, p in result.covered_at.items()}


def test_ap_deterministic_small():
    result = find_prime_ap("1", 3, 100)
    assert result is not None
    assert (result.first_term, result.difference, result.terms) == (11, 30, (11, 41, 71))
    assert verify_ap(result, "1")


def test_ap_pattern_9():
    result = find_prime_ap("9", 3, 1_000)
    assert result is not None
    assert result.terms == (19, 79, 139)
    assert verify_ap(result, "9")


def test_ap_invariants_hold():
    result = find_prime_ap("3", 4, 10_000)
    assert result is not None
    assert result.difference > 0
    assert len(result.terms) == result.length == 4
    assert all(a < b for a, b in zip(result.terms, result.terms[1:]))
    for j, t in enumerate(result.terms):
        assert t == result.first_term + j * result.difference
        assert is_prime(t)
        assert contains(t, "3")


def test_ap_not_found():
    assert find_prime_ap("123", 3, 100) is None


def test_ap_search_stops_when_no_difference_fits():
    # the only candidate is the limit itself, so its largest difference is 0
    assert find_prime_ap("7", 3, 7) is None


def test_ap_search_holds_one_array_of_candidates():
    # the containing primes of the rows read, at 4 bytes, held twice while
    # they are gathered, plus one segment's work arrays; a list and a set
    # of them took about 40 MB for "1"; "21" reads every row
    find_prime_ap("1", 3, 10**4)
    tracemalloc.start()
    try:
        assert find_prime_ap("1", 3, 10**7).terms == (11, 41, 71)
        assert find_prime_ap("21", 6, 10**7).first_term == 421
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**7


@pytest.fixture
def rows_read(monkeypatch) -> list[int]:
    """The number of arrays each PrimeStream.arrays() stream has yielded, one entry per stream."""
    arrays, read = PrimeStream.arrays, []

    def spy(self):
        read.append(0)
        for primes in arrays(self):
            read[-1] += 1
            yield primes

    monkeypatch.setattr(PrimeStream, "arrays", spy)
    return read


# limit = spans * SEGMENT_SPAN gives spans + 1 rows, the last empty.  With
# four spans, c[0] is decided by the try after row 1 for ("19", 4), and by
# those after rows 2 and 4 for ("00", 5) and ("10", 5), last terms 2,000,209
# and 4,032,101.
# No progression starts at c[0] for the rest, which read every row: "21"
# answers from 421, not 211, "01" from 401 and "02" from 2027, last term
# 3,047,027.  With one span, the try due after row 2 finds that row empty.
@pytest.mark.parametrize(
    "text, k, spans, rows",
    [("19", 4, 4, 1), ("00", 5, 4, 2), ("10", 5, 4, 4), ("21", 5, 4, 5), ("01", 6, 4, 5), ("02", 6, 4, 5),
     ("21", 6, 1, 2)],
)
def test_ap_early_and_late_answers_match_scalar_reference(rows_read, text, k, spans, rows):
    limit = spans * SEGMENT_SPAN
    ap = find_prime_ap(text, k, limit)
    assert rows_read == [rows]
    assert (ap.first_term, ap.difference) == scalar_ap(scalar_containing(text, limit), k, limit)
    assert verify_ap(ap, text)


# The search reads only containment and order, so these need not be primes.
# A try after row 1 rules out every d up to (E - 11) // (k - 1) = 1 from
# c[0] = 11, E the row's last number; row 2 brings d = 2 into reach, and in
# the last case the try comes only once row 3, the end, is read.
@pytest.mark.parametrize(
    "rows, k",
    [([[11, 13], [15, 17, 19]], 3), ([[11, 13, 14], [15, 16, 17]], 4), ([[11, 13], [14], [15, 17, 19]], 3)],
)
def test_ap_tries_the_first_difference_past_those_ruled_out(monkeypatch, rows, k):
    stream = types.SimpleNamespace(arrays=lambda: (np.array(a, dtype=np.int32) for a in rows))
    monkeypatch.setattr(experiments, "PrimeStream", lambda limit, cache_dir=None: stream)
    numbers = [n for a in rows for n in a]
    ap = find_prime_ap("1", k, 100)
    assert (ap.first_term, ap.difference) == scalar_ap(numbers, k, numbers[-1]) == (11, 2)


def test_ap_reads_one_row_when_it_decides_and_every_row_when_none_does(rows_read):
    assert find_prime_ap("19", 4, 10**7).terms == (19, 4219, 8419, 12619)
    assert find_prime_ap("21", 6, 10**7).first_term == 421
    assert rows_read == [1, 10**7 // SEGMENT_SPAN + 1]


def test_early_ap_answer_leaves_the_cache_file_as_it_was(tmp_path, capsys):
    # c[0] = 1061 is decided by the try after 32 rows, past the file's 17,
    # so the stream has begun a grown file when the search closes it
    path = tmp_path / "sieve.spsv"
    prime_count(_KEPT_BELOW + 5_000, cache_dir=tmp_path)
    before = path.read_bytes()
    ap = find_prime_ap("06", 6, 2**26, cache_dir=tmp_path)
    assert (ap.first_term, ap.terms[-1]) == (1061, 19_426_061)
    assert ap == find_prime_ap("06", 6, 2**26)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sieve.spsv"]  # no .spsv- temporary left
    assert capsys.readouterr().err == ""


def test_ap_domain():
    with pytest.raises(DomainError):
        find_prime_ap("1", 2, 100)
    with pytest.raises(DomainError):
        find_prime_ap("1", 7, 100)


def test_verify_ap_rejects_bad_progressions():
    from stringprime.experiments import APResult

    good = find_prime_ap("1", 3, 100)
    assert verify_ap(good, "1")
    assert not verify_ap(APResult(11, 30, 3, (11, 41, 72)), "1")  # wrong spacing
    assert not verify_ap(APResult(11, 30, 3, (11, 41, 71)), "9")  # wrong pattern
    assert not verify_ap(APResult(10, 30, 3, (10, 40, 70)), "1")  # not prime
    assert not verify_ap(APResult(11, 0, 3, (11, 11, 11)), "1")  # zero difference


def test_relative_density_examples():
    rep = relative_density("1", 100)
    assert (rep.containing, rep.pi_n) == (8, 25)
    assert rep.density == pytest.approx(0.32)
    rep = relative_density("1", 2)
    assert (rep.containing, rep.pi_n, rep.density) == (0, 1, 0.0)


def test_relative_density_domain():
    with pytest.raises(DomainError):
        relative_density("9", 0)


def test_relative_density_partition_and_bound():
    for text, n in [("9", 10_000), ("12", 5_000), ("00", 20_000)]:
        rep = relative_density(text, n)
        assert rep.containing + rep.avoiding == rep.pi_n
        assert rep.avoiding <= count_avoiders(text, n)


def test_relative_density_monotone_in_n():
    values = [relative_density("7", n).containing for n in (10, 100, 1_000, 5_000, 10_000)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_density_table_consistent_with_single_calls():
    reports = density_table("9", [2, 3, 4])
    assert [r.n for r in reports] == [100, 1_000, 10_000]
    for rep in reports:
        single = relative_density("9", rep.n)
        assert (rep.pi_n, rep.containing, rep.avoiding) == (single.pi_n, single.containing, single.avoiding)
    densities = [r.density for r in reports]
    assert densities[0] == pytest.approx(6 / 25)
    assert all(a < b for a, b in zip(densities, densities[1:]))


def test_density_table_double_zero_onset():
    # no prime below 1009 contains "00" (x00 is divisible by 100)
    reports = density_table("00", [3, 4, 5])
    assert reports[0].containing == 0
    assert reports[1].containing > 0
    assert least_prime_containing("00", 10_000) == 1009


def test_density_table_empty_and_order():
    assert density_table("9", []) == []
    a = density_table("9", [4, 2, 3])
    b = density_table("9", [2, 3, 4])
    assert a == b
    with pytest.raises(DomainError):
        density_table("9", [-1])


@pytest.mark.parametrize("exponents", [[10], [2, 5000], [10**7]])
def test_density_table_rejects_a_bound_past_the_ceiling(exponents):
    # 10**5000 has more digits than str() renders; 10**(10**7) takes seconds
    # to build, so the exponent is checked first
    with pytest.raises(ResourceLimitError, match=f"10\\^{max(exponents)} exceeds"):
        density_table("1", exponents)


def test_density_pi_matches_prime_count():
    from stringprime.primes import prime_count

    rep = relative_density("5", 12_345)
    assert rep.pi_n == prime_count(12_345)
