"""Property tests of the exact avoider count, the containment scan and the
y / log y inversion against brute force, and of two contracts: the CLI's
exit codes, and a damaged sieve cache never changing the primes."""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stringprime import cli  # noqa: E402
from stringprime.bounds import solve_log_n  # noqa: E402
from stringprime.counting import PatternAutomaton, count_avoiders  # noqa: E402
from stringprime.errors import DomainError  # noqa: E402
from stringprime.experiments import _containing  # noqa: E402
from stringprime.primes import (  # noqa: E402
    _CACHE_HEADER,
    _CACHE_RECORD,
    _KEPT_BELOW,
    SEGMENT_SPAN,
    PrimeStream,
    is_prime,
    prime_count,
)

# A small alphabet makes leading zeros and self-overlapping patterns
# ("00", "0101", "1212") common, and makes patterns appear in numbers.
patterns = st.text(alphabet="0129", min_size=1, max_size=4)


@given(patterns, st.integers(min_value=1, max_value=10**4))
@example("00", 10**4)
@example("0101", 10**4)
@example("1231", 10**4)
@example("1211", 121211)
def test_count_avoiders_matches_brute_force(pattern, x):
    # a pattern string counts on rows sized to x, an automaton on its own rows
    brute = sum(pattern not in str(n) for n in range(1, x + 1))
    for counted in (pattern, PatternAutomaton(pattern)):
        assert count_avoiders(counted, x) == brute
        assert brute - (count_avoiders(counted, x - 1) if x > 1 else 0) == (pattern not in str(x))


# The primes within 300 of 10^e for e = 1..8: each array mixes primes of e
# and e + 1 digits, and those just past 10^e are full of zeros.
PRIMES_AROUND = {e: np.array([n for n in range(10**e - 300, 10**e + 300) if n > 1 and is_prime(n)]) for e in range(1, 9)}


@st.composite
def primes_and_text(draw):
    """The primes next to a power of ten and a text of 1-8 digits: either
    any digits or a piece cut from one of the primes, so that zero-led
    texts that occur are common."""
    e = draw(st.integers(min_value=1, max_value=8))
    digits = str(draw(st.sampled_from(PRIMES_AROUND[e].tolist())))
    i = draw(st.integers(min_value=0, max_value=len(digits) - 1))
    piece = st.integers(min_value=i + 1, max_value=min(len(digits), i + 8)).map(lambda j: digits[i:j])
    return e, draw(piece | st.text(alphabet="0123456789", min_size=1, max_size=8))


@given(primes_and_text())
@example((1, "0"))
@example((6, "0000"))
@example((8, "00000007"))
@example((8, "10000000"))
def test_containing_matches_substring_search(case):
    e, text = case
    primes = PRIMES_AROUND[e]
    assert _containing(primes, text).tolist() == [text in str(p) for p in primes.tolist()]


@given(st.floats(min_value=math.e, max_value=1e305, exclude_min=True))
@example(math.nextafter(math.e, math.inf))
def test_solve_log_n_round_trip(b):
    y = solve_log_n(b)
    assert y > math.e
    assert abs(y / math.log(y) - b) <= 1e-9 * b


@given(st.floats(min_value=2.6e305, allow_infinity=False))
def test_solve_log_n_rejects_roots_past_double_range(b):
    with pytest.raises(DomainError):
        solve_log_n(b)


# --- the CLI: exit 0-3, exit 1 only for "not found", never a traceback ---------

# Values inside each option's domain, then values no option takes or only
# some do: small integers at the domain edges, empty, non-ASCII, option-like,
# or past every bound (with 5000 digits, past the length Python converts to
# an int).
def ints(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


pattern = st.text(alphabet="0123456789", min_size=1, max_size=6)
limit = ints(2, 10**6)  # at most 10^6, so no command sieves past the kept block's first row
COMMANDS = {
    "bound": {"--l": ints(1, 10**4)},
    "solve-logn": {"--b": st.floats(3, 1e300).map(str)},
    "coupon": {"--l": ints(2, 10**4)},
    "count-avoiders": {"--pattern": pattern, "--x": ints(1, 10**40)},
    "least-prime": {"--pattern": pattern, "--limit": limit},
    "coverage": {"--l": ints(1, 6), "--limit": limit,
                 "--save-map": st.sampled_from(["map.csv", "missing/map.csv", "."])},
    "ap": {"--pattern": st.text(alphabet="0123456789", min_size=1, max_size=2), "--k": ints(3, 6), "--limit": limit},
    "density": {"--pattern": pattern, "--exponents": st.lists(ints(0, 6), min_size=1, max_size=3).map(",".join)},
    "table1": {"--max-l": ints(1, 4)},  # 5 would sieve to 10^7
}
SHARED = {"--format": st.sampled_from(["human", "csv", "markdown"]), "--precision": ints(1, 40), "--threads": ints(1, 4)}
bad = st.sampled_from(["-1", "0", "1", "2", "7", "10", "", " ", "x", "1e5", "0x10", "--", "-1.5", "-", "\u0663",
                       "\u00b2", "nan", "inf", "-inf", "1_000", "json", "0,,7", str(2**31), str(10**40),
                       str(-(10**40)), "9" * 5000])


@st.composite
def command_lines(draw, command: str):
    """An argv running the subcommand.  Each option is sometimes left out,
    one value in four argvs is a bad one, and the shared flags come before
    or after the subcommand."""
    options = [[name, draw(values)] for name, values in COMMANDS[command].items() if draw(st.integers(0, 9))]
    shared = [[name, draw(values)] for name, values in SHARED.items() if draw(st.booleans())]
    pairs = options + shared
    if pairs and not draw(st.integers(0, 3)):
        draw(st.sampled_from(pairs))[1] = draw(bad)
    flags = [x for pair in shared for x in pair] + ["--seed-check"] * (not draw(st.integers(0, 9)))
    args = [command, *(x for pair in options for x in pair)]
    return flags + args if draw(st.booleans()) else args + flags


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
@settings(max_examples=30)
def test_cli_exits_0_to_3_and_1_only_for_not_found(command, data):
    args = data.draw(command_lines(command))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as where, contextlib.chdir(where):  # --save-map writes here
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
    assert code in (0, 1, 2, 3), err.getvalue()
    assert code != 1 or command in ("least-prime", "ap", "coverage")
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


# --- a damaged sieve cache never changes the primes ----------------------------

PAST_THE_BOUND = _KEPT_BELOW + 5_000  # every stream past 2^24 reads each of the file's rows
CACHE_SIZE = _CACHE_HEADER.size + (PAST_THE_BOUND // SEGMENT_SPAN + 1) * _CACHE_RECORD


@pytest.fixture(scope="module")
def whole_cache(tmp_path_factory) -> bytes:
    where = tmp_path_factory.mktemp("cache")
    prime_count(PAST_THE_BOUND, cache_dir=where)
    data = (where / "sieve.spsv").read_bytes()
    assert len(data) == CACHE_SIZE
    return data


# one bit flipped anywhere, the header's 24 bytes drawn as often as the rest;
# a truncation; or bytes appended
damages = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 8 * _CACHE_HEADER.size - 1) | st.integers(0, 8 * CACHE_SIZE - 1)),
    st.tuples(st.just("truncate"), st.integers(0, CACHE_SIZE - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
)


def damaged(data: bytes, damage) -> bytes:
    how, where = damage
    if how == "flip":
        flipped = bytearray(data)
        flipped[where // 8] ^= 1 << where % 8
        return bytes(flipped)
    return data[:where] if how == "truncate" else data + where


@given(damage=damages, x=st.integers(_KEPT_BELOW, PAST_THE_BOUND))
@settings(max_examples=40)
def test_damaged_cache_is_reported_and_never_changes_the_primes(whole_cache, damage, x):
    reads = [  # each with its uncached oracle
        (lambda where: prime_count(x, cache_dir=where), prime_count(x)),
        (lambda where: np.concatenate(list(PrimeStream(x, cache_dir=where).arrays())),
         np.concatenate(list(PrimeStream(x).arrays()))),
    ]
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "sieve.spsv")
        for read, oracle in reads:
            with open(path, "wb") as fh:
                fh.write(damaged(whole_cache, damage))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                got = read(where)
            assert err.getvalue().startswith("stringprime: corrupt sieve cache ")
            assert np.array_equal(got, oracle)
            with open(path, "rb") as fh:
                assert fh.read() == whole_cache  # rewritten whole
