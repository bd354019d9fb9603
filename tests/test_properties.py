"""Property tests of the digit automaton, the containment scan and the
y / log y inversion against brute force."""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stringprime.bounds import solve_log_n  # noqa: E402
from stringprime.counting import PatternAutomaton, count_avoiders  # noqa: E402
from stringprime.digits import contains  # noqa: E402
from stringprime.errors import DomainError  # noqa: E402
from stringprime.experiments import _containing  # noqa: E402
from stringprime.primes import is_prime  # noqa: E402

# A small alphabet makes leading zeros and self-overlapping patterns
# ("00", "0101", "1212") common, and makes patterns appear in numbers.
patterns = st.text(alphabet="0129", min_size=1, max_size=4)


@st.composite
def pattern_and_number(draw):
    """A pattern and a number glued from its prefixes and stray digits, so
    partial matches that must fall back along the pattern's borders are
    common."""
    pattern = draw(patterns)
    pieces = st.sampled_from([pattern[:k] for k in range(1, len(pattern) + 1)]) | st.sampled_from("0129")
    return pattern, int("".join(draw(st.lists(pieces, min_size=1, max_size=12))))


@given(patterns, st.integers(min_value=1, max_value=10**4))
@example("00", 10**4)
@example("0101", 10**4)
@example("1231", 10**4)
def test_count_avoiders_matches_brute_force(pattern, x):
    assert count_avoiders(pattern, x) == sum(pattern not in str(n) for n in range(1, x + 1))


@given(pattern_and_number())
@example(("1211", 121211))
def test_automaton_matches_agrees_with_contains(case):
    pattern, n = case
    assert PatternAutomaton(pattern).matches(n) == contains(n, pattern)


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
