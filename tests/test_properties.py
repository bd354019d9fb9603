"""Property tests of the digit automaton and the y / log y inversion
against brute force."""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stringprime.bounds import solve_log_n  # noqa: E402
from stringprime.counting import PatternAutomaton, count_avoiders  # noqa: E402
from stringprime.digits import contains  # noqa: E402
from stringprime.errors import DomainError  # noqa: E402

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
