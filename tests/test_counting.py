from __future__ import annotations

import math
import random
import sys
import threading

import pytest

from stringprime.counting import (
    BaseRContext,
    PatternAutomaton,
    avoider_density_bound,
    base_r_digit_avoiders,
    build_automaton,
    count_avoiders,
    hw_upper_bound,
)
from stringprime.digits import contains, parse_digit_string
from stringprime.errors import CountOverflowError, DomainError

CORPUS = ["9", "0", "1", "12", "00", "123", "999"]


def longest_suffix_prefix(pattern: tuple[int, ...], fed: tuple[int, ...]) -> int:
    """Brute-force length of the longest suffix of `fed` that prefixes `pattern`."""
    for length in range(min(len(pattern), len(fed)), -1, -1):
        if fed[len(fed) - length :] == pattern[:length]:
            return length
    return 0


def brute_avoider_count(text: str, x: int) -> int:
    return sum(1 for n in range(1, x + 1) if text not in str(n))


@pytest.mark.parametrize(
    "text",
    CORPUS + ["121", "11", "1231", "010"]
    # long restart chains
    + ["12121213", "1211121", "1121112", "0000", "00100", "12312312"],
)
def test_transitions_match_suffix_prefix_oracle(text):
    auto = build_automaton(text)
    pat = auto.pattern.digits
    for s in range(len(pat)):
        for d in range(10):
            assert auto.transition[s][d] == longest_suffix_prefix(pat, pat[:s] + (d,))


def test_automaton_single_digit():
    auto = build_automaton("9")
    assert auto.accept_state == 1
    assert auto.transition[0][9] == 1
    assert all(auto.transition[0][d] == 0 for d in range(9))


def test_automaton_repeated_digit():
    auto = build_automaton("11")
    assert auto.transition[1][1] == 2
    assert all(auto.transition[1][d] == 0 for d in range(10) if d != 1)


def test_automaton_121_match_takes_precedence():
    # at state 2 ("12" read) the digit 1 completes the pattern
    auto = build_automaton("121")
    assert auto.transition[2][1] == 3 == auto.accept_state
    assert auto.matches(121)
    # true mismatch at state 2 falls back to the matched "1"
    assert auto.transition[2][2] == 0
    assert auto.transition[1][1] == 1


def test_accept_state_absorbs():
    auto = build_automaton("12")
    assert all(auto.transition[auto.accept_state][d] == auto.accept_state for d in range(10))


def test_matches_agrees_with_contains():
    rng = random.Random(17)
    for text in CORPUS:
        auto = build_automaton(text)
        for _ in range(300):
            n = rng.randint(1, 10**10)
            assert auto.matches(n) == contains(n, text)


def test_count_examples():
    assert count_avoiders("9", 99) == 80
    assert count_avoiders("123", 122) == 122
    assert count_avoiders("1", 10) == 8


def test_count_accepts_digitstring_and_automaton():
    pat = parse_digit_string("12")
    assert count_avoiders(pat, 500) == count_avoiders("12", 500) == count_avoiders(build_automaton(pat), 500)


@pytest.mark.parametrize("text", CORPUS)
def test_count_matches_brute_force(text):
    auto = build_automaton(text)
    brute = 0
    for n in range(1, 3_001):
        if text not in str(n):
            brute += 1
        assert count_avoiders(auto, n) == brute


def test_count_closed_form():
    for k in range(1, 19):
        assert count_avoiders("9", 10**k - 1) == 9**k - 1


def test_count_monotone_steps():
    rng = random.Random(23)
    for text in ("9", "00", "123"):
        auto = build_automaton(text)
        for _ in range(40):
            x = rng.randint(2, 10**12)
            step = count_avoiders(auto, x) - count_avoiders(auto, x - 1)
            assert step in (0, 1)
            assert step == (0 if contains(x, text) else 1)


def test_count_domain():
    with pytest.raises(DomainError):
        count_avoiders("9", 0)
    with pytest.raises(DomainError):
        count_avoiders("9", 10**38)
    assert count_avoiders("9", 10**38 - 1) == 9**38 - 1


@pytest.mark.parametrize("x", [99.0, 10.5])
def test_count_rejects_a_non_integer_bound(x):
    # str(99.0) would feed "." to the digit walk as digit -2
    with pytest.raises(TypeError):
        count_avoiders("9", x)


def test_count_accepts_numpy_integers():
    np = pytest.importorskip("numpy")
    assert count_avoiders("9", np.int64(99)) == count_avoiders("9", 99) == 80


def enumerate_base_r_avoiders(r: int, b: int, d: int) -> int:
    count = 0
    for v in range(r ** (d - 1), r**d):
        digits = []
        t = v
        while t:
            digits.append(t % r)
            t //= r
        if b not in digits:
            count += 1
    return count


@pytest.mark.parametrize(
    "r,b,d,expected",
    [(10, 9, 2, 72), (10, 0, 2, 81), (10, 0, 1, 9), (10, 9, 1, 8), (3, 0, 3, 8), (3, 2, 3, 4)],
)
def test_base_r_digit_avoiders(r, b, d, expected):
    assert base_r_digit_avoiders(BaseRContext(r=r, b=b), d) == expected
    assert enumerate_base_r_avoiders(r, b, d) == expected


def test_hw_upper_bound_examples():
    assert hw_upper_bound(BaseRContext(r=10, k=2)) == 92  # ceil(9^3 / 8)
    assert hw_upper_bound(BaseRContext(r=10, k=1)) == 11  # ceil(81 / 8)
    assert hw_upper_bound(BaseRContext(r=3, k=1)) == 4


def test_hw_upper_bound_majorizes_geometric_sum():
    # the bound dominates sum_{d<=k} (r-1)^d, the per-length majorant total
    for r in (3, 10, 100):
        for k in range(1, 12):
            total = sum((r - 1) ** d for d in range(1, k + 1))
            assert total <= hw_upper_bound(BaseRContext(r=r, k=k))


def test_hw_majorizes_exact_counts_sampled():
    rng = random.Random(41)
    for text in CORPUS:
        auto = build_automaton(text)
        r = 10 ** len(text)
        for _ in range(60):
            x = rng.randint(1, 10**7)
            ctx = BaseRContext.for_value(x, r)
            assert count_avoiders(auto, x) <= hw_upper_bound(ctx)


def test_base_r_context_validation():
    with pytest.raises(DomainError):
        BaseRContext(r=2)
    with pytest.raises(DomainError):
        BaseRContext(r=10, b=10)
    with pytest.raises(DomainError):
        BaseRContext(r=10, k=0)
    with pytest.raises(DomainError):
        base_r_digit_avoiders(BaseRContext(r=10), 0)
    with pytest.raises(DomainError):
        BaseRContext.for_value(0, 10)


def test_for_value_digit_count_exact():
    assert BaseRContext.for_value(1, 10).k == 1
    assert BaseRContext.for_value(9, 10).k == 1
    assert BaseRContext.for_value(10, 10).k == 2
    for j in range(1, 12):
        assert BaseRContext.for_value(10**j, 10).k == j + 1
        assert BaseRContext.for_value(10**j - 1, 10).k == j
    assert BaseRContext.for_value(10**6, 100).k == 4


def test_overflow_detected():
    with pytest.raises(CountOverflowError):
        hw_upper_bound(BaseRContext(r=10, k=200))
    with pytest.raises(CountOverflowError):
        base_r_digit_avoiders(BaseRContext(r=10, b=9), 200)


def test_density_bound_examples():
    assert avoider_density_bound(BaseRContext(r=10, k=1)) == pytest.approx(10.125, rel=1e-12)
    assert avoider_density_bound(BaseRContext(r=10, k=50)) == pytest.approx(11.25 * 0.9**50, rel=1e-9)
    assert avoider_density_bound(BaseRContext(r=10, k=50)) == pytest.approx(0.05798, abs=5e-5)
    assert avoider_density_bound(BaseRContext(r=100, k=1)) == pytest.approx(
        (9900 / 98) * 0.99, rel=1e-12
    )


def test_density_bound_large_k_no_overflow():
    tiny = avoider_density_bound(BaseRContext(r=10, k=5_000))
    assert 0.0 <= tiny < 1e-200
    huge_r = avoider_density_bound(BaseRContext(r=10**18, k=3))
    assert math.isfinite(huge_r)
    # r(r-1)/(r-2) alone passes double range
    assert avoider_density_bound(BaseRContext(r=10**400)) == math.inf


def test_density_bound_majorizes_exact_density():
    rng = random.Random(47)
    for text in CORPUS:
        auto = build_automaton(text)
        r = 10 ** len(text)
        for _ in range(30):
            n = rng.randint(10, 10**7)
            ctx = BaseRContext.for_value(n, r)
            assert count_avoiders(auto, n) / n < avoider_density_bound(ctx)


def test_avoider_share_eventually_decays():
    # R(10^e) log(10^e) / 10^e tends to 0; for one-digit patterns the
    # decrease sets in at e = 10 and the comparison is exact in integers:
    # f(e+1) < f(e)  <=>  R(10^(e+1)) (e+1) < 10 R(10^e) e.
    for text in ("9", "0", "1"):
        auto = build_automaton(text)
        counts = {e: count_avoiders(auto, 10**e) for e in range(10, 23)}
        for e in range(10, 22):
            assert counts[e + 1] * (e + 1) < 10 * counts[e] * e


def survivor_table_count(auto: PatternAutomaton, x: int) -> int:
    """Scalar reference: the backward digit DP over a survivor table.

    surv[j][s] counts the length-j digit strings that never reach accept
    from state s.  The count sums them over the first digit of each shorter
    number, then over each digit below x's along its tight prefix.
    """
    trans, accept = auto.transition, auto.accept_state
    digits = [int(c) for c in str(x)]
    span = len(digits)
    surv = [[1] * accept + [0]]
    while len(surv) < span:
        prev = surv[-1]
        surv.append([sum(prev[t] for t in row if t != accept) for row in trans[:accept]] + [0])
    total = 0
    for length in range(1, span):
        total += sum(surv[length - 1][t] for t in trans[0][1:] if t != accept)
    state = 0
    for i, xd in enumerate(digits):
        row = trans[state]
        total += sum(surv[span - 1 - i][t] for t in row[1 if i == 0 else 0 : xd] if t != accept)
        state = row[xd]
        if state == accept:
            return total
    return total + 1


@pytest.mark.parametrize("text", ["9", "12", "0", "00", "05", "010", "11", "121", "1231", "12121212", "00100"])
def test_count_matches_survivor_table_reference(text):
    rng = random.Random(text)
    auto = build_automaton(text)
    xs = [10**38 - 1, 10**37, 10 ** len(text)] + [rng.randint(1, 10 ** rng.randint(1, 38) - 1) for _ in range(300)]
    for x in xs:
        assert count_avoiders(auto, x) == survivor_table_count(auto, x), x


@pytest.mark.parametrize("text", ["9", "0", "11", "010", "121"])
def test_survivor_counts_match_brute_force(text):
    # feeding text[:s] from state 0 reaches state s, so a string w avoids
    # the pattern from state s iff text[:s] + w does not contain it
    auto = build_automaton(text)
    for j in range(6):
        words = [f"{n:0{j}d}" if j else "" for n in range(10**j)]
        brute = [sum(text not in text[:s] + w for w in words) for s in range(len(text))]
        assert auto.survivor_counts(j) == brute + [0]


def test_shared_automaton_is_never_written():
    auto = PatternAutomaton("1231")
    before = dict(vars(auto))
    for digits in range(1, 39):
        count_avoiders(auto, 10**digits - 1)
        auto.survivor_counts(digits)
    assert vars(auto) == before
    assert all(vars(auto)[name] is value for name, value in before.items())


def test_shared_automaton_counts_agree_across_threads():
    x = 10**37 + 12_345
    auto = PatternAutomaton("1231")
    barrier = threading.Barrier(4)
    results = []

    def work():
        barrier.wait(timeout=10)
        for _ in range(3):
            results.append(count_avoiders(auto, x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [count_avoiders(PatternAutomaton("1231"), x)] * 12
