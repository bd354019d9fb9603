"""Fast invariant battery behind the CLI --seed-check flag.

Each check re-derives a small ground truth independently (trial division,
brute-force scans, direct arithmetic) and compares the library against it.
"""

from __future__ import annotations

import math

from .bounds import solve_log_n
from .counting import PatternAutomaton, count_avoiders
from .digits import contains
from .primes import PrimeStream, is_prime, prime_count, prime_mask, rosser_lower


def _trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def _longest_suffix_prefix(pattern: tuple[int, ...], fed: tuple[int, ...]) -> int:
    for length in range(min(len(pattern), len(fed)), 0, -1):
        if fed[len(fed) - length :] == pattern[:length]:
            return length
    return 0


def run() -> int:
    """Run all checks, printing one PASS/FAIL line each; return the number
    of failures."""
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"seed-check {'PASS' if ok else 'FAIL'}: {name}")

    trial = _trial_division_primes(10_000)
    check("sieve matches trial division to 10^4", list(PrimeStream(10_000)) == trial)
    check("pi(10^4) exact", prime_count(10_000) == len(trial))
    trial_set = set(trial)
    check("is_prime matches trial division to 10^4",
          all(is_prime(n) == (n in trial_set) for n in range(10_000 + 1)))

    mask = prime_mask(10_000)
    counts = mask.cumsum()
    check("pi(x) > x/log x on [17, 10^4]",
          all(counts[x] > rosser_lower(x) for x in range(17, 10_001)))

    ok = True
    for text in ("9", "121", "00", "1231"):
        auto = PatternAutomaton(text)
        pat = auto.pattern.digits
        for s in range(len(pat)):
            for d in range(10):
                if auto.transition[s][d] != _longest_suffix_prefix(pat, pat[:s] + (d,)):
                    ok = False
    check("automaton transitions match longest suffix-prefix", ok)

    ok = True
    for text in ("9", "12"):
        auto = PatternAutomaton(text)
        brute = 0
        for n in range(1, 2_001):
            if not contains(n, text):
                brute += 1
            if count_avoiders(auto, n) != brute:
                ok = False
                break
    check("exact avoider count matches brute force to 2000", ok)

    ok = True
    for b in (10.0, 57.0, 1e6, 1e12):
        y = solve_log_n(b)
        if abs(y / math.log(y) - b) > 1e-9 * b:
            ok = False
    check("y/log y inversion round trip", ok)

    return failures
